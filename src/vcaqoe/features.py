"""Per-window feature extraction from video packet streams.

Two canonical feature sets share the 12 flow-level statistics: the IP/UDP
set adds two fragmentation-semantics features, the RTP set adds 12
header-derived features. Column order is fixed for model portability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# assemble_rtp stays importable here: bench/tracing.py wraps it
from .assembly import MissingRtp, assemble_rtp, rtp_frame_table  # noqa: F401
from .heuristics import segment_stats, segment_sums, window_segments
from .session import MEDIA_CODE, MICROS_PER_S, NO_RTP, MediaClass

FLOW_FEATURES = [
    "bytes_per_s", "pkts_per_s",
    "size_mean", "size_std", "size_median", "size_min", "size_max",
    "iat_mean", "iat_std", "iat_median", "iat_min", "iat_max",
]
SEMANTIC_FEATURES = ["n_unique_sizes", "n_microbursts"]
RTP_ONLY_FEATURES = [
    "unique_rtp_ts_video", "unique_rtp_ts_retx",
    "unique_rtp_ts_intersection", "unique_rtp_ts_union",
    "marker_sum_video", "marker_sum_retx", "ooo_count",
    "lag_mean", "lag_std", "lag_median", "lag_min", "lag_max",
]

IPUDP_FEATURE_NAMES = FLOW_FEATURES + SEMANTIC_FEATURES
RTP_FEATURE_NAMES = FLOW_FEATURES + RTP_ONLY_FEATURES

SEQ_HALF_RANGE = 32768


@dataclass(frozen=True)
class SemanticParams:
    theta_iat_ms: float = 3.0
    sampling_freq: int = 90000

    def __post_init__(self):
        if self.theta_iat_ms <= 0 or self.sampling_freq <= 0:
            raise ValueError("theta_iat_ms and sampling_freq must be positive")


FIVE_STATS = (np.mean, np.std, np.median, np.min, np.max)


def _whole(n):
    """Segment bounds of one segment holding all n rows."""
    return np.array([0]), np.array([n])


def _inner_gaps(lo, hi):
    """Bounds, in the diff of a column, of the gaps between rows inside each
    segment [lo[i], hi[i]) of the column."""
    return lo, np.maximum(hi - 1, lo)


def _distinct(values, lo, hi):
    """The distinct values of each segment values[lo[i]:hi[i]].

    Returns the segment of each distinct (segment, value) pair, the row of
    values each segment element sits in, and the index of each element's
    pair.
    """
    counts = hi - lo
    seg = np.repeat(np.arange(len(lo)), counts)
    rows = np.arange(len(seg)) + np.repeat(lo - np.cumsum(counts) + counts,
                                           counts)
    order = np.lexsort((values[rows], seg))
    seg_sorted, v = seg[order], values[rows[order]]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (seg_sorted[1:] != seg_sorted[:-1]) | (v[1:] != v[:-1])
    pair = np.empty(len(order), dtype=np.int64)
    pair[order] = np.cumsum(new) - 1
    return seg_sorted[new], rows, pair


def _flow_rows(video, lo, hi, w):
    """The 12 flow-level statistics of each segment video[lo[i]:hi[i]]."""
    return np.column_stack((
        segment_sums(video.payload_len, lo, hi) / w, (hi - lo) / w,
        segment_stats(video.payload_len.astype(np.float64), lo, hi,
                      FIVE_STATS),
        segment_stats(np.diff(video.arrival_us) / MICROS_PER_S,
                      *_inner_gaps(lo, hi), FIVE_STATS)))


def _semantic_rows(video, lo, hi, params):
    """Unique-size and microburst counts of each segment video[lo[i]:hi[i]]."""
    seg, _rows, _pair = _distinct(video.payload_len, lo, hi)
    bursts = segment_sums(
        np.diff(video.arrival_us) >= params.theta_iat_ms * 1000.0,
        *_inner_gaps(lo, hi))
    return np.column_stack((np.bincount(seg, minlength=len(lo)),
                            np.where(hi > lo, 1 + bursts, 0))).astype(float)


def _rtp_rows(media, lo, hi, lags, lag_lo, lag_hi):
    """The RTP feature block of each segment media[lo[i]:hi[i]], with the
    frame lags lags[lag_lo[i]:lag_hi[i]] of the same window."""
    video = media.media_class == MEDIA_CODE[MediaClass.VIDEO]
    retx = media.media_class == MEDIA_CODE[MediaClass.VIDEO_RETX]
    if segment_sums((video | retx) & (media.rtp_ts == NO_RTP), lo, hi).any():
        raise MissingRtp("RTP features need RTP headers")
    seg, rows, pair = _distinct(media.rtp_ts, lo, hi)
    in_video = np.bincount(pair[video[rows]], minlength=len(seg)) > 0
    in_retx = np.bincount(pair[retx[rows]], minlength=len(seg)) > 0

    def per_segment(pairs):
        return np.bincount(seg[pairs], minlength=len(lo))

    # backward steps between consecutive video rows of one segment, modulo
    # 2^16: a step back by at most half the sequence space
    before = np.concatenate(([0], np.cumsum(video)))
    backward = (np.diff(media.rtp_seq[video]) & 0xFFFF) >= SEQ_HALF_RANGE
    return np.column_stack((
        per_segment(in_video), per_segment(in_retx),
        per_segment(in_video & in_retx), per_segment(in_video | in_retx),
        segment_sums(media.rtp_marker * video, lo, hi),
        segment_sums(media.rtp_marker * retx, lo, hi),
        segment_sums(backward, *_inner_gaps(before[lo], before[hi])),
        segment_stats(lags, lag_lo, lag_hi, FIVE_STATS))).astype(float)


def flow_stats(window, w=1.0):
    """12 flow-level statistics over one window of video packets
    (PacketColumns, in arrival order)."""
    return _flow_rows(window, *_whole(len(window)), w)[0].tolist()


def semantic_features(window, params=SemanticParams()):
    """Unique packet-size count and microburst count for one window of
    video packets (PacketColumns, in arrival order)."""
    return tuple(_semantic_rows(window, *_whole(len(window)),
                                params)[0].tolist())


def frame_lags(end_us, rtp_ts, origin, sampling_freq):
    """Per-frame delay in seconds relative to the schedule implied by RTP
    timestamps, for frames ending at end_us with timestamps rtp_ts.

    origin is (end_us, rtp_ts) of the session's first video frame, which by
    construction has zero lag.
    """
    t0_us, ts0 = origin
    delta = (np.asarray(rtp_ts, dtype=np.int64) - ts0) & 0xFFFFFFFF
    delta[delta >= 1 << 31] -= 1 << 32
    sched_us = t0_us + delta * MICROS_PER_S / sampling_freq
    return (np.asarray(end_us, dtype=np.int64) - sched_us) / MICROS_PER_S


def rtp_features(window, lags=()):
    """RTP feature block for one window (12 values).

    window holds the window's media-classified packets (PacketColumns, in
    arrival order); video and retransmission rows are told apart by
    media_class. lags are the frame lags of the RTP frames ending in the
    window.
    """
    lags = np.asarray(lags, dtype=np.float64)
    return _rtp_rows(window, *_whole(len(window)), lags,
                     *_whole(len(lags)))[0].tolist()


def session_feature_rows(session, feature_set="ipudp", w=1,
                         params=SemanticParams()):
    """Per-window feature vectors for a media-classified session.

    Returns (window_starts, matrix) covering every w-second window between
    the first and last video packet, inclusive; callers keep the windows
    of session_windows. feature_set is "ipudp" or "rtp"; w is a positive
    whole number of seconds.
    """
    if feature_set not in ("ipudp", "rtp"):
        raise ValueError(f"unknown feature set {feature_set!r}")
    if w != int(w) or w < 1:
        raise ValueError(f"window must be a positive whole number of "
                         f"seconds, got {w!r}")
    w = int(w)
    cols = session.columns
    is_video = cols.media_class == MEDIA_CODE[MediaClass.VIDEO]
    if not is_video.any():
        return [], np.zeros((0, len(IPUDP_FEATURE_NAMES
                                    if feature_set == "ipudp"
                                    else RTP_FEATURE_NAMES)))
    video = cols.take(is_video)
    span = (int(video.arrival_us[0]), int(video.arrival_us[-1]))
    keys, lo, hi = window_segments(video.arrival_us, w, span)
    if feature_set == "ipudp":
        extra = _semantic_rows(video, lo, hi, params)
    else:
        frames = rtp_frame_table(video)
        frame_ts = video.rtp_ts[frames.members[frames.lo]]
        lags = frame_lags(frames.end_us, frame_ts,
                          (int(frames.end_us[0]), int(frame_ts[0])),
                          params.sampling_freq)
        media = cols.take(is_video | (
            cols.media_class == MEDIA_CODE[MediaClass.VIDEO_RETX]))
        extra = _rtp_rows(media, *window_segments(media.arrival_us, w,
                                                  span)[1:],
                          lags, *window_segments(frames.end_us, w, span)[1:])
    return keys, np.hstack((_flow_rows(video, lo, hi, w), extra))
