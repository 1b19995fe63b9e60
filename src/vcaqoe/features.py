"""Per-window feature extraction from video packet streams.

Two canonical feature sets share the 12 flow-level statistics: the IP/UDP
set adds two fragmentation-semantics features, the RTP set adds 12
header-derived features. Column order is fixed for model portability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# assemble_rtp stays importable here: bench/tracing.py wraps it
from .assembly import assemble_rtp, rtp_frame_table  # noqa: F401
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


class FeatureError(Exception):
    pass


class MissingRtp(FeatureError):
    pass


@dataclass(frozen=True)
class SemanticParams:
    theta_iat_ms: float = 3.0
    sampling_freq: int = 90000

    def __post_init__(self):
        if self.theta_iat_ms <= 0 or self.sampling_freq <= 0:
            raise ValueError("theta_iat_ms and sampling_freq must be positive")


def _five_stats(values):
    if len(values) == 0:
        return [0.0] * 5
    a = np.asarray(values, dtype=np.float64)
    return [float(a.mean()), float(a.std()), float(np.median(a)),
            float(a.min()), float(a.max())]


def flow_stats(window, w=1.0):
    """12 flow-level statistics over one window of video packets
    (PacketColumns, in arrival order)."""
    n = len(window)
    if n == 0:
        return [0.0] * 12
    sizes = window.payload_len
    out = [int(sizes.sum()) / w, n / w]
    out += _five_stats(sizes)
    if n < 2:
        out += [0.0] * 5
    else:
        out += _five_stats(np.diff(window.arrival_us) / MICROS_PER_S)
    return out


def semantic_features(window, params=SemanticParams()):
    """Unique packet-size count and microburst count for one window of
    video packets (PacketColumns, in arrival order)."""
    if len(window) == 0:
        return (0.0, 0.0)
    bursts = 1 + int(np.count_nonzero(
        np.diff(window.arrival_us) >= params.theta_iat_ms * 1000.0))
    return (float(len(np.unique(window.payload_len))), float(bursts))


def _ooo_count(seq):
    """Backward steps of an RTP sequence-number column, modulo 2^16: a step
    back by at most half the sequence space."""
    step = (np.diff(seq) & 0xFFFF) >= SEQ_HALF_RANGE
    return int(np.count_nonzero(step))


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
    video = window.take(window.media_class == MEDIA_CODE[MediaClass.VIDEO])
    retx = window.take(window.media_class
                       == MEDIA_CODE[MediaClass.VIDEO_RETX])
    if (video.rtp_ts == NO_RTP).any() or (retx.rtp_ts == NO_RTP).any():
        raise MissingRtp("RTP features need RTP headers")
    ts_v = np.unique(video.rtp_ts)
    ts_r = np.unique(retx.rtp_ts)
    out = [float(len(ts_v)), float(len(ts_r)),
           float(len(np.intersect1d(ts_v, ts_r, assume_unique=True))),
           float(len(np.union1d(ts_v, ts_r))),
           float(video.rtp_marker.sum()), float(retx.rtp_marker.sum()),
           float(_ooo_count(video.rtp_seq))]
    return out + _five_stats(lags)


def session_feature_rows(session, feature_set="ipudp", w=1,
                         params=SemanticParams()):
    """Per-window feature vectors for a media-classified session.

    Returns (window_starts, matrix) covering every w-second window between
    the first and last video packet, inclusive; callers drop edge windows
    during alignment. feature_set is "ipudp" or "rtp".
    """
    if feature_set not in ("ipudp", "rtp"):
        raise ValueError(f"unknown feature set {feature_set!r}")
    w = int(w)
    wus = w * MICROS_PER_S
    cols = session.columns
    is_video = cols.media_class == MEDIA_CODE[MediaClass.VIDEO]
    if not is_video.any():
        return [], np.zeros((0, len(IPUDP_FEATURE_NAMES
                                    if feature_set == "ipudp"
                                    else RTP_FEATURE_NAMES)))
    video = cols.take(is_video)
    first_key = int(video.arrival_us[0]) // wus * w
    last_key = int(video.arrival_us[-1]) // wus * w
    keys = list(range(first_key, last_key + w, w))
    # window i holds the arrivals in [edges[i], edges[i + 1])
    edges = np.arange(first_key, last_key + 2 * w, w) * MICROS_PER_S

    if feature_set == "rtp":
        frames = rtp_frame_table(video)
        frame_ts = video.rtp_ts[frames.members[frames.lo]]
        lags = frame_lags(frames.end_us, frame_ts,
                          (int(frames.end_us[0]), int(frame_ts[0])),
                          params.sampling_freq)
        lag_cut = np.searchsorted(frames.end_us, edges).tolist()
        media = cols.take(is_video | (
            cols.media_class == MEDIA_CODE[MediaClass.VIDEO_RETX]))
        media_cut = np.searchsorted(media.arrival_us, edges).tolist()
    video_cut = np.searchsorted(video.arrival_us, edges).tolist()

    rows = []
    for i in range(len(keys)):
        vid = video.take(slice(video_cut[i], video_cut[i + 1]))
        row = flow_stats(vid, float(w))
        if feature_set == "ipudp":
            row += semantic_features(vid, params)
        else:
            row += rtp_features(
                media.take(slice(media_cut[i], media_cut[i + 1])),
                lags[lag_cut[i]:lag_cut[i + 1]])
        rows.append(row)
    return keys, np.asarray(rows, dtype=np.float64)
