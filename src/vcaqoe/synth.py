"""Synthetic VCA session generator with exact ground truth.

Frames are emitted on a fixed schedule, fragmented into near-equal packets
(intra-frame size spread <= 1 byte), and interleaved with audio. Each
packet's UDP payload is written as media bytes + 12 so the fixed-RTP-header
deduction downstream recovers the media byte count exactly. A separate
impairment pass adds delay jitter, Bernoulli loss, and optional
retransmissions.

Both passes work on whole arrays and have no per-packet step. generate
draws every frame's size noise at once, widens the sizes for separability
in one scalar pass over the frames (the only step that depends on earlier
frames), and emits every frame's packets with np.repeat over the per-frame
packet counts; impair draws one delay and one loss per packet as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from .classify import PayloadTypeMap
from .heuristics import whole_seconds, window_series
from .ingest import GroundTruthSeries, read_csv_rows, write_csv
from .session import (MEDIA_CODE, MICROS_PER_S, NO_CLASS, RTP_FIXED_HEADER_LEN,
                      RTP_VIDEO_CLOCK_HZ, MediaClass, PacketColumns,
                      RecordFields, Session)

FRAME_LOG_DTYPE = np.dtype([(name, np.int64) for name in (
    "frame_id", "emit_us", "complete_us", "media_bytes", "rtp_ts")])
FRAME_LOG_HEADER = list(FRAME_LOG_DTYPE.names)

# Minimum media bytes per packet keeps every video payload >= 564 bytes.
MIN_PACKET_MEDIA = 552
INTRA_FRAME_GAP_US = 100
# Frame-height tiers as a function of per-second bitrate (kbps).
HEIGHT_TIERS = ((400.0, 180), (1000.0, 360), (float("inf"), 720))
# Separation margin for base chunk sizes between nearby frames; keeps every
# cross-frame packet-size difference > 2 even with the +1 remainder byte.
SEPARATION_MARGIN = 4

SRC = (0x0A000002, 50000)      # 10.0.0.2, as an integer
DST = (0xC000020A, 3478)        # 192.0.2.10
VIDEO_SSRC = 0x11111111
AUDIO_SSRC = 0x22222222


class InvalidProfile(ValueError):
    pass


@dataclass(frozen=True)
class SenderProfile:
    fps: float = 30.0
    bitrate_kbps: float = 800.0
    max_payload: int = 1200
    keyframe_interval: int = 0          # 0 disables keyframes
    keyframe_multiplier: float = 2.0
    frame_size_jitter: float = 0.05     # relative stddev (lognormal)
    audio_pps: float = 50.0
    audio_size_range: tuple = (89, 385)
    payload_type_map: Optional[Dict[int, MediaClass]] = None
    separable: bool = True
    separable_depth: int = 3
    start_time_s: float = 1_700_000_000.2

    @property
    def rtp_ts_increment(self):
        return RTP_VIDEO_CLOCK_HZ / self.fps

    def ptmap(self):
        if self.payload_type_map:
            return PayloadTypeMap(dict(self.payload_type_map))
        return PayloadTypeMap()

    def validate(self, duration_s=None):
        """InvalidProfile naming the first field generate cannot send with;
        with duration_s, also when generate cannot send for that long or
        would send no packet in that time."""
        if duration_s is not None and not 2 <= duration_s < math.inf:
            raise InvalidProfile("duration must be finite and at least 2 "
                                 "seconds")
        for name in ("fps", "bitrate_kbps", "keyframe_multiplier"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidProfile(f"{name} must be positive and finite")
        for name in ("frame_size_jitter", "audio_pps"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidProfile(f"{name} must be finite and not "
                                     "negative")
        if not math.isfinite(self.start_time_s):
            raise InvalidProfile("start_time_s must be finite")
        if self.keyframe_interval < 0:
            raise InvalidProfile("keyframe_interval must not be negative")
        if self.separable_depth < 1:
            raise InvalidProfile("separable_depth must be at least 1")
        if self.max_payload <= RTP_FIXED_HEADER_LEN:
            raise InvalidProfile("max_payload must exceed the RTP header")
        lo, hi = self.audio_size_range
        if not (1 <= lo <= hi):
            raise InvalidProfile("bad audio size range")
        if duration_s is None or math.floor(duration_s * self.fps):
            return
        audio = self.ptmap().payload_type_for(MediaClass.AUDIO)
        if audio is None or not math.floor(duration_s * self.audio_pps):
            raise InvalidProfile(f"no packet is sent in {duration_s} s")


@dataclass(frozen=True)
class ImpairmentProfile:
    base_delay_ms: float = 0.0
    delay_jitter_ms: float = 0.0
    loss_prob: float = 0.0
    retransmit: bool = False
    rtt_ms: float = 50.0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise InvalidProfile("loss_prob must be in [0, 1]")
        for name in ("base_delay_ms", "delay_jitter_ms", "rtt_ms"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidProfile(f"delays must be non-negative and "
                                     f"finite: {name}")


@dataclass(frozen=True)
class FrameLogEntry:
    frame_id: int
    emit_us: int
    complete_us: int
    media_bytes: int
    rtp_ts: int


def _packet_counts(sizes, max_payload):
    """ceil(size / max_payload) packets for each frame size, at least one."""
    return np.maximum(1, np.ceil(sizes / max_payload)).astype(np.int64)


def _fragments(sizes, max_payload):
    """The fragmentation rule for an array of frame sizes: a frame of size
    media bytes splits into _packet_counts near-equal chunks, and the
    remainder is spread one byte each over the first chunks, so the
    intra-frame spread never exceeds one byte.

    Returns each frame's packet count, then each packet's index within its
    frame and its media bytes, packets in frame order.
    """
    counts = _packet_counts(sizes, max_payload)
    chunk = sizes // counts
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
    media = np.repeat(chunk, counts) + (
        index < np.repeat(sizes - chunk * counts, counts))
    return counts, index, media


def _separate(sizes, n_pkts, depth):
    """Frame sizes widened for separability: while a frame's chunk,
    size // n_pkts, is within SEPARATION_MARGIN bytes of the chunk of one
    of the depth frames before it, as those were widened, add n_pkts bytes
    to its size."""
    sizes, n_pkts = sizes.tolist(), n_pkts.tolist()
    chunks = []
    for i, n in enumerate(n_pkts):
        chunk = sizes[i] // n
        while any(abs(chunk - c) < SEPARATION_MARGIN
                  for c in chunks[-depth:]):
            sizes[i] += n
            chunk = sizes[i] // n
        chunks.append(chunk)
    return np.array(sizes, dtype=np.int64)


def generate(profile: SenderProfile, duration_s: float, seed: int,
             session_id=None):
    """Generate (Session, GroundTruthSeries, frame log) for one session,
    labeled "synthetic".

    Draws come from one generator in a fixed order: one normal per frame
    (when frame_size_jitter > 0), then one integer per audio packet. A
    frame's packet count and marker come from its size before the
    separability widening, and its packets from its size after it, so a
    widened frame can emit packets past its marker and its complete_us.
    """
    profile.validate(duration_s)
    rng = np.random.default_rng([int(seed), 0xC0FFEE])
    ptmap = profile.ptmap()
    pt_video = ptmap.payload_type_for(MediaClass.VIDEO)
    pt_audio = ptmap.payload_type_for(MediaClass.AUDIO)
    if pt_video is None:
        raise InvalidProfile("payload type map lacks a video entry")

    start_us = int(round(profile.start_time_s * MICROS_PER_S))
    frame = np.arange(int(math.floor(duration_s * profile.fps)))
    # np.rint rounds half to even, as round() does. The size noise goes
    # through math.exp, not np.exp, which may differ from it in the last
    # bit: rounding the product to whole bytes would carry that difference
    # into the corpus.
    emit_us = start_us + np.rint(
        frame * MICROS_PER_S / profile.fps).astype(np.int64)
    rtp_ts = np.rint(frame * profile.rtp_ts_increment).astype(
        np.int64) & 0xFFFFFFFF
    sizes = np.full(len(frame), profile.bitrate_kbps * 1000.0 / 8.0
                    / profile.fps)
    if profile.keyframe_interval:
        sizes[frame % profile.keyframe_interval == 0] *= (
            profile.keyframe_multiplier)
    if profile.frame_size_jitter > 0:
        sizes *= np.fromiter(map(math.exp, rng.normal(
            0.0, profile.frame_size_jitter, len(frame)).tolist()),
            np.float64, len(frame))
    sizes = np.maximum(MIN_PACKET_MEDIA, np.rint(sizes).astype(np.int64))
    n_pkts = _packet_counts(sizes, profile.max_payload)
    short = sizes // n_pkts < MIN_PACKET_MEDIA
    sizes[short] = MIN_PACKET_MEDIA * n_pkts[short]
    if profile.separable:
        sizes = _separate(sizes, n_pkts, profile.separable_depth)
    counts, index, media = _fragments(sizes, profile.max_payload)
    complete_us = emit_us + (n_pkts - 1) * INTRA_FRAME_GAP_US

    # one row per packet field: arrival_us, payload_len, rtp_pt, rtp_ts,
    # rtp_marker, rtp_seq, src_port and rtp_ssrc
    parts = [np.stack(np.broadcast_arrays(
        np.repeat(emit_us, counts) + index * INTRA_FRAME_GAP_US,
        media + RTP_FIXED_HEADER_LEN, pt_video, np.repeat(rtp_ts, counts),
        index == np.repeat(n_pkts - 1, counts),
        np.arange(len(index)) & 0xFFFF, SRC[1], VIDEO_SSRC))]
    # Interleaved audio stream.
    if profile.audio_pps > 0 and pt_audio is not None:
        lo, hi = profile.audio_size_range
        k = np.arange(int(math.floor(duration_s * profile.audio_pps)))
        parts.append(np.stack(np.broadcast_arrays(
            start_us + np.rint(k * MICROS_PER_S / profile.audio_pps).astype(
                np.int64) + 37,
            rng.integers(lo, hi + 1, len(k)), pt_audio,
            (k * 48000 / profile.audio_pps).astype(np.int64) & 0xFFFFFFFF,
            1, k & 0xFFFF, SRC[1] + 2, AUDIO_SSRC)))
    rows = np.concatenate(parts, axis=1)
    rows = rows[:, np.argsort(rows[0], kind="stable")]
    n = rows.shape[1]
    sid = session_id or f"synth-{seed}"
    session = Session(sid, "synthetic", columns=PacketColumns(
        *rows[:6], np.full(n, NO_CLASS)), fields=RecordFields(
        np.full(n, SRC[0]), np.full(n, DST[0]), rows[6], np.full(n, DST[1]),
        rows[7], np.full(n, 0x80), np.full(n, RTP_FIXED_HEADER_LEN),
        np.empty(n, object)))
    frame_log = list(map(FrameLogEntry, frame.tolist(), emit_us.tolist(),
                         complete_us.tolist(), sizes.tolist(),
                         rtp_ts.tolist()))
    truth = truth_from_frame_log(frame_log, first_us=int(rows[0, 0]),
                                 last_us=int(rows[0, -1]))
    return session, truth, frame_log


def truth_from_frame_log(frame_log, w=1, first_us=None, last_us=None):
    """Exact per-window ground truth from the emitted frame log.

    The window_series of the frames' completion times and media bytes over
    (first_us, last_us): fps counts frames completing in the window,
    bitrate sums their media bytes, and jitter, missing for windows with
    fewer than 3 frames, is the population stddev of completion gaps. Frame
    height follows the bitrate tier (HEIGHT_TIERS) in windows with frames.
    w must be a positive whole number of seconds (whole_seconds).
    """
    w = whole_seconds(w)
    if first_us is None:
        first_us = frame_log[0].emit_us
    if last_us is None:
        last_us = frame_log[-1].complete_us
    n = len(frame_log)
    table = window_series(
        np.fromiter((f.complete_us for f in frame_log), np.int64, n),
        np.fromiter((f.media_bytes for f in frame_log), np.int64, n),
        w, span_us=(first_us, last_us))
    edges, heights = zip(*HEIGHT_TIERS)
    tier = np.searchsorted(edges, table.bitrate_kbps)   # first edge >= kbps
    return GroundTruthSeries(replace(table, frame_height=np.where(
        table.fps > 0, np.array(heights)[tier], table.frame_height)))


def impair(session, profile: ImpairmentProfile, seed, ptmap=None):
    """Apply per-packet delay jitter, Bernoulli loss, and optional
    retransmission of lost video packets on the retransmission payload
    type. Output is re-sorted by arrival; reordering emerges from jitter.
    """
    rng = np.random.default_rng([int(seed), 0x1A7E17])
    ptmap = ptmap or PayloadTypeMap()
    pt_retx = ptmap.payload_type_for(MediaClass.VIDEO_RETX)
    base_us = profile.base_delay_ms * 1000.0
    jitter_us = profile.delay_jitter_ms * 1000.0
    rtt_us = profile.rtt_ms * 1000.0

    cols = session.columns
    n = len(cols)
    delays = np.full(n, base_us)
    if jitter_us > 0:
        delays = base_us + np.maximum(0.0, rng.normal(0.0, jitter_us, n))
    lost = rng.random(n) < profile.loss_prob

    resent = np.zeros(n, dtype=bool)
    rtp_pt = cols.rtp_pt
    if profile.retransmit and pt_retx is not None:
        resent = lost & (ptmap.classify(rtp_pt, cols.payload_len)
                         == MEDIA_CODE[MediaClass.VIDEO])
        rtp_pt = np.where(resent, pt_retx, rtp_pt)
    arrival_us = cols.arrival_us + np.rint(
        np.where(resent, rtt_us + delays, delays)).astype(np.int64)
    kept = np.flatnonzero(~lost | resent)
    order = kept[np.argsort(arrival_us[kept], kind="stable")]
    moved = replace(cols, arrival_us=arrival_us, rtp_pt=rtp_pt)
    return Session(session.session_id, session.vca_label,
                   columns=moved.take(order), fields=session.fields.take(order))


def write_frame_log_csv(frame_log, path):
    write_csv(path, FRAME_LOG_HEADER, ",".join(["{}"] * len(FRAME_LOG_HEADER)),
              [[getattr(f, name) for f in frame_log]
               for name in FRAME_LOG_HEADER])


def read_frame_log_csv(path):
    return [FrameLogEntry(*row)
            for row in read_csv_rows(path, FRAME_LOG_DTYPE).tolist()]
