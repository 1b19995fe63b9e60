"""Synthetic VCA session generator with exact ground truth.

Frames are emitted on a fixed schedule, fragmented into near-equal packets
(intra-frame size spread <= 1 byte), and interleaved with audio. Each
packet's UDP payload is written as media bytes + 12 so the fixed-RTP-header
deduction downstream recovers the media byte count exactly. A separate
impairment pass adds delay jitter, Bernoulli loss, and optional
retransmissions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from .classify import PayloadTypeMap
from .heuristics import whole_seconds, window_series
from .ingest import GroundTruthSeries, _atomic_write_csv, read_csv_rows
from .session import (MEDIA_CODE, MICROS_PER_S, NO_CLASS, RTP_FIXED_HEADER_LEN,
                      MediaClass, PacketColumns, RecordFields, Session)

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
    sampling_freq: int = 90000
    payload_type_map: Optional[Dict[int, MediaClass]] = None
    separable: bool = True
    separable_depth: int = 3
    start_time_s: float = 1_700_000_000.2
    video_ssrc: int = 0x11111111
    audio_ssrc: int = 0x22222222

    @property
    def rtp_ts_increment(self):
        return self.sampling_freq / self.fps

    def ptmap(self):
        if self.payload_type_map:
            return PayloadTypeMap(dict(self.payload_type_map))
        return PayloadTypeMap()

    def validate(self):
        if self.fps <= 0 or self.bitrate_kbps <= 0:
            raise InvalidProfile("fps and bitrate must be positive")
        if self.keyframe_interval < 0:
            raise InvalidProfile("keyframe_interval must not be negative")
        if self.separable_depth < 1:
            raise InvalidProfile("separable_depth must be at least 1")
        if self.max_payload <= RTP_FIXED_HEADER_LEN:
            raise InvalidProfile("max_payload must exceed the RTP header")
        lo, hi = self.audio_size_range
        if not (1 <= lo <= hi):
            raise InvalidProfile("bad audio size range")


@dataclass(frozen=True)
class ImpairmentProfile:
    base_delay_ms: float = 0.0
    delay_jitter_ms: float = 0.0
    loss_prob: float = 0.0
    retransmit: bool = False
    rtt_ms: float = 50.0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ValueError("loss_prob must be in [0, 1]")
        if min(self.base_delay_ms, self.delay_jitter_ms, self.rtt_ms) < 0:
            raise ValueError("delays must be non-negative")


@dataclass(frozen=True)
class FrameLogEntry:
    frame_id: int
    emit_us: int
    complete_us: int
    media_bytes: int
    rtp_ts: int


def fragment_sizes(size, max_payload):
    """Split a frame of `size` media bytes into ceil(size/max_payload)
    near-equal chunks; the remainder is spread one byte each over the first
    chunks, so the intra-frame spread never exceeds one byte."""
    n_pkts = max(1, math.ceil(size / max_payload))
    chunk = size // n_pkts
    rem = size - chunk * n_pkts
    return [chunk + 1 if j < rem else chunk for j in range(n_pkts)]


def generate(profile: SenderProfile, duration_s: float, seed: int,
             session_id=None, vca_label="synthetic"):
    """Generate (Session, GroundTruthSeries, frame log) for one session."""
    profile.validate()
    if duration_s < 2:
        raise InvalidProfile("duration must be at least 2 seconds")
    rng = np.random.default_rng([int(seed), 0xC0FFEE])
    ptmap = profile.ptmap()
    pt_video = ptmap.payload_type_for(MediaClass.VIDEO)
    pt_audio = ptmap.payload_type_for(MediaClass.AUDIO)
    if pt_video is None:
        raise InvalidProfile("payload type map lacks a video entry")

    start_us = int(round(profile.start_time_s * MICROS_PER_S))
    n_frames = int(math.floor(duration_s * profile.fps))
    mean_media = profile.bitrate_kbps * 1000.0 / 8.0 / profile.fps

    # per packet: arrival_us, payload_len, rtp_pt, rtp_ts, rtp_marker,
    # rtp_seq, src_port and rtp_ssrc
    packets = []
    frame_log = []
    seq = 0
    recent_chunks = []
    for i in range(n_frames):
        emit_us = start_us + int(round(i * MICROS_PER_S / profile.fps))
        size = mean_media
        if (profile.keyframe_interval
                and i % profile.keyframe_interval == 0):
            size *= profile.keyframe_multiplier
        if profile.frame_size_jitter > 0:
            size *= math.exp(rng.normal(0.0, profile.frame_size_jitter))
        size = max(MIN_PACKET_MEDIA, int(round(size)))

        n_pkts = max(1, math.ceil(size / profile.max_payload))
        chunk = size // n_pkts
        if chunk < MIN_PACKET_MEDIA:
            size = MIN_PACKET_MEDIA * n_pkts
            chunk = MIN_PACKET_MEDIA
        if profile.separable:
            while any(abs(chunk - c) < SEPARATION_MARGIN
                      for c in recent_chunks[-profile.separable_depth:]):
                size += n_pkts
                chunk = size // n_pkts
        chunks = fragment_sizes(size, profile.max_payload)
        recent_chunks.append(chunk)
        if len(recent_chunks) > 8:
            recent_chunks = recent_chunks[-8:]

        rtp_ts = int(round(i * profile.rtp_ts_increment)) & 0xFFFFFFFF
        for j, media in enumerate(chunks):
            packets.append((emit_us + j * INTRA_FRAME_GAP_US,
                            media + RTP_FIXED_HEADER_LEN, pt_video, rtp_ts,
                            j == n_pkts - 1, seq & 0xFFFF, SRC[1],
                            profile.video_ssrc))
            seq += 1
        complete_us = emit_us + (n_pkts - 1) * INTRA_FRAME_GAP_US
        frame_log.append(FrameLogEntry(i, emit_us, complete_us, size, rtp_ts))

    # Interleaved audio stream.
    if profile.audio_pps > 0 and pt_audio is not None:
        lo, hi = profile.audio_size_range
        n_audio = int(math.floor(duration_s * profile.audio_pps))
        for k in range(n_audio):
            t_us = start_us + int(round(k * MICROS_PER_S / profile.audio_pps)) + 37
            size = int(rng.integers(lo, hi + 1))
            packets.append((t_us, size, pt_audio,
                            int(k * 48000 / profile.audio_pps) & 0xFFFFFFFF,
                            True, k & 0xFFFF, SRC[1] + 2, profile.audio_ssrc))

    rows = np.array(packets, dtype=np.int64).reshape(-1, 8).T
    rows = rows[:, np.argsort(rows[0], kind="stable")]
    n = rows.shape[1]
    sid = session_id or f"synth-{seed}"
    session = Session(sid, vca_label, columns=PacketColumns(
        *rows[:6], np.full(n, NO_CLASS)), fields=RecordFields(
        np.full(n, SRC[0]), np.full(n, DST[0]), rows[6], np.full(n, DST[1]),
        rows[7], np.full(n, 0x80), np.full(n, RTP_FIXED_HEADER_LEN),
        np.empty(n, object)))
    truth = truth_from_frame_log(frame_log, sid, first_us=int(rows[0, 0]),
                                 last_us=int(rows[0, -1]))
    return session, truth, frame_log


def truth_from_frame_log(frame_log, session_id="synth", w=1,
                         first_us=None, last_us=None):
    """Exact per-window ground truth from the emitted frame log.

    The window_series of the frames' completion times and media bytes over
    (first_us, last_us): fps counts frames completing in the window,
    bitrate sums their media bytes, and jitter, missing for windows with
    fewer than 3 frames, is the population stddev of completion gaps. Frame
    height follows the bitrate tier in windows with frames. w must be a
    positive whole number of seconds (whole_seconds).
    """
    w = whole_seconds(w)
    if first_us is None:
        first_us = frame_log[0].emit_us
    if last_us is None:
        last_us = frame_log[-1].complete_us
    n = len(frame_log)
    series = window_series(
        np.fromiter((f.complete_us for f in frame_log), np.int64, n),
        np.fromiter((f.media_bytes for f in frame_log), np.int64, n),
        w, span_us=(first_us, last_us))
    rows = list(series.values())
    for row in rows:
        if row.fps > 0:
            row.frame_height = next(h for edge, h in HEIGHT_TIERS
                                    if row.bitrate_kbps <= edge)
    return GroundTruthSeries(session_id, rows)


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
    lost = (rng.random(n) < profile.loss_prob if profile.loss_prob > 0
            else np.zeros(n, dtype=bool))

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
    rows = [[f.frame_id, f.emit_us, f.complete_us, f.media_bytes, f.rtp_ts]
            for f in frame_log]
    _atomic_write_csv(path, FRAME_LOG_HEADER, rows)


def read_frame_log_csv(path):
    return [FrameLogEntry(*row)
            for row in read_csv_rows(path, FRAME_LOG_DTYPE).tolist()]
