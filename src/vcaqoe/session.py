"""Core domain types: packets, RTP headers, frames, sessions, QoE windows.

All timestamps are carried internally as 64-bit microsecond integers and
converted to float seconds only at API edges, so window assignment never
drifts.
"""

from __future__ import annotations

import enum
import socket
import struct
from dataclasses import dataclass, fields, replace
from functools import partial
from operator import attrgetter
from typing import Optional

import numpy as np

MICROS_PER_S = 1_000_000
RTP_FIXED_HEADER_LEN = 12
NO_RTP = -1     # RTP column value for a packet without an RTP header


class RtpError(ValueError):
    """Base class for RTP parse failures."""


class RtpTooShort(RtpError):
    pass


class RtpBadVersion(RtpError):
    pass


class MediaClass(enum.Enum):
    AUDIO = "audio"
    VIDEO = "video"
    VIDEO_RETX = "video_retx"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class RtpHeader:
    version: int
    padding: bool
    extension: bool
    marker: bool
    csrc_count: int
    payload_type: int
    sequence: int
    timestamp: int
    ssrc: int
    csrcs: tuple = ()
    header_len: int = RTP_FIXED_HEADER_LEN


def parse_rtp_header(raw: bytes) -> RtpHeader:
    """Parse the fixed RTP header (plus CSRC list) from a UDP payload.

    Extension blocks are not decoded but are counted in ``header_len`` so
    callers can compute the media payload size.
    """
    if len(raw) < RTP_FIXED_HEADER_LEN:
        raise RtpTooShort(f"need >= 12 bytes, got {len(raw)}")
    b0 = raw[0]
    version = b0 >> 6
    if version != 2:
        raise RtpBadVersion(f"RTP version {version} != 2")
    padding = bool(b0 & 0x20)
    extension = bool(b0 & 0x10)
    csrc_count = b0 & 0x0F
    b1 = raw[1]
    marker = bool(b1 & 0x80)
    payload_type = b1 & 0x7F
    sequence, = struct.unpack_from(">H", raw, 2)
    timestamp, ssrc = struct.unpack_from(">II", raw, 4)

    header_len = RTP_FIXED_HEADER_LEN + 4 * csrc_count
    if len(raw) < header_len:
        raise RtpTooShort(f"CSRC list overruns payload ({len(raw)} < {header_len})")
    csrcs = struct.unpack_from(f">{csrc_count}I", raw, 12) if csrc_count else ()
    if extension:
        if len(raw) < header_len + 4:
            raise RtpTooShort("extension header overruns payload")
        ext_words, = struct.unpack_from(">H", raw, header_len + 2)
        header_len += 4 + 4 * ext_words
        if len(raw) < header_len:
            raise RtpTooShort("extension block overruns payload")
    return RtpHeader(version, padding, extension, marker, csrc_count,
                     payload_type, sequence, timestamp, ssrc, csrcs, header_len)


def serialize_rtp_header(h: RtpHeader) -> bytes:
    """Inverse of parse_rtp_header for headers without an extension block."""
    if h.extension:
        raise ValueError("extension block serialization is unsupported")
    b0 = (h.version << 6) | (int(h.padding) << 5) | (h.csrc_count & 0x0F)
    b1 = (int(h.marker) << 7) | (h.payload_type & 0x7F)
    out = struct.pack(">BBHII", b0, b1, h.sequence & 0xFFFF,
                      h.timestamp & 0xFFFFFFFF, h.ssrc & 0xFFFFFFFF)
    if h.csrc_count:
        out += struct.pack(f">{h.csrc_count}I", *h.csrcs)
    return out


@dataclass(frozen=True, slots=True)
class PacketRecord:
    arrival_us: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    payload_len: int
    rtp: Optional[RtpHeader] = None
    media_class: Optional[MediaClass] = None

    @property
    def arrival_time(self) -> float:
        return self.arrival_us / MICROS_PER_S


@dataclass(frozen=True, slots=True)
class Frame:
    frame_id: int
    packet_indices: tuple
    size_bytes: int
    start_us: int
    end_us: int
    rtp_timestamps: frozenset = frozenset()

    @property
    def start_time(self) -> float:
        return self.start_us / MICROS_PER_S

    @property
    def end_time(self) -> float:
        return self.end_us / MICROS_PER_S


MEDIA_CLASSES = tuple(MediaClass)   # media_class column value i is MEDIA_CLASSES[i]
MEDIA_CODE = {cls: i for i, cls in enumerate(MEDIA_CLASSES)}
NO_CLASS = -1   # media_class column value of a packet not yet classified


@dataclass(frozen=True)
class PacketColumns:
    """int64 columns of a packet list, in list order.

    RTP fields hold NO_RTP for packets without an RTP header; rtp_marker
    is 0 or 1 otherwise. media_class holds MEDIA_CODE values, NO_CLASS
    for a packet not yet classified.
    """
    arrival_us: np.ndarray
    payload_len: np.ndarray
    rtp_pt: np.ndarray
    rtp_ts: np.ndarray
    rtp_marker: np.ndarray
    rtp_seq: np.ndarray
    media_class: np.ndarray

    @classmethod
    def of(cls, packets) -> "PacketColumns":
        n = len(packets)
        headers = list(map(attrgetter("rtp"), packets))

        def rtp_column(name):
            get = attrgetter(name)
            return np.fromiter((NO_RTP if h is None else get(h)
                                for h in headers), np.int64, n)

        return cls(np.fromiter(map(attrgetter("arrival_us"), packets),
                               np.int64, n),
                   np.fromiter(map(attrgetter("payload_len"), packets),
                               np.int64, n),
                   rtp_column("payload_type"), rtp_column("timestamp"),
                   rtp_column("marker"), rtp_column("sequence"),
                   np.fromiter((MEDIA_CODE.get(p.media_class, NO_CLASS)
                                for p in packets), np.int64, n))

    def __len__(self):
        return len(self.arrival_us)

    def take(self, rows) -> "PacketColumns":
        """The rows selected by a boolean mask or a slice, order kept."""
        return PacketColumns(*(getattr(self, f.name)[rows]
                               for f in fields(self)))


@dataclass(frozen=True)
class RecordFields:
    """The per-packet values that only the PacketRecord view reads, row
    for row with a reader's columns.

    Addresses are dotted-quad strings, or IPv4 addresses as integers.
    The RTP values are read on RTP rows only: rtp_b0 is the header's
    first byte (padding, extension and CSRC count bits), rtp_csrcs maps
    the rows that carry a CSRC list to it.
    """
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    rtp_ssrc: np.ndarray
    rtp_b0: np.ndarray
    rtp_header_len: np.ndarray
    rtp_csrcs: dict

    def records(self, cols) -> list:
        """One PacketRecord per row of cols."""
        csrcs = self.rtp_csrcs
        out = []
        for i, (arrival, src_ip, dst_ip, src_port, dst_port, plen, pt, seq,
                ts, marker, ssrc, b0, header_len, code) in enumerate(zip(
                    cols.arrival_us.tolist(), _addresses(self.src_ip),
                    _addresses(self.dst_ip), self.src_port.tolist(),
                    self.dst_port.tolist(), cols.payload_len.tolist(),
                    cols.rtp_pt.tolist(), cols.rtp_seq.tolist(),
                    cols.rtp_ts.tolist(), cols.rtp_marker.tolist(),
                    self.rtp_ssrc.tolist(), self.rtp_b0.tolist(),
                    self.rtp_header_len.tolist(),
                    cols.media_class.tolist())):
            rtp = None
            if pt != NO_RTP:
                rtp = RtpHeader(2, bool(b0 & 0x20), bool(b0 & 0x10),
                                bool(marker), b0 & 0x0F, pt, seq, ts, ssrc,
                                csrcs.get(i, ()), header_len)
            out.append(PacketRecord(arrival, src_ip, dst_ip, src_port,
                                    dst_port, plen, rtp, _media_class(code)))
        return out


def _addresses(column):
    if column.dtype.kind not in "iu":
        return column.tolist()
    values, inverse = np.unique(column, return_inverse=True)
    names = [socket.inet_ntoa(int(v).to_bytes(4, "big")) for v in values]
    return [names[i] for i in inverse.reshape(-1).tolist()]


def _media_class(code):
    return None if code == NO_CLASS else MEDIA_CLASSES[code]


def _retagged(packets, cols):
    """packets with the media classes of cols."""
    return [PacketRecord(p.arrival_us, p.src_ip, p.dst_ip, p.src_port,
                         p.dst_port, p.payload_len, p.rtp, _media_class(code))
            for p, code in zip(packets, cols.media_class.tolist())]


class Session:
    """One call's packets, sorted by arrival.

    The analysis path reads ``columns``. ``packets``, one PacketRecord per
    packet, is a view for callers at the API edge. Session(id, label,
    packets) derives the columns on first use; a reader passes columns and
    ``records``, a function of the columns that builds the view, which
    runs on first use of ``packets``.
    """

    def __init__(self, session_id, vca_label, packets=None, columns=None,
                 records=None):
        self.session_id = session_id
        self.vca_label = vca_label
        self.skipped_count = 0
        if packets is not None:
            prev = -1
            for p in packets:
                if p.arrival_us < prev:
                    raise ValueError("packets must be sorted by arrival time")
                prev = p.arrival_us
        elif (np.diff(columns.arrival_us) < 0).any():
            raise ValueError("packets must be sorted by arrival time")
        self._packets = packets
        self._columns = columns
        self._records = records

    @property
    def packets(self) -> list:
        if self._packets is None:
            self._packets = self._records(self._columns)
        return self._packets

    @property
    def columns(self) -> PacketColumns:
        if self._columns is None:
            self._columns = PacketColumns.of(self._packets)
        return self._columns

    def __len__(self):
        if self._packets is not None:
            return len(self._packets)
        return len(self._columns)

    def classified(self, media_class) -> "Session":
        """This session with a media_class column (MEDIA_CODE values)."""
        cols = replace(self.columns, media_class=media_class)
        records = self._records or partial(_retagged, self._packets)
        return Session(self.session_id, self.vca_label, columns=cols,
                       records=records)

    def video_packets(self) -> list:
        return [p for p in self.packets if p.media_class is MediaClass.VIDEO]


@dataclass
class QoeWindow:
    window_start: int
    duration_s: float = 1.0
    fps: Optional[float] = None
    bitrate_kbps: Optional[float] = None
    frame_jitter_ms: Optional[float] = None
    frame_height: Optional[int] = None
    resolution_class: Optional[str] = None


def window_of(arrival_time: float) -> int:
    """Epoch second containing an arrival time; the boundary second belongs
    to the next window."""
    return int(arrival_time // 1.0)


def window_of_us(arrival_us: int) -> int:
    return arrival_us // MICROS_PER_S
