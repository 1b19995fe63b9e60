"""Core domain types: packets, RTP headers, sessions, per-window tables.

All timestamps are carried internally as 64-bit microsecond integers and
converted to float seconds only at API edges, so window assignment never
drifts.
"""

from __future__ import annotations

import enum
import socket
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Optional

import numpy as np

MICROS_PER_S = 1_000_000
RTP_FIXED_HEADER_LEN = 12
NO_RTP = -1     # RTP column value for a packet without an RTP header
NO_HEIGHT = -1  # frame_height of a window whose height is unknown
RTP_VIDEO_CLOCK_HZ = 90000   # the RTP timestamp clock of video streams


class MediaClass(enum.Enum):
    AUDIO = "audio"
    VIDEO = "video"
    VIDEO_RETX = "video_retx"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class RtpHeader:
    """One packet's RTP header. header_len counts the CSRC list and any
    extension block, which is not decoded."""
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


MEDIA_CLASSES = tuple(MediaClass)   # media_class column value i is MEDIA_CLASSES[i]
MEDIA_CODE = {cls: i for i, cls in enumerate(MEDIA_CLASSES)}
NO_CLASS = -1   # media_class column value of a packet not yet classified
# The header read in place of a missing one when packets become columns:
# NO_RTP in every column, no CSRC list.
_NO_HEADER = RtpHeader(0, False, False, NO_RTP, 0, NO_RTP, NO_RTP, NO_RTP,
                       NO_RTP, None, NO_RTP)


def _column(items, name, dtype=np.int64):
    return np.fromiter(map(attrgetter(name), items), dtype, len(items))


class _Rows:
    """Equal-length columns of a dataclass, one row per packet or window."""

    def __len__(self):
        return len(getattr(self, fields(self)[0].name))

    def take(self, rows):
        """The rows selected by a boolean mask, an index array or a slice."""
        return type(self)(*(getattr(self, f.name)[rows]
                            for f in fields(self)))


@dataclass(frozen=True)
class PacketColumns(_Rows):
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
        headers = [p.rtp or _NO_HEADER for p in packets]
        return cls(_column(packets, "arrival_us"),
                   _column(packets, "payload_len"),
                   _column(headers, "payload_type"),
                   _column(headers, "timestamp"), _column(headers, "marker"),
                   _column(headers, "sequence"),
                   np.fromiter((MEDIA_CODE.get(p.media_class, NO_CLASS)
                                for p in packets), np.int64, len(packets)))


@dataclass(frozen=True)
class RecordFields(_Rows):
    """The per-packet values that only the PacketRecord view and the
    writers read, row for row with a session's columns.

    Addresses are IPv4 addresses as integers (ipv4). rtp_ssrc is NO_RTP
    on rows without RTP, like the RTP columns. The other RTP values are
    read on RTP rows only: rtp_b0 is the header's first byte (version,
    padding, extension and CSRC count bits), and rtp_csrcs holds a row's
    CSRC list, or None for none.
    """
    src_ip: np.ndarray
    dst_ip: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    rtp_ssrc: np.ndarray
    rtp_b0: np.ndarray
    rtp_header_len: np.ndarray
    rtp_csrcs: np.ndarray

    @classmethod
    def of(cls, packets) -> "RecordFields":
        headers = [p.rtp or _NO_HEADER for p in packets]
        return cls(_per_distinct(_column(packets, "src_ip", object), ipv4),
                   _per_distinct(_column(packets, "dst_ip", object), ipv4),
                   _column(packets, "src_port"), _column(packets, "dst_port"),
                   _column(headers, "ssrc"),
                   np.fromiter(((h.version << 6) | (h.padding << 5)
                                | (h.extension << 4) | h.csrc_count
                                for h in headers), np.int64, len(headers)),
                   _column(headers, "header_len"),
                   _column(headers, "csrcs", object))

    def records(self, cols) -> list:
        """One PacketRecord per row of cols, with no RtpHeader on a row
        without RTP."""
        headers = [None if pt == NO_RTP else RtpHeader(
                       b0 >> 6, bool(b0 & 0x20), bool(b0 & 0x10), bool(marker),
                       b0 & 0x0F, pt, seq, ts, ssrc, csrcs or (), header_len)
                   for pt, seq, ts, marker, ssrc, b0, header_len, csrcs in zip(
                       cols.rtp_pt.tolist(), cols.rtp_seq.tolist(),
                       cols.rtp_ts.tolist(), cols.rtp_marker.tolist(),
                       self.rtp_ssrc.tolist(), self.rtp_b0.tolist(),
                       self.rtp_header_len.tolist(), self.rtp_csrcs.tolist())]
        return list(map(PacketRecord, cols.arrival_us.tolist(),
                        _addresses(self.src_ip), _addresses(self.dst_ip),
                        self.src_port.tolist(), self.dst_port.tolist(),
                        cols.payload_len.tolist(), headers,
                        map(_media_class, cols.media_class.tolist())))


def ipv4(text):
    """A dotted quad as an integer, by inet_pton's strict rule (no leading
    zero, no space); any other text raises ValueError naming it."""
    try:
        return int.from_bytes(socket.inet_pton(socket.AF_INET, text), "big")
    except (OSError, TypeError, ValueError):
        raise ValueError(f"{text!r} is not a dotted-quad IPv4 address") \
            from None


def _per_distinct(column, convert):
    """convert applied to a column, as int64, once per distinct value among
    the first cells of its runs of equal cells."""
    head = np.ones(len(column), dtype=bool)
    head[1:] = column[1:] != column[:-1]
    heads = np.flatnonzero(head)
    values, inverse = np.unique(column[heads], return_inverse=True)
    return np.array([convert(v) for v in values.tolist()], dtype=np.int64)[
        np.repeat(inverse.reshape(-1), np.diff(heads, append=len(column)))]


def _addresses(column):
    """Dotted-quad strings of an integer address column."""
    values, inverse = np.unique(column, return_inverse=True)
    names = [socket.inet_ntoa(int(v).to_bytes(4, "big")) for v in values]
    return [names[i] for i in inverse.reshape(-1).tolist()]


def _media_class(code):
    return None if code == NO_CLASS else MEDIA_CLASSES[code]


class Session:
    """One call's packets, sorted by arrival, as columns.

    The analysis path reads ``columns``; ``fields`` holds the values that
    only the PacketRecord view and the writers read. ``packets``, one
    PacketRecord per packet, is the view for callers at the API edge: the
    list Session(id, label, packets) was given, or else built from the
    columns on first use.
    """

    def __init__(self, session_id, vca_label, packets=None, columns=None,
                 fields=None):
        self.session_id = session_id
        self.vca_label = vca_label
        self.skipped_count = 0
        if packets is not None:
            columns, fields = (PacketColumns.of(packets),
                               RecordFields.of(packets))
        if (np.diff(columns.arrival_us) < 0).any():
            raise ValueError("packets must be sorted by arrival time")
        self.columns = columns
        self.fields = fields
        self._packets = packets

    @property
    def packets(self) -> list:
        if self._packets is None:
            self._packets = self.fields.records(self.columns)
        return self._packets

    def __len__(self):
        return len(self.columns)

    def classified(self, media_class) -> "Session":
        """This session with a media_class column (MEDIA_CODE values)."""
        return Session(self.session_id, self.vca_label,
                       columns=replace(self.columns, media_class=media_class),
                       fields=self.fields)

    def video_packets(self) -> list:
        return [p for p in self.packets if p.media_class is MediaClass.VIDEO]


@dataclass(frozen=True)
class WindowTable(_Rows):
    """Per-window values as columns, one row per window in increasing
    window_start order, in the ground-truth CSV schema: fps, bitrate_kbps
    and frame_jitter_ms are float64 with nan for a missing value, and
    frame_height is int64 with NO_HEIGHT for one."""
    window_start: np.ndarray
    fps: np.ndarray
    bitrate_kbps: np.ndarray
    frame_jitter_ms: np.ndarray
    frame_height: np.ndarray
