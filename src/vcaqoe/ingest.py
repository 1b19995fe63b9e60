"""Trace and ground-truth readers and writers.

Supported inputs: classic pcap (Ethernet link type, IPv4/UDP only), the
packet CSV schema, and the per-second ground-truth CSV schema.
"""

from __future__ import annotations

import csv
import math
import os
import socket
import struct
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .session import (MICROS_PER_S, NO_CLASS, NO_RTP, RTP_FIXED_HEADER_LEN,
                      PacketColumns, QoeWindow, RecordFields, Session,
                      _addresses, serialize_rtp_header)

PACKET_CSV_HEADER = ["ts_us", "src_ip", "dst_ip", "src_port", "dst_port",
                     "udp_payload_len", "rtp_pt", "rtp_seq", "rtp_ts",
                     "rtp_marker", "rtp_ssrc"]
TRUTH_CSV_HEADER = ["t_sec", "fps", "bitrate_kbps", "frame_jitter_ms",
                    "frame_height"]

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1


class IngestError(Exception):
    pass


class BadMagic(IngestError):
    pass


class UnsupportedLinkType(IngestError):
    pass


class Truncated(IngestError):
    pass


class Empty(IngestError):
    pass


class BadHeader(IngestError):
    pass


class BadRow(IngestError):
    def __init__(self, line_no, msg):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


class DuplicateSecond(IngestError):
    pass


@dataclass
class GroundTruthSeries:
    session_id: str
    rows: list  # QoeWindow, strictly increasing window_start


def read_pcap(path, session_id=None, vca_label=""):
    """Read a classic pcap file into a Session of IPv4/UDP packets.

    Non-IPv4 and non-UDP packets, and IPv4 fragments other than the first,
    are skipped and counted on the returned session as ``skipped_count``.
    RTP parsing is attempted on every UDP payload and attached when it
    succeeds. The walk over the record headers is the only per-packet
    Python step; the header fields are gathered from the file's bytes as
    numpy columns.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 24:
        raise Truncated("pcap global header incomplete")
    magic_le, = struct.unpack_from("<I", data, 0)
    magic_be, = struct.unpack_from(">I", data, 0)
    if magic_le in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian, magic = "<", magic_le
    elif magic_be in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian, magic = ">", magic_be
    else:
        raise BadMagic(f"unknown pcap magic 0x{magic_le:08x}")
    nanos = magic == PCAP_MAGIC_NS
    _vmaj, _vmin, _tz, _sig, _snap, network = struct.unpack_from(
        endian + "HHiIII", data, 4)
    if network != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(f"link type {network} != Ethernet(1)")

    starts = []     # offset of each record's captured bytes
    append = starts.append
    incl_len = struct.Struct(endian + "I").unpack_from
    end = len(data)
    off = 24
    while off + 16 <= end:
        append(off + 16)
        off += 16 + incl_len(data, off + 8)[0]
    if off > end:
        raise Truncated("record shorter than declared length")
    if off < end:
        raise Truncated("record header incomplete")

    rec = np.array(starts, dtype=np.int64)
    arrival_us = _gather(data, rec - 16, endian + "u4") * MICROS_PER_S
    frac = _gather(data, rec - 12, endian + "u4")
    arrival_us += frac // 1000 if nanos else frac
    caplen = _gather(data, rec - 8, endian + "u4")

    # Ethernet/IPv4/UDP with the whole UDP header captured; a fragment
    # with a non-zero offset carries no UDP header
    ok = caplen >= 14 + 20 + 8
    rec, caplen, arrival_us = rec[ok], caplen[ok], arrival_us[ok]
    vihl = _gather(data, rec + 14, "u1")
    udp = rec + 14 + (vihl & 0x0F) * 4
    ok = ((_gather(data, rec + 12, ">u2") == 0x0800) & (vihl >> 4 == 4)
          & (_gather(data, rec + 23, "u1") == 17)
          & (_gather(data, rec + 20, ">u2") & 0x1FFF == 0)
          & (udp + 8 <= rec + caplen))
    if not ok.any():
        raise Empty("no IPv4/UDP packets in capture")
    rec, caplen, arrival_us, udp = rec[ok], caplen[ok], arrival_us[ok], udp[ok]
    payload = udp + 8
    payload_len = np.maximum(0, _gather(data, udp + 4, ">u2") - 8)
    rtp = _rtp_columns(data, payload,
                       np.minimum(payload_len, rec + caplen - payload))

    cols = PacketColumns(arrival_us, payload_len, rtp["pt"], rtp["ts"],
                         rtp["marker"], rtp["seq"],
                         np.full(len(rec), NO_CLASS, dtype=np.int64))
    csrcs = np.empty(len(rec), object)
    for i in np.flatnonzero((rtp["pt"] != NO_RTP)
                            & (rtp["b0"] & 0x0F > 0)).tolist():
        csrcs[i] = struct.unpack_from(f">{rtp['b0'][i] & 0x0F}I", data,
                                      payload[i] + RTP_FIXED_HEADER_LEN)
    fields = RecordFields(
        _gather(data, rec + 26, ">u4"), _gather(data, rec + 30, ">u4"),
        _gather(data, udp, ">u2"), _gather(data, udp + 2, ">u2"),
        rtp["ssrc"], rtp["b0"], rtp["header_len"], csrcs)
    order = np.argsort(arrival_us, kind="stable")
    sess = Session(session_id or os.path.basename(path), vca_label,
                   columns=cols.take(order), fields=fields.take(order))
    sess.skipped_count = len(starts) - len(order)
    return sess


def _gather(data, offsets, dtype):
    """The values of a fixed-size dtype stored at byte offsets of data, as
    int64."""
    dtype = np.dtype(dtype)
    at_every_byte = np.ndarray((len(data) - dtype.itemsize + 1,), dtype,
                               buffer=data, strides=(1,))
    return at_every_byte[offsets].astype(np.int64)


def _rtp_columns(data, start, length):
    """RTP header columns of the payloads of length[i] captured bytes at
    start[i], NO_RTP where a payload holds no header under the rule of
    parse_rtp_header: version 2, at least 12 bytes, and the CSRC list and
    extension block inside the captured bytes. b0 is the header's first
    byte."""
    cols = {name: np.full(len(start), NO_RTP, dtype=np.int64) for name in (
        "pt", "seq", "ts", "marker", "ssrc", "b0", "header_len")}
    i = np.flatnonzero(length >= RTP_FIXED_HEADER_LEN)
    p, have = start[i], length[i]
    b0 = _gather(data, p, "u1")
    header_len = RTP_FIXED_HEADER_LEN + 4 * (b0 & 0x0F)
    ok = (b0 >> 6 == 2) & (have >= header_len)
    ext = ok & (b0 & 0x10 > 0)
    ok &= ~ext | (have >= header_len + 4)
    ext &= ok
    header_len[ext] += 4 + 4 * _gather(data, p[ext] + header_len[ext] + 2,
                                       ">u2")
    ok &= have >= header_len
    i, p, b0, header_len = i[ok], p[ok], b0[ok], header_len[ok]
    b1 = _gather(data, p + 1, "u1")
    for name, values in (("pt", b1 & 0x7F), ("marker", b1 >> 7),
                         ("seq", _gather(data, p + 2, ">u2")),
                         ("ts", _gather(data, p + 4, ">u4")),
                         ("ssrc", _gather(data, p + 8, ">u4")),
                         ("b0", b0), ("header_len", header_len)):
        cols[name][i] = values
    return cols


def write_pcap(session, path):
    """Write a Session back out as a classic pcap (µs) Ethernet capture.

    Payload bytes are the serialized RTP header (when present) padded with
    zeros, so read_pcap round-trips the session.
    """
    out = bytearray()
    out += struct.pack("<IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535,
                       LINKTYPE_ETHERNET)
    cols, f = session.columns, session.fields
    eth = b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0800)
    for arrival, src_ip, dst_ip, src_port, dst_port, plen, hdr in zip(
            cols.arrival_us.tolist(), _addresses(f.src_ip),
            _addresses(f.dst_ip), f.src_port.tolist(), f.dst_port.tolist(),
            cols.payload_len.tolist(), f.headers(cols)):
        payload = b"" if hdr is None else serialize_rtp_header(hdr)
        udp = (struct.pack(">HHHH", src_port, dst_port, 8 + plen, 0)
               + payload.ljust(plen, b"\x00"))
        total_len = 20 + len(udp)
        ip = (struct.pack(">BBHHHBBH", 0x45, 0, total_len, 0, 0, 64, 17, 0)
              + socket.inet_aton(src_ip) + socket.inet_aton(dst_ip))
        rec = eth + ip + udp
        out += struct.pack("<IIII", arrival // MICROS_PER_S,
                           arrival % MICROS_PER_S, len(rec), len(rec))
        out += rec
    _atomic_write_bytes(path, bytes(out))


def read_packet_csv(path, session_id=None, vca_label=""):
    """Read the packet CSV schema into a Session. RTP columns use -1 for
    absent.

    All rows are parsed in one numpy call; the file is scanned row by row
    only to find the line of a row that does not parse.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != PACKET_CSV_HEADER:
            raise BadHeader(f"expected {','.join(PACKET_CSV_HEADER)}")
        try:
            rows = _load_packet_rows(fh)
        except ValueError:
            line_no, msg = _first_bad_row(path)
            raise BadRow(line_no, msg) from None
    if not len(rows):
        raise Empty("no packet rows")
    rows = rows[np.argsort(rows["ts_us"], kind="stable")]
    has_rtp = rows["rtp_pt"] >= 0

    def column(name, values=None):
        return np.where(has_rtp, rows[name] if values is None else values,
                        NO_RTP)

    n = len(rows)
    cols = PacketColumns(
        np.ascontiguousarray(rows["ts_us"]),
        np.ascontiguousarray(rows["udp_payload_len"]), column("rtp_pt"),
        column("rtp_ts"), column("rtp_marker", rows["rtp_marker"] != 0),
        column("rtp_seq"), np.full(n, NO_CLASS, dtype=np.int64))
    fields = RecordFields(
        rows["src_ip"], rows["dst_ip"], rows["src_port"], rows["dst_port"],
        column("rtp_ssrc"), np.full(n, 0x80, dtype=np.int64),
        np.full(n, RTP_FIXED_HEADER_LEN, dtype=np.int64), np.empty(n, object))
    if session_id is None:
        session_id = os.path.splitext(os.path.basename(path))[0]
        session_id = session_id.removesuffix(".packets")
    return Session(session_id, vca_label, columns=cols, fields=fields)


PACKET_ROW_DTYPE = np.dtype([(name, object if name.endswith("_ip")
                              else np.int64)
                             for name in PACKET_CSV_HEADER])


def _load_packet_rows(lines):
    """Packet CSV rows (no header) as a PACKET_ROW_DTYPE array; blank lines
    are skipped. Raises ValueError on a row that does not parse."""
    with warnings.catch_warnings():
        # a file without rows is reported by the caller
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=PACKET_ROW_DTYPE, delimiter=",",
                          comments=None, quotechar='"', ndmin=1)


def _first_bad_row(path):
    """(1-based line, message) of the first packet CSV row that does not
    parse."""
    with open(path, newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1:
                continue
            try:
                _load_packet_rows([line])
            except ValueError as exc:
                return line_no, str(exc)
    return line_no, "unparsable rows"


def write_packet_csv(session, path):
    cols, f = session.columns, session.fields
    _atomic_write_csv(path, PACKET_CSV_HEADER, zip(
        cols.arrival_us.tolist(), _addresses(f.src_ip), _addresses(f.dst_ip),
        f.src_port.tolist(), f.dst_port.tolist(), cols.payload_len.tolist(),
        cols.rtp_pt.tolist(), cols.rtp_seq.tolist(), cols.rtp_ts.tolist(),
        cols.rtp_marker.tolist(), f.rtp_ssrc.tolist()))


def read_ground_truth_csv(path, session_id=None):
    """Read the per-second QoE ground-truth CSV. frame_height=-1 means
    unknown; nan for any missing float metric."""
    rows = []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRUTH_CSV_HEADER:
            raise BadHeader(f"expected {','.join(TRUTH_CSV_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t_sec = int(row[0])
                fps, br, jit = (float(row[1]), float(row[2]), float(row[3]))
                height = int(row[4])
            except (ValueError, IndexError) as exc:
                raise BadRow(line_no, str(exc)) from exc
            if t_sec in seen:
                raise DuplicateSecond(f"t_sec={t_sec} repeated")
            seen.add(t_sec)
            rows.append(QoeWindow(
                window_start=t_sec,
                fps=None if math.isnan(fps) else fps,
                bitrate_kbps=None if math.isnan(br) else br,
                frame_jitter_ms=None if math.isnan(jit) else jit,
                frame_height=None if height < 0 else height))
    rows.sort(key=lambda r: r.window_start)
    sid = session_id or os.path.splitext(os.path.basename(path))[0]
    return GroundTruthSeries(sid, rows)


def truth_cells(row):
    """A QoeWindow's metric cells in the ground-truth CSV schema."""
    def fmt(v):
        return "nan" if v is None else f"{v:.6f}"
    return [fmt(row.fps), fmt(row.bitrate_kbps), fmt(row.frame_jitter_ms),
            -1 if row.frame_height is None else row.frame_height]


def write_ground_truth_csv(rows, path):
    """Write QoeWindow rows in the ground-truth CSV schema."""
    _atomic_write_csv(path, TRUTH_CSV_HEADER, [
        [r.window_start] + truth_cells(r)
        for r in sorted(rows, key=lambda r: r.window_start)])


def _atomic_write_bytes(path, blob):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())
