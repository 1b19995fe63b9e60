"""Trace and ground-truth readers and writers.

Supported inputs: classic pcap (Ethernet link type, IPv4/UDP only), the
packet CSV schema, and the per-second ground-truth CSV schema. Every CSV
input of the package is parsed by read_csv_rows, and every CSV output is
written from columns by write_csv.
"""

from __future__ import annotations

import csv
import itertools
import os
import struct
import tempfile
import warnings
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .session import (MICROS_PER_S, NO_CLASS, NO_HEIGHT, NO_RTP,
                      RTP_FIXED_HEADER_LEN, PacketColumns, RecordFields,
                      Session, WindowTable, _addresses, _per_distinct, ipv4)

# Address cells are read as bytes, one wider than the longest dotted quad:
# np.loadtxt cuts a longer cell to the field's width, and a cut cell is
# still too long to pass for an address.
PACKET_ROW_DTYPE = np.dtype(
    [("ts_us", np.int64), ("src_ip", "S16"), ("dst_ip", "S16")]
    + [(name, np.int64) for name in (
        "src_port", "dst_port", "udp_payload_len", "rtp_pt", "rtp_seq",
        "rtp_ts", "rtp_marker", "rtp_ssrc")])
TRUTH_ROW_DTYPE = np.dtype([
    ("t_sec", np.int64), ("fps", np.float64), ("bitrate_kbps", np.float64),
    ("frame_jitter_ms", np.float64), ("frame_height", np.int64)])
PACKET_CSV_HEADER = list(PACKET_ROW_DTYPE.names)
TRUTH_CSV_HEADER = list(TRUTH_ROW_DTYPE.names)
# The format of a truth row's four metric cells; nan prints as nan.
TRUTH_CELLS = "{:.6f},{:.6f},{:.6f},{}"

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_ETHERNET = 1
# The bytes of a capture read_pcap reads into its buffer at a time. Below
# 1 MiB the per-buffer numpy steps cost more than they save.
_CHUNK_BYTES = 1 << 21


class IngestError(ValueError):
    pass


class BadMagic(IngestError):
    pass


class UnsupportedLinkType(IngestError):
    pass


class Truncated(IngestError):
    pass


class Empty(IngestError):
    pass


class BadRow(IngestError):
    """A line of a CSV input that does not parse, named by file, 1-based
    line (blank lines counted) and, when one is at fault, column."""

    def __init__(self, path, line_no, msg, column=None):
        at = "" if column is None else f", column {column}"
        super().__init__(f"{path}: line {line_no}{at}: {msg}")
        self.line_no = line_no


class BadHeader(BadRow):
    pass


class DuplicateSecond(IngestError):
    pass


@dataclass
class GroundTruthSeries:
    rows: WindowTable  # strictly increasing window_start


def read_pcap(path, vca_label=""):
    """Read a classic pcap file into a Session of IPv4/UDP packets, named
    after the file.

    Non-IPv4 and non-UDP packets, IPv4 fragments other than the first and
    IPv4 headers shorter than 20 bytes are skipped and counted on the
    returned session as ``skipped_count``. RTP parsing is attempted on
    every UDP payload and attached when it succeeds.

    The capture is read in bounded pieces into one reusable buffer of
    _CHUNK_BYTES: the whole records in the buffer are walked, their
    header fields gathered as numpy columns, and a record cut by the
    buffer's end is moved to its front before the next read. The buffer
    doubles only when a single record does not fit in it, so it grows
    with the bytes actually read, never to a declared record length. A
    FIFO that tcpdump writes into is read the same way as a regular file.
    A file that ends inside a record, also one truncated while it is
    read, is a Truncated error. Memory holds the buffer plus the columns.
    """
    with open(path, "rb", buffering=0) as fh:
        try:
            return _decode_pcap(fh, os.path.basename(path), vca_label)
        except IngestError as exc:
            raise type(exc)(f"{path}: {exc}") from None


def _decode_pcap(fh, session_id, vca_label):
    """The Session of read_pcap from an open binary capture file."""
    buf = bytearray(_CHUNK_BYTES)
    have = _fill(fh, buf, 0)
    if have < 24:
        raise Truncated("pcap global header incomplete")
    magic_le, = struct.unpack_from("<I", buf, 0)
    magic_be, = struct.unpack_from(">I", buf, 0)
    if magic_le in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian, magic = "<", magic_le
    elif magic_be in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian, magic = ">", magic_be
    else:
        raise BadMagic(f"unknown pcap magic 0x{magic_le:08x}")
    nanos = magic == PCAP_MAGIC_NS
    _vmaj, _vmin, _tz, _sig, _snap, network = struct.unpack_from(
        endian + "HHiIII", buf, 4)
    if network != LINKTYPE_ETHERNET:
        raise UnsupportedLinkType(f"link type {network} != Ethernet(1)")

    incl_len = struct.Struct(endian + "I").unpack_from
    parts = []      # (PacketColumns, RecordFields) of each buffer's records
    records = 0
    off = 24
    while True:
        at_end = have < len(buf)
        starts = []     # offset of each whole record's captured bytes
        append = starts.append
        while off + 16 <= have:
            append(off + 16)
            off += 16 + incl_len(buf, off + 8)[0]
        if off > have:  # the last record runs past the bytes read
            off = starts.pop() - 16
        records += len(starts)
        if starts:
            rows = _record_rows(buf, np.array(starts, dtype=np.int64),
                                endian, nanos)
            if len(rows[0]):
                parts.append(rows)
        if at_end:
            break
        rest = have - off
        if rest == len(buf):    # one record larger than the buffer
            buf += bytes(len(buf))
        buf[:rest] = buf[off:have]
        have, off = _fill(fh, buf, rest), 0
    if off + 16 <= have:
        raise Truncated("record shorter than declared length")
    if off < have:
        raise Truncated("record header incomplete")

    if not parts:
        raise Empty("no IPv4/UDP packets in capture")
    cols, fields = (_concat([part[i] for part in parts]) for i in (0, 1))
    if (cols.arrival_us[1:] < cols.arrival_us[:-1]).any():
        order = np.argsort(cols.arrival_us, kind="stable")
        cols, fields = cols.take(order), fields.take(order)
    sess = Session(session_id, vca_label, columns=cols, fields=fields)
    sess.skipped_count = records - len(cols)
    return sess


def _fill(fh, buf, have):
    """Read from fh into buf past its first have bytes until buf is full or
    the file ends; the count of bytes buf then holds."""
    with memoryview(buf) as view:
        while have < len(buf):
            n = fh.readinto(view[have:])
            if not n:
                break
            have += n
    return have


def _concat(parts):
    """The rows of a non-empty list of same-type _Rows, end to end."""
    return type(parts[0])(*(np.concatenate([getattr(p, f.name)
                                            for p in parts])
                            for f in dataclass_fields(parts[0])))


def _record_rows(data, rec, endian, nanos):
    """(PacketColumns, RecordFields) of the IPv4/UDP packets among the pcap
    records whose captured bytes start at offsets rec of data."""
    arrival_us = _gather(data, rec - 16, endian + "u4") * MICROS_PER_S
    frac = _gather(data, rec - 12, endian + "u4")
    arrival_us += frac // 1000 if nanos else frac
    caplen = _gather(data, rec - 8, endian + "u4")

    # Ethernet/IPv4/UDP with the whole UDP header captured, after an IPv4
    # header of at least 20 bytes; a fragment with a non-zero offset
    # carries no UDP header
    ok = caplen >= 14 + 20 + 8
    rec, caplen, arrival_us = rec[ok], caplen[ok], arrival_us[ok]
    vihl = _gather(data, rec + 14, "u1")
    udp = rec + 14 + (vihl & 0x0F) * 4
    ok = ((_gather(data, rec + 12, ">u2") == 0x0800) & (vihl >> 4 == 4)
          & (vihl & 0x0F >= 5) & (_gather(data, rec + 23, "u1") == 17)
          & (_gather(data, rec + 20, ">u2") & 0x1FFF == 0)
          & (udp + 8 <= rec + caplen))
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
    return cols, RecordFields(
        _gather(data, rec + 26, ">u4"), _gather(data, rec + 30, ">u4"),
        _gather(data, udp, ">u2"), _gather(data, udp + 2, ">u2"),
        rtp["ssrc"], rtp["b0"], rtp["header_len"], csrcs)


def _gather(data, offsets, dtype):
    """The values of a fixed-size dtype stored at byte offsets of data, as
    int64."""
    dtype = np.dtype(dtype)
    at_every_byte = np.ndarray((len(data) - dtype.itemsize + 1,), dtype,
                               buffer=data, strides=(1,))
    return at_every_byte[offsets].astype(np.int64)


def _rtp_columns(data, start, length):
    """RTP header columns of the payloads of length[i] captured bytes at
    start[i], NO_RTP where a payload holds no RTP header: one is version 2,
    at least 12 bytes, with its CSRC list and extension block inside the
    captured bytes. b0 is the header's first byte."""
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


# The bytes before a record's UDP payload: the pcap record header
# (little-endian), then Ethernet, IPv4 and UDP (network order).
PCAP_RECORD_DTYPE = np.dtype([
    ("ts_sec", "<u4"), ("ts_usec", "<u4"), ("incl_len", "<u4"),
    ("orig_len", "<u4"), ("ethernet", "u1", 14), ("ip_vihl", "u1"),
    ("ip_tos", "u1"), ("ip_len", ">u2"), ("ip_id", ">u2"),
    ("ip_frag", ">u2"), ("ip_ttl", "u1"), ("ip_proto", "u1"),
    ("ip_sum", ">u2"), ("ip_src", ">u4"), ("ip_dst", ">u4"),
    ("src_port", ">u2"), ("dst_port", ">u2"), ("udp_len", ">u2"),
    ("udp_sum", ">u2")])
RTP_HEADER_DTYPE = np.dtype([("b0", "u1"), ("b1", "u1"), ("seq", ">u2"),
                             ("ts", ">u4"), ("ssrc", ">u4")])
ETHERNET_HEADER = b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0800)


def write_pcap(session, path):
    """Write a Session back out as a classic pcap (µs) Ethernet capture.

    Payload bytes are the serialized RTP header (when present) padded with
    zeros to the payload length, so read_pcap round-trips the session.

    The session is encoded in whole-array steps: the record, Ethernet,
    IPv4, UDP and fixed RTP headers are filled column by column and stored
    into one zeroed buffer; only rows that carry a CSRC list are packed
    one by one. A row with the RTP extension bit or a payload length
    shorter than its RTP header, or a value that does not fit its header
    field, raises ValueError before the file is created.
    """
    cols, f = session.columns, session.fields
    rtp = np.flatnonzero(cols.rtp_pt != NO_RTP)
    b0 = f.rtp_b0[rtp]
    if (b0 & 0x10).any():
        raise ValueError("extension block serialization is unsupported")
    plen = cols.payload_len
    if (plen[rtp] < RTP_FIXED_HEADER_LEN + 4 * (b0 & 0x0F)).any():
        raise ValueError("payload length shorter than its RTP header")
    for name, values, top in (
            ("arrival second", cols.arrival_us // MICROS_PER_S, 0xFFFFFFFF),
            ("source address", f.src_ip, 0xFFFFFFFF),
            ("destination address", f.dst_ip, 0xFFFFFFFF),
            ("source port", f.src_port, 0xFFFF),
            ("destination port", f.dst_port, 0xFFFF),
            ("payload length", plen, 0xFFFF - 28)):
        if len(values) and not 0 <= values.min() <= values.max() <= top:
            raise ValueError(f"{name} does not fit its header field")

    rec = np.zeros(len(cols), PCAP_RECORD_DTYPE)
    rec["ts_sec"] = cols.arrival_us // MICROS_PER_S
    rec["ts_usec"] = cols.arrival_us % MICROS_PER_S
    rec["incl_len"] = rec["orig_len"] = 14 + 28 + plen
    rec["ethernet"] = np.frombuffer(ETHERNET_HEADER, np.uint8)
    rec["ip_vihl"], rec["ip_ttl"], rec["ip_proto"] = 0x45, 64, 17
    rec["ip_len"] = 28 + plen
    rec["ip_src"], rec["ip_dst"] = f.src_ip, f.dst_ip
    rec["src_port"], rec["dst_port"] = f.src_port, f.dst_port
    rec["udp_len"] = 8 + plen
    hdr = np.zeros(len(rtp), RTP_HEADER_DTYPE)
    hdr["b0"] = b0      # version, padding and CSRC count bits
    hdr["b1"] = (np.where(cols.rtp_marker[rtp] != 0, 0x80, 0)
                 | cols.rtp_pt[rtp] & 0x7F)
    hdr["seq"] = cols.rtp_seq[rtp] & 0xFFFF
    hdr["ts"] = cols.rtp_ts[rtp] & 0xFFFFFFFF
    hdr["ssrc"] = f.rtp_ssrc[rtp] & 0xFFFFFFFF

    size = PCAP_RECORD_DTYPE.itemsize + plen
    start = np.cumsum(size) - size + 24
    out = np.zeros(24 + int(size.sum()), np.uint8)
    out[:24] = np.frombuffer(struct.pack(
        "<IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET),
        np.uint8)
    _scatter(out, start, rec)
    payload = start + PCAP_RECORD_DTYPE.itemsize
    _scatter(out, payload[rtp], hdr)
    for i in rtp[b0 & 0x0F > 0].tolist():
        csrcs = struct.pack(f">{f.rtp_b0[i] & 0x0F}I",
                            *(f.rtp_csrcs[i] or ()))
        at = payload[i] + RTP_FIXED_HEADER_LEN
        out[at:at + len(csrcs)] = np.frombuffer(csrcs, np.uint8)
    _atomic_write_bytes(path, out)


def _scatter(out, offsets, values):
    """Store the rows of a fixed-size dtype array at byte offsets of out,
    a uint8 array; the inverse of _gather."""
    if not len(values):
        return
    raw = np.dtype(f"V{values.itemsize}")   # copied as bytes, field-blind
    at_every_byte = np.ndarray((len(out) - raw.itemsize + 1,), raw,
                               buffer=out, strides=(1,))
    at_every_byte[offsets] = values.view(raw)


def read_packet_csv(path, vca_label=""):
    """Read the packet CSV schema into a Session named after the file less
    its .csv and .packets suffixes, rows in stable ts_us order. RTP columns
    use -1 for absent. Addresses must be dotted quads (ipv4); they are held
    as integers, as read_pcap gives them."""
    rows = read_csv_rows(path, PACKET_ROW_DTYPE)
    if not len(rows):
        raise Empty(f"{path}: no packet rows")
    src_ip, dst_ip = (_ipv4_cells(path, rows, name)
                      for name in ("src_ip", "dst_ip"))
    if (rows["ts_us"][1:] < rows["ts_us"][:-1]).any():
        order = np.argsort(rows["ts_us"], kind="stable")
        rows, src_ip, dst_ip = rows[order], src_ip[order], dst_ip[order]
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
        src_ip, dst_ip, rows["src_port"], rows["dst_port"],
        column("rtp_ssrc"), np.full(n, 0x80, dtype=np.int64),
        np.full(n, RTP_FIXED_HEADER_LEN, dtype=np.int64), np.empty(n, object))
    session_id = os.path.splitext(os.path.basename(path))[0]
    return Session(session_id.removesuffix(".packets"), vca_label,
                   columns=cols, fields=fields)


def _ipv4_cells(path, rows, name):
    """A column of dotted-quad cells as int64 IPv4 addresses; a cell that
    is not a dotted quad is a BadRow."""
    def address(cell):
        try:
            return ipv4(cell.decode("latin-1"))
        except ValueError:
            line_no, row = csv_row(path, int(np.argmax(rows[name] == cell)))
            cell = row[PACKET_CSV_HEADER.index(name)]   # not cut to width
            raise BadRow(path, line_no, f"{cell!r} is not a dotted-quad "
                         "IPv4 address", name) from None
    return _per_distinct(rows[name], address)


def read_csv_header(path):
    """The cells of a CSV file's first line."""
    with open(path, newline="") as fh:
        return next(csv.reader([fh.readline()]), [])


def read_csv_rows(path, dtype):
    """The rows of a CSV file as a 1-D array of the structured dtype, whose
    field names the file's first line must list, in order.

    Blank lines are skipped; every other line must hold one cell per field:
    an integer for an integer field, a number (nan and inf included) for a
    float field, any text for an object field and latin-1 text for a bytes
    field, which np.loadtxt cuts to the field's width. Cells may be quoted
    with ".
    All rows are parsed in one numpy call. Only when that fails is the file
    scanned line by line, to raise a BadRow that names the first line that
    does not parse and the column at fault.
    """
    names = list(dtype.names)
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != names:
            j = next(j for j in range(len(header) + 1)
                     if header[j:j + 1] != names[j:j + 1])
            raise BadHeader(path, 1, f"header must be {','.join(names)}",
                            names[j] if j < len(names) else j + 1)
        try:
            return _parse_rows(fh, dtype)
        except ValueError:
            pass
    with open(path, newline="") as fh:
        for line_no, line in _data_lines(fh):
            try:
                _parse_rows([line], dtype)
            except ValueError as exc:
                raise _row_fault(path, line_no, line, dtype, exc) from None
    raise IngestError(f"{path}: rows do not parse")


def _parse_rows(lines, dtype):
    """CSV lines (no header) as an array of dtype; blank lines are skipped.
    Raises ValueError on a line that does not parse."""
    with warnings.catch_warnings():
        # a file without rows is an empty array
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1)


def _data_lines(fh):
    """(1-based line number, line) of each non-blank line below the header
    of an open CSV file, the rows _parse_rows reads."""
    fh.readline()
    return ((line_no, line) for line_no, line in enumerate(fh, start=2)
            if line.strip("\r\n"))


def _row_fault(path, line_no, line, dtype, exc):
    """The BadRow of a line that does not parse as a row of dtype."""
    names = dtype.names
    cells = next(csv.reader([line]))
    if len(cells) != len(names):    # name the first missing or extra cell
        column = (names[len(cells)] if len(cells) < len(names)
                  else len(names) + 1)
        return BadRow(path, line_no, f"{len(cells)} fields, header has "
                      f"{len(names)}", column)
    for name, cell in zip(names, cells):
        kind = dtype[name].kind
        if kind != "O" and not _parses(cell, dtype[name]):
            return BadRow(path, line_no, f"{cell!r} is not " + (
                "an integer" if kind in "iu" else "a number" if kind == "f"
                else "latin-1 text"), name)
    return BadRow(path, line_no, str(exc))


def _parses(cell, dtype):
    try:
        return len(_parse_rows([cell], dtype)) == 1
    except ValueError:
        return False


def csv_row(path, i):
    """(1-based line number, cells) of row i of a CSV file, rows counted
    from 0 below the header as read_csv_rows counts them."""
    with open(path, newline="") as fh:
        line_no, line = next(itertools.islice(_data_lines(fh), i, None))
    return line_no, next(csv.reader([line]))


def write_packet_csv(session, path):
    """Write a Session in the packet CSV schema, RTP columns -1 where a
    packet has no RTP header."""
    cols, f = session.columns, session.fields
    line = ",".join(["{}"] * len(PACKET_CSV_HEADER))
    write_csv(path, PACKET_CSV_HEADER, line, [
        cols.arrival_us.tolist(), _addresses(f.src_ip), _addresses(f.dst_ip),
        f.src_port.tolist(), f.dst_port.tolist(), cols.payload_len.tolist(),
        cols.rtp_pt.tolist(), cols.rtp_seq.tolist(), cols.rtp_ts.tolist(),
        cols.rtp_marker.tolist(), f.rtp_ssrc.tolist()])


def read_ground_truth_csv(path):
    """Read the per-second QoE ground-truth CSV. nan marks a missing float
    metric, and a negative frame_height (the schema writes -1) an unknown
    height, read as NO_HEIGHT."""
    rows = read_csv_rows(path, TRUTH_ROW_DTYPE)
    rows = rows[np.argsort(rows["t_sec"], kind="stable")]
    repeated = rows["t_sec"][1:][np.diff(rows["t_sec"]) == 0]
    if len(repeated):
        raise DuplicateSecond(f"{path}: t_sec={repeated[0]} repeated")
    return GroundTruthSeries(WindowTable(
        rows["t_sec"], rows["fps"], rows["bitrate_kbps"],
        rows["frame_jitter_ms"], np.maximum(rows["frame_height"], NO_HEIGHT)))


def write_ground_truth_csv(table, path):
    """Write a WindowTable in the ground-truth CSV schema."""
    write_csv(path, TRUTH_CSV_HEADER, "{}," + TRUTH_CELLS, [
        getattr(table, name).tolist()
        for name in ["window_start", *TRUTH_CSV_HEADER[1:]]])


def write_csv(path, header, line, columns):
    """Write a CSV file atomically: its header, then one line per row,
    line.format of the row's cells taken from columns, a list of
    equal-length lists."""
    _atomic_write_bytes(path, "".join(
        [",".join(header) + "\n", *map((line + "\n").format, *columns)]
    ).encode())


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
