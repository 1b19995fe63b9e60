import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from vcaqoe import ingest
from vcaqoe.ingest import (BadHeader, BadMagic, BadRow, DuplicateSecond,
                           IngestError, Truncated, read_ground_truth_csv,
                           read_packet_csv, read_pcap, write_ground_truth_csv,
                           write_packet_csv, write_pcap)
from vcaqoe.session import (NO_CLASS, NO_HEIGHT, NO_RTP, PacketColumns,
                            PacketRecord, RecordFields, RtpHeader, Session,
                            WindowTable, ipv4)
from vcaqoe.synth import SenderProfile, generate

from reference import ref_pcap_bytes, ref_tcp_frame, ref_udp_frame


def write_ref_pcap(path, frames, magic=0xA1B2C3D4, endian="<"):
    path.write_bytes(ref_pcap_bytes(frames, magic, endian))


def test_read_pcap_three_udp(tmp_path):
    p = tmp_path / "t.pcap"
    frames = [(100, i * 10, ref_udp_frame("10.0.0.1", "10.0.0.2", 4000 + i,
                                          5000, b"\x00" * (50 + i)))
              for i in range(3)]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert len(s.packets) == 3
    assert [pk.arrival_us for pk in s.packets] == [100_000_000,
                                                  100_000_010, 100_000_020]
    assert [pk.payload_len for pk in s.packets] == [50, 51, 52]
    assert s.packets[0].src_port == 4000 and s.packets[0].dst_port == 5000
    assert s.packets[0].src_ip == "10.0.0.1"


def test_read_pcap_skips_tcp(tmp_path):
    p = tmp_path / "t.pcap"
    frames = [(1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)),
              (1, 5, ref_tcp_frame()),
              (1, 9, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"y" * 30))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert len(s.packets) == 2
    assert s.skipped_count == 1


def test_read_pcap_skips_non_first_fragments(tmp_path):
    p = tmp_path / "t.pcap"
    more_fragments = 0x2000
    frames = [(1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)),
              # first fragment: offset 0, more fragments follow
              (1, 5, ref_udp_frame("1.1.1.1", "2.2.2.2", 3, 4, b"y" * 40,
                                   flags_frag=more_fragments)),
              # later fragments: their first bytes are payload, not UDP
              (1, 7, ref_udp_frame("1.1.1.1", "2.2.2.2", 5, 6, b"z" * 30,
                                   flags_frag=more_fragments | 6)),
              (1, 9, ref_udp_frame("1.1.1.1", "2.2.2.2", 7, 8, b"w" * 30,
                                   flags_frag=0x1FFF))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert [pk.src_port for pk in s.packets] == [1, 3]
    assert s.skipped_count == 2


def test_read_pcap_sorts_by_arrival_and_clamps_short_udp_length(tmp_path):
    p = tmp_path / "t.pcap"
    short = bytearray(ref_udp_frame("1.1.1.1", "2.2.2.2", 3, 4, b"y" * 20))
    struct.pack_into(">H", short, 14 + 20 + 4, 4)   # below the UDP header
    frames = [(2, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)),
              (1, 0, bytes(short)),
              (2, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 5, 6, b"z" * 10))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert [pk.src_port for pk in s.packets] == [3, 1, 5]
    assert [pk.payload_len for pk in s.packets] == [0, 30, 10]
    assert s.packets[0].rtp is None


def test_read_pcap_bad_magic(tmp_path):
    p = tmp_path / "t.pcap"
    write_ref_pcap(p, [], magic=0xDEADBEEF)
    with pytest.raises(BadMagic):
        read_pcap(str(p))


def test_read_pcap_truncated_record(tmp_path):
    p = tmp_path / "t.pcap"
    frame = ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)
    blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    blob += struct.pack("<IIII", 1, 0, len(frame) + 10, len(frame) + 10)
    blob += frame
    p.write_bytes(blob)
    with pytest.raises(Truncated):
        read_pcap(str(p))


@pytest.mark.parametrize("fault", ["magic", "record", "link", "no udp"])
def test_read_pcap_errors_name_the_file(tmp_path, fault):
    p = tmp_path / "bad.pcap"
    frame = ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)
    blob = {"magic": ref_pcap_bytes([], magic=0xDEADBEEF),
            "record": ref_pcap_bytes([(1, 0, frame)])[:-5],
            "link": ref_pcap_bytes([])[:20] + struct.pack("<I", 101),
            "no udp": ref_pcap_bytes([(1, 0, ref_tcp_frame())])}[fault]
    p.write_bytes(blob)
    with pytest.raises(IngestError) as exc:
        read_pcap(str(p))
    assert str(exc.value).startswith(f"{p}: ")
    assert type(exc.value).__name__ == {
        "magic": "BadMagic", "record": "Truncated",
        "link": "UnsupportedLinkType", "no udp": "Empty"}[fault]


def test_read_pcap_attaches_rtp(tmp_path):
    p = tmp_path / "t.pcap"
    rtp = bytes.fromhex("80660001000000c800000001") + b"\x00" * 600
    frames = [(1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, rtp))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert s.packets[0].rtp is not None
    assert s.packets[0].rtp.payload_type == 102


def _three_frames():
    return [(100 + i, 7_000 * i, ref_udp_frame("10.0.0.1", "10.0.0.2",
                                               4000 + i, 5000,
                                               b"\x00" * (50 + i)))
            for i in range(3)]


def test_read_pcap_big_endian(tmp_path):
    p = tmp_path / "t.pcap"
    write_ref_pcap(p, _three_frames(), endian=">")
    s = read_pcap(str(p))
    assert s.columns.arrival_us.tolist() == [100_000_000, 101_007_000,
                                             102_014_000]
    assert s.columns.payload_len.tolist() == [50, 51, 52]
    assert s.fields.src_port.tolist() == [4000, 4001, 4002]


def test_read_pcap_nanosecond_timestamps(tmp_path):
    p = tmp_path / "t.pcap"
    frame = ref_udp_frame("10.0.0.1", "10.0.0.2", 1, 2, b"x" * 30)
    write_ref_pcap(p, [(5, 999_999_999, frame), (6, 1_500, frame)],
                   magic=0xA1B23C4D)
    s = read_pcap(str(p))
    assert s.columns.arrival_us.tolist() == [5_999_999, 6_000_001]


def test_read_pcap_ipv4_options(tmp_path):
    p = tmp_path / "t.pcap"
    rtp = bytes.fromhex("80e6000700000bb800000001") + b"\x00" * 100
    frames = [(1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1234, 5678, rtp,
                                   ip_options=b"\x01" * 4))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert s.fields.src_port.tolist() == [1234]
    assert s.fields.dst_port.tolist() == [5678]
    assert s.columns.payload_len.tolist() == [112]
    assert s.packets[0].rtp.payload_type == 102
    assert s.packets[0].rtp.marker
    assert s.packets[0].rtp.sequence == 7
    assert s.packets[0].rtp.timestamp == 3000


@pytest.mark.parametrize("size", [0, 23])
def test_read_pcap_short_file_is_truncated(tmp_path, size):
    p = tmp_path / "t.pcap"
    p.write_bytes(ref_pcap_bytes([])[:size])
    with pytest.raises(Truncated):
        read_pcap(str(p))


def test_read_pcap_skips_snap_truncated_last_record(tmp_path):
    p = tmp_path / "t.pcap"
    frame = ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)
    blob = ref_pcap_bytes([(1, 0, frame)])
    blob += struct.pack("<IIII", 1, 5, 30, len(frame)) + frame[:30]
    p.write_bytes(blob)
    s = read_pcap(str(p))
    assert s.fields.src_port.tolist() == [1]
    assert s.skipped_count == 1


def _read_through_fifo(tmp_path, blob):
    """read_pcap of a FIFO that a thread writes blob into."""
    p = tmp_path / "cap.pcap"
    os.mkfifo(p)

    def feed():
        with open(p, "wb") as fh:
            fh.write(blob)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read_pcap(str(p))
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_read_pcap_reads_a_fifo(tmp_path):
    s = _read_through_fifo(tmp_path, ref_pcap_bytes(_three_frames()))
    assert s.columns.payload_len.tolist() == [50, 51, 52]
    assert s.session_id == "cap.pcap"


@pytest.mark.parametrize("last_second", [2, 200], ids=["unsorted", "sorted"])
def test_read_pcap_returns_arrays_that_own_their_memory(tmp_path,
                                                        last_second):
    p = tmp_path / "t.pcap"
    rtp = bytes.fromhex("81660001000000c800000001") + b"\x00" * 40
    write_ref_pcap(p, _three_frames() + [
        (last_second, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, rtp))])
    s = read_pcap(str(p))
    for rows in (s.columns, s.fields):
        for f in fields(rows):
            base = getattr(rows, f.name)
            while base is not None:
                assert isinstance(base, np.ndarray), f.name
                base = base.base


def test_read_pcap_skips_a_short_ipv4_header(tmp_path):
    # an IHL below 5 words would put the "UDP header" on the IPv4 addresses
    p = tmp_path / "t.pcap"
    short = bytearray(ref_udp_frame("1.1.1.1", "2.2.2.2", 3, 4, b"y" * 30))
    short[14] = 0x42
    write_ref_pcap(p, [
        (1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)),
        (1, 5, bytes(short))])
    s = read_pcap(str(p))
    assert s.fields.src_port.tolist() == [1]
    assert s.columns.payload_len.tolist() == [30]
    assert s.skipped_count == 1


@pytest.mark.parametrize("cut,said", [
    (0, "pcap global header incomplete"),
    (23, "pcap global header incomplete"),
    (24 + 10, "record header incomplete"),
    (-5, "record shorter than declared length")])
def test_read_pcap_fifo_cut_short_is_truncated(tmp_path, cut, said):
    blob = ref_pcap_bytes(_three_frames())
    with pytest.raises(Truncated) as exc:
        _read_through_fifo(tmp_path, blob[:cut])
    assert str(exc.value) == f"{tmp_path / 'cap.pcap'}: {said}"


@pytest.mark.parametrize("chunk_bytes", [64, None], ids=["small", "default"])
def test_read_pcap_huge_declared_length_is_truncated(tmp_path, monkeypatch,
                                                     chunk_bytes):
    # the buffer grows with the bytes read, never to a declared length
    if chunk_bytes is not None:
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk_bytes)
    p = tmp_path / "t.pcap"
    frame = ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, b"x" * 30)
    p.write_bytes(ref_pcap_bytes([])
                  + struct.pack("<IIII", 1, 0, 0xFFFFFFF0, 0xFFFFFFF0) + frame)
    tracemalloc.start()
    try:
        with pytest.raises(Truncated) as exc:
            read_pcap(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == f"{p}: record shorter than declared length"
    assert peak < 2 * ingest._CHUNK_BYTES + (1 << 20)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident size from /proc")
def test_read_pcap_memory_is_bounded_by_its_buffer(tmp_path):
    # about 40 MB of 1,200-byte payloads: the capture must not become part
    # of the reading process's resident memory
    n = 32_000
    arrival_us = 10**9 + 1_000 * np.arange(n)
    none = np.full(n, NO_RTP)
    cols = PacketColumns(arrival_us, np.full(n, 1_200), none, none, none,
                         none, np.full(n, NO_CLASS))
    fields_ = RecordFields(np.full(n, ipv4("10.0.0.1")),
                           np.full(n, ipv4("10.0.0.2")), np.full(n, 4000),
                           np.full(n, 5000), none, none, none,
                           np.empty(n, object))
    p = tmp_path / "big.pcap"
    write_pcap(Session("big", "", columns=cols, fields=fields_), str(p))
    size = p.stat().st_size
    assert size > 40_000_000
    # the peak resident size of the reading process itself: ru_maxrss
    # would count this process's size at the fork, which exec keeps
    script = (
        "import sys\n"
        "from vcaqoe.ingest import read_pcap\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) * 1024 for line in fh\n"
        "                    if line.startswith('VmHWM:'))\n"
        "before = peak()\n"
        "n = len(read_pcap(sys.argv[1]))\n"
        "print(n, peak() - before)\n")
    src = os.path.dirname(os.path.dirname(ingest.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script, str(p)], env=env,
                         capture_output=True, text=True, check=True).stdout
    packets, grown = map(int, out.split())
    assert packets == n
    assert grown < size / 2


def test_write_pcap_keeps_csrcs_and_padding(tmp_path):
    p = tmp_path / "t.pcap"
    # version 2, padding bit, 2 CSRCs; then marker, payload type 102
    with_csrcs = (bytes.fromhex("a2e6000700000bb800001111")
                  + struct.pack(">II", 0xAAAA0001, 0xBBBB0002) + b"\x00" * 600)
    plain = bytes.fromhex("80660008000000c800001111") + b"\x00" * 40
    write_ref_pcap(p, [
        (1, 0, ref_udp_frame("10.0.0.1", "10.0.0.2", 1, 2, with_csrcs)),
        (1, 5, ref_udp_frame("10.0.0.1", "10.0.0.2", 1, 2, plain)),
        (1, 9, ref_udp_frame("10.0.0.1", "10.0.0.2", 3, 4, b"\x00" * 30))])
    first = read_pcap(str(p))
    rtp = first.packets[0].rtp
    assert rtp.padding and rtp.csrcs == (0xAAAA0001, 0xBBBB0002)
    assert rtp.header_len == 20 and first.packets[2].rtp is None
    again = tmp_path / "again.pcap"
    write_pcap(first, str(again))
    assert read_pcap(str(again)).packets == first.packets


def test_write_pcap_rejects_rtp_extension(tmp_path):
    rtp = RtpHeader(2, False, True, False, 0, 102, 1, 1, 1, header_len=16)
    session = Session("s", "", [PacketRecord(1, "1.1.1.1", "2.2.2.2", 1, 2,
                                             100, rtp)])
    with pytest.raises(ValueError):
        write_pcap(session, str(tmp_path / "t.pcap"))


def test_write_pcap_matches_reference_bytes(tmp_path):
    # the MAC addresses write_pcap puts on every frame
    macs = b"\x02" * 6 + b"\x04" * 6
    # (arrival µs, ports, payload_len, RtpHeader, the header's bytes)
    rows = [
        (1_000_000, 1, 2, 600, RtpHeader(
            2, False, False, True, 2, 102, 7, 0x1_0000_0BB8, 0x1111,
            (0xAAAA0001, 0xBBBB0002), 20),
         bytes.fromhex("82e6000700000bb800001111aaaa0001bbbb0002")),
        (1_000_005, 1, 2, 40, RtpHeader(
            2, True, False, False, 0, 102, 0x1_0008, 3000, 0x1111),
         bytes.fromhex("a066000800000bb800001111")),
        (2_000_000, 3, 4, 30, None, b""),
    ]
    frames = []
    for arrival, sport, dport, plen, _rtp, raw in rows:
        frame = bytearray(ref_udp_frame("10.0.0.1", "192.168.7.200", sport,
                                        dport, raw.ljust(plen, b"\x00"),
                                        macs=macs))
        struct.pack_into(">H", frame, 14 + 20 + 4, 8 + plen)
        frames.append((arrival // 1_000_000, arrival % 1_000_000,
                       bytes(frame)))
    expected = tmp_path / "expected.pcap"
    write_ref_pcap(expected, frames)

    # string address columns, then int ones as read_pcap gives them
    by_name = Session("s", "", [
        PacketRecord(arrival, "10.0.0.1", "192.168.7.200", sport, dport,
                     plen, rtp)
        for arrival, sport, dport, plen, rtp, _raw in rows])
    by_number = Session("s", "", columns=by_name.columns, fields=replace(
        by_name.fields, src_ip=np.full(len(rows), 0x0A000001),
        dst_ip=np.full(len(rows), 0xC0A807C8)))
    for session in (by_name, by_number):
        out = tmp_path / "out.pcap"
        write_pcap(session, str(out))
        assert out.read_bytes() == expected.read_bytes()


def test_write_pcap_rejects_rtp_extension_before_creating_a_file(tmp_path):
    plain = RtpHeader(2, False, False, False, 0, 102, 1, 1, 1)
    extended = replace(plain, extension=True, header_len=16)
    session = Session("s", "", [
        PacketRecord(1, "1.1.1.1", "2.2.2.2", 1, 2, 100, plain),
        PacketRecord(2, "1.1.1.1", "2.2.2.2", 1, 2, 100, extended)])
    with pytest.raises(ValueError, match="extension"):
        write_pcap(session, str(tmp_path / "t.pcap"))
    assert list(tmp_path.iterdir()) == []


def test_write_pcap_rejects_payload_shorter_than_its_header(tmp_path):
    # 9 payload bytes cannot hold a 16-byte header (one CSRC)
    short = RtpHeader(2, False, False, False, 1, 111, 9, 3100, 0x2222,
                      (0x3333,), 16)
    session = Session("s", "", [
        PacketRecord(1, "1.1.1.1", "2.2.2.2", 1, 2, 16, short),
        PacketRecord(2, "1.1.1.1", "2.2.2.2", 5, 6, 9, short)])
    with pytest.raises(ValueError, match="shorter than its RTP header"):
        write_pcap(session, str(tmp_path / "t.pcap"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("column, value", [
    ("arrival_us", -1), ("arrival_us", 2**32 * 1_000_000),
    ("payload_len", -1), ("payload_len", 65_508), ("src_port", 65_536),
    ("dst_port", -1), ("src_ip", 2**32)])
def test_write_pcap_rejects_values_that_do_not_fit(tmp_path, column, value):
    session = Session("s", "", [
        PacketRecord(1, "1.1.1.1", "2.2.2.2", 1, 2, 100)])
    cols, f = session.columns, session.fields
    if hasattr(cols, column):
        cols = replace(cols, **{column: np.array([value])})
    else:
        f = replace(f, **{column: np.array([value])})
    with pytest.raises(ValueError):
        write_pcap(Session("s", "", columns=cols, fields=f),
                   str(tmp_path / "t.pcap"))
    assert list(tmp_path.iterdir()) == []


def test_packet_csv_roundtrip(tmp_path):
    csv_path = tmp_path / "x.csv"
    csv_path.write_text(
        "ts_us,src_ip,dst_ip,src_port,dst_port,udp_payload_len,"
        "rtp_pt,rtp_seq,rtp_ts,rtp_marker,rtp_ssrc\n"
        "1000,1.1.1.1,2.2.2.2,10,20,600,102,5,3000,1,77\n"
        "2000,1.1.1.1,2.2.2.2,10,20,120,-1,-1,-1,-1,-1\n")
    s = read_packet_csv(str(csv_path))
    assert len(s.packets) == 2
    assert s.packets[0].rtp.sequence == 5 and s.packets[0].rtp.marker
    assert s.packets[1].rtp is None


def test_packet_csv_addresses_read_as_integers(tmp_path):
    header = ("ts_us,src_ip,dst_ip,src_port,dst_port,udp_payload_len,"
              "rtp_pt,rtp_seq,rtp_ts,rtp_marker,rtp_ssrc\n")
    rows = ["3000,0.0.0.0,2.2.2.2,10,20,600,102,5,3000,1,77\n",
            "1000,255.255.255.255,2.2.2.2,10,20,120,-1,-1,-1,-1,-1\n",
            "2000,10.0.0.2,\"192.0.2.10\",10,20,120,-1,-1,-1,-1,-1\n"]
    path = tmp_path / "x.packets.csv"
    path.write_text(header + "".join(rows))
    session = read_packet_csv(str(path))
    assert session.fields.src_ip.dtype == np.int64
    assert session.fields.src_ip.tolist() == [0xFFFFFFFF, 0x0A000002, 0]
    assert session.fields.dst_ip.tolist() == [0x02020202, 0xC000020A,
                                              0x02020202]
    assert [(p.src_ip, p.dst_ip) for p in session.packets] == [
        ("255.255.255.255", "2.2.2.2"), ("10.0.0.2", "192.0.2.10"),
        ("0.0.0.0", "2.2.2.2")]
    out = tmp_path / "out.packets.csv"
    write_packet_csv(session, str(out))
    assert out.read_text() == header + "".join(
        row.replace('"', "") for row in (rows[1], rows[2], rows[0]))


def test_packet_csv_bad_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("ts,stuff\n1,2\n")
    with pytest.raises(BadHeader):
        read_packet_csv(str(p))


def test_packet_csv_bad_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(
        "ts_us,src_ip,dst_ip,src_port,dst_port,udp_payload_len,"
        "rtp_pt,rtp_seq,rtp_ts,rtp_marker,rtp_ssrc\n"
        "abc,1.1.1.1,2.2.2.2,10,20,600,-1,-1,-1,-1,-1\n")
    with pytest.raises(BadRow) as exc:
        read_packet_csv(str(p))
    assert exc.value.line_no == 2


def test_packet_csv_sorts_rows_and_counts_blank_lines(tmp_path):
    p = tmp_path / "x.csv"
    header = ("ts_us,src_ip,dst_ip,src_port,dst_port,udp_payload_len,"
              "rtp_pt,rtp_seq,rtp_ts,rtp_marker,rtp_ssrc\n")
    p.write_text(header
                 + "2000,1.1.1.1,2.2.2.2,10,20,120,-1,-1,-1,-1,-1\n\n"
                 + "1000,1.1.1.1,2.2.2.2,11,20,600,102,5,3000,1,77\n"
                 + "2000,1.1.1.1,2.2.2.2,12,20,130,-1,-1,-1,-1,-1\n")
    assert [pk.src_port for pk in read_packet_csv(str(p)).packets] == [
        11, 10, 12]
    p.write_text(header
                 + "1000,1.1.1.1,2.2.2.2,11,20,600,102,5,3000,1,77\n\n\n"
                 + "2000,1.1.1.1,2.2.2.2,12,20,x,-1,-1,-1,-1,-1\n")
    with pytest.raises(BadRow) as exc:
        read_packet_csv(str(p))
    assert exc.value.line_no == 5


def test_packet_csv_in_arrival_order_reads_as_an_unordered_copy(tmp_path):
    session, _truth, _log = generate(SenderProfile(), 4.0, seed=9)
    ordered, unordered = tmp_path / "a.packets.csv", tmp_path / "b.packets.csv"
    write_packet_csv(session, str(ordered))
    header, *lines = ordered.read_text().splitlines()
    ts = [int(line.split(",")[0]) for line in lines]
    k = next(i for i in range(len(ts) // 2, len(ts)) if ts[i] > ts[i - 1])
    unordered.write_text("\n".join([header] + lines[k:] + lines[:k]) + "\n")
    a, b = read_packet_csv(str(ordered)), read_packet_csv(str(unordered))
    assert a.columns.arrival_us.tolist() == sorted(ts)
    for rows in ("columns", "fields"):
        for f in fields(getattr(a, rows)):
            assert (getattr(getattr(a, rows), f.name).tolist()
                    == getattr(getattr(b, rows), f.name).tolist()), f.name


def test_ground_truth_csv(tmp_path):
    p = tmp_path / "t.csv"
    lines = ["t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height"]
    lines += [f"{100 + i},30.0,800.0,1.5,720" for i in range(10)]
    p.write_text("\n".join(lines) + "\n")
    g = read_ground_truth_csv(str(p))
    assert len(g.rows) == 10
    assert g.rows.window_start[0] == 100 and g.rows.frame_height[0] == 720


def test_ground_truth_duplicate_second(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
                 "100,30,800,1,720\n100,29,790,1,720\n")
    with pytest.raises(DuplicateSecond):
        read_ground_truth_csv(str(p))


def test_ground_truth_missing_height(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
                 "100,30,800,nan,-1\n")
    g = read_ground_truth_csv(str(p))
    assert g.rows.frame_height[0] == NO_HEIGHT
    assert np.isnan(g.rows.frame_jitter_ms[0])


def test_pcap_csv_same_session(tmp_path):
    sess, _truth_series, _log = generate(SenderProfile(audio_pps=5.0), 3.0,
                                         seed=9)
    pcap_path = tmp_path / "s.pcap"
    csv_path = tmp_path / "s.csv"
    write_pcap(sess, str(pcap_path))
    write_packet_csv(sess, str(csv_path))
    from_pcap = read_pcap(str(pcap_path))
    from_csv = read_packet_csv(str(csv_path))
    assert len(from_pcap.packets) == len(from_csv.packets) == len(sess.packets)
    for a, b in zip(from_pcap.packets, from_csv.packets):
        assert (a.arrival_us, a.src_ip, a.dst_ip, a.src_port, a.dst_port,
                a.payload_len) == (b.arrival_us, b.src_ip, b.dst_ip,
                                   b.src_port, b.dst_port, b.payload_len)
        assert (a.rtp.payload_type, a.rtp.sequence, a.rtp.timestamp,
                a.rtp.marker) == (b.rtp.payload_type, b.rtp.sequence,
                                  b.rtp.timestamp, b.rtp.marker)


def test_truth_csv_roundtrip(tmp_path):
    rows = WindowTable(np.array([5, 6]), np.array([30.0, 29.0]),
                       np.array([812.5, 800.0]), np.array([np.nan, 2.25]),
                       np.array([720, NO_HEIGHT]))
    p = tmp_path / "t.csv"
    write_ground_truth_csv(rows, str(p))
    back = read_ground_truth_csv(str(p))
    assert np.isnan(back.rows.frame_jitter_ms[0])
    assert back.rows.frame_height[0] == 720
    assert back.rows.frame_height[1] == NO_HEIGHT
    assert back.rows.frame_jitter_ms[1] == pytest.approx(2.25)
