import struct

import pytest

from vcaqoe.ingest import (BadHeader, BadMagic, BadRow, DuplicateSecond,
                           GroundTruthSeries, NoOverlap, SessionFiltered,
                           Truncated, align, read_ground_truth_csv,
                           read_packet_csv, read_pcap, write_ground_truth_csv,
                           write_packet_csv, write_pcap)
from vcaqoe.session import PacketRecord, QoeWindow, Session
from vcaqoe.synth import SenderProfile, generate


# --- reference pcap writer, independent of the package's own -------------

def ref_udp_frame(src_ip, dst_ip, sport, dport, payload, flags_frag=0):
    eth = b"\xaa" * 12 + struct.pack(">H", 0x0800)
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    ip = (struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(udp), 0, flags_frag, 64,
                      17, 0)
          + bytes(int(x) for x in src_ip.split("."))
          + bytes(int(x) for x in dst_ip.split(".")))
    return eth + ip + udp


def ref_tcp_frame():
    eth = b"\xaa" * 12 + struct.pack(">H", 0x0800)
    ip = (struct.pack(">BBHHHBBH", 0x45, 0, 40, 0, 0, 64, 6, 0)
          + b"\x0a\x00\x00\x01" + b"\x0a\x00\x00\x02")
    return eth + ip + b"\x00" * 20


def write_ref_pcap(path, frames, magic=0xA1B2C3D4):
    blob = struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for ts_sec, ts_us, frame in frames:
        blob += struct.pack("<IIII", ts_sec, ts_us, len(frame), len(frame))
        blob += frame
    path.write_bytes(blob)


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


def test_read_pcap_attaches_rtp(tmp_path):
    p = tmp_path / "t.pcap"
    rtp = bytes.fromhex("80660001000000c800000001") + b"\x00" * 600
    frames = [(1, 0, ref_udp_frame("1.1.1.1", "2.2.2.2", 1, 2, rtp))]
    write_ref_pcap(p, frames)
    s = read_pcap(str(p))
    assert s.packets[0].rtp is not None
    assert s.packets[0].rtp.payload_type == 102


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


def test_ground_truth_csv(tmp_path):
    p = tmp_path / "t.csv"
    lines = ["t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height"]
    lines += [f"{100 + i},30.0,800.0,1.5,720" for i in range(10)]
    p.write_text("\n".join(lines) + "\n")
    g = read_ground_truth_csv(str(p))
    assert len(g.rows) == 10
    assert g.rows[0].window_start == 100 and g.rows[0].frame_height == 720


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
    assert g.rows[0].frame_height is None
    assert g.rows[0].frame_jitter_ms is None


def _session_spanning(start_us, end_us):
    packets = [PacketRecord(start_us, "1.1.1.1", "2.2.2.2", 1, 2, 700),
               PacketRecord(end_us, "1.1.1.1", "2.2.2.2", 1, 2, 700)]
    return Session("s", "", packets)


def _truth(first, last):
    rows = [QoeWindow(window_start=t, fps=30.0) for t in range(first, last + 1)]
    return GroundTruthSeries("s", rows)


def test_align_drops_partial_edges():
    sess = _session_spanning(100_200_000, 110_800_000)
    pairs = align(sess, _truth(100, 110))
    assert [p.window_start for p in pairs] == list(range(101, 110))


def test_align_rejects_truth_deficit():
    sess = _session_spanning(100_200_000, 110_800_000)
    rows = [QoeWindow(window_start=t, fps=30.0)
            for t in (100, 102, 104, 106, 110)]
    with pytest.raises(SessionFiltered):
        align(sess, GroundTruthSeries("s", rows))


def test_align_no_overlap():
    sess = _session_spanning(100_200_000, 110_800_000)
    with pytest.raises(NoOverlap):
        align(sess, _truth(500, 510))


def test_align_offset_shifts_truth():
    sess = _session_spanning(100_200_000, 110_800_000)
    pairs = align(sess, _truth(90, 100), offset_s=11)
    assert [p.window_start for p in pairs] == list(range(101, 110))


def test_align_keys_subset_of_inputs():
    sess = _session_spanning(100_200_000, 110_800_000)
    truth = _truth(105, 120)
    pairs = align(sess, truth)
    keys = {p.window_start for p in pairs}
    assert keys <= {r.window_start for r in truth.rows}
    assert all(100 <= k <= 110 for k in keys)


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
    rows = [QoeWindow(window_start=5, fps=30.0, bitrate_kbps=812.5,
                      frame_jitter_ms=None, frame_height=720),
            QoeWindow(window_start=6, fps=29.0, bitrate_kbps=800.0,
                      frame_jitter_ms=2.25, frame_height=None)]
    p = tmp_path / "t.csv"
    write_ground_truth_csv(rows, str(p))
    back = read_ground_truth_csv(str(p))
    assert back.rows[0].frame_jitter_ms is None
    assert back.rows[0].frame_height == 720
    assert back.rows[1].frame_height is None
    assert back.rows[1].frame_jitter_ms == pytest.approx(2.25)
