import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from vcaqoe.ingest import write_ground_truth_csv, write_packet_csv, write_pcap
from vcaqoe.session import RTP_FIXED_HEADER_LEN, MediaClass, PacketRecord, \
    Session
from vcaqoe.synth import (HEIGHT_TIERS, MIN_PACKET_MEDIA, SEPARATION_MARGIN,
                          FrameLogEntry, ImpairmentProfile, InvalidProfile,
                          SenderProfile, generate, impair, read_frame_log_csv,
                          truth_from_frame_log, write_frame_log_csv)

from reference import fragment_sizes


def video_packets(session):
    return [p for p in session.packets
            if p.rtp is not None and p.rtp.payload_type == 102]


def test_frame_count_matches_schedule():
    _session, _truth, log = generate(SenderProfile(fps=30.0), 10.0, seed=1)
    assert len(log) == 300
    emits = [f.emit_us for f in log]
    gaps = np.diff(emits)
    assert abs(int(gaps.mean()) - 33333) <= 1


def test_fragment_sizes_examples():
    assert fragment_sizes(3000, 1200) == [1000, 1000, 1000]
    assert fragment_sizes(3001, 1200) == [1001, 1000, 1000]
    assert fragment_sizes(999, 1200) == [999]
    assert fragment_sizes(2500, 1200) == [834, 833, 833]
    for size in (1, 999, 1000, 1001, 5000, 5003):
        chunks = fragment_sizes(size, 1000)
        assert sum(chunks) == size
        assert max(chunks) - min(chunks) <= 1
        assert max(chunks) <= 1001


def test_intra_frame_spread_at_most_one_byte():
    session, _truth, log = generate(
        SenderProfile(fps=20.0, bitrate_kbps=2500.0), 5.0, seed=2)
    by_ts = {}
    for p in video_packets(session):
        by_ts.setdefault(p.rtp.timestamp, []).append(p.payload_len)
    assert any(len(v) > 1 for v in by_ts.values())
    for sizes in by_ts.values():
        assert max(sizes) - min(sizes) <= 1


def test_separable_margin_between_nearby_frames():
    session, _truth, _log = generate(
        SenderProfile(separable=True, separable_depth=3), 10.0, seed=3)
    pkts = video_packets(session)
    base = {}
    for p in pkts:
        ts = p.rtp.timestamp
        base[ts] = min(base.get(ts, 1 << 30), p.payload_len)
    ordered = [base[ts] for ts in sorted(base)]
    for i in range(1, len(ordered)):
        for j in range(max(0, i - 3), i):
            assert abs(ordered[i] - ordered[j]) >= SEPARATION_MARGIN - 1


def test_video_payloads_clear_classifier_floor():
    session, _truth, _log = generate(
        SenderProfile(bitrate_kbps=150.0, fps=30.0), 5.0, seed=4)
    assert all(p.payload_len >= MIN_PACKET_MEDIA + RTP_FIXED_HEADER_LEN
               for p in video_packets(session))


def test_audio_sizes_in_range():
    session, _truth, _log = generate(SenderProfile(), 5.0, seed=5)
    audio = [p for p in session.packets
             if p.rtp is not None and p.rtp.payload_type == 111]
    assert len(audio) == 250
    assert all(89 <= p.payload_len <= 385 for p in audio)


def test_byte_conservation_packets_vs_frame_log():
    session, _truth, log = generate(SenderProfile(audio_pps=0.0), 6.0, seed=6)
    pkt_media = sum(p.payload_len - RTP_FIXED_HEADER_LEN
                    for p in video_packets(session))
    assert pkt_media == sum(f.media_bytes for f in log)


def test_truth_self_consistency():
    _session, truth, log = generate(SenderProfile(fps=25.0), 12.0, seed=7)
    interior = truth.rows.take(slice(1, -1))
    # frame counts per window reproduce fps rows exactly
    for start, fps, kbps in zip(interior.window_start.tolist(),
                                interior.fps.tolist(),
                                interior.bitrate_kbps.tolist()):
        n = sum(1 for f in log if f.complete_us // 1_000_000 == start)
        assert fps == n
        b = sum(f.media_bytes for f in log
                if f.complete_us // 1_000_000 == start)
        assert kbps == pytest.approx(b * 8.0 / 1000.0)


def test_truth_height_tiers():
    for kbps, expect in ((200.0, 180), (800.0, 360), (2000.0, 720)):
        _s, truth, _log = generate(
            SenderProfile(bitrate_kbps=kbps, frame_size_jitter=0.0),
            5.0, seed=8)
        heights = set(truth.rows.frame_height[1:-1].tolist())
        assert heights == {expect}
    assert HEIGHT_TIERS[0][1] == 180


def test_truth_multisecond_window():
    _s, _t, log = generate(SenderProfile(fps=30.0), 10.0, seed=9)
    truth2 = truth_from_frame_log(log, w=2)
    assert all(start % 2 == 0
               for start in truth2.rows.window_start.tolist())
    assert all(fps == pytest.approx(30.0)
               for fps in truth2.rows.fps[1:-1].tolist())


def test_generation_is_deterministic():
    a, ta, la = generate(SenderProfile(), 5.0, seed=10)
    b, tb, lb = generate(SenderProfile(), 5.0, seed=10)
    c, _tc, _lc = generate(SenderProfile(), 5.0, seed=11)
    assert a.packets == b.packets
    assert la == lb
    np.testing.assert_equal(asdict(ta), asdict(tb))
    assert a.packets != c.packets


def test_invalid_profiles():
    with pytest.raises(InvalidProfile):
        generate(SenderProfile(fps=0.0), 5.0, seed=0)
    with pytest.raises(InvalidProfile):
        generate(SenderProfile(), 1.0, seed=0)
    with pytest.raises(InvalidProfile):
        SenderProfile(max_payload=10).validate()
    with pytest.raises(InvalidProfile):
        SenderProfile(separable_depth=0).validate()
    with pytest.raises(ValueError):
        ImpairmentProfile(loss_prob=1.5)
    for bad in ((10, 5), (0, 5)):
        with pytest.raises(InvalidProfile, match="bad audio size range"):
            generate(SenderProfile(audio_size_range=bad), 5.0, seed=0)
    with pytest.raises(InvalidProfile, match="lacks a video entry"):
        generate(SenderProfile(payload_type_map={111: MediaClass.AUDIO}),
                 5.0, seed=0)
    with pytest.raises(ValueError, match="delays must be non-negative"):
        ImpairmentProfile(delay_jitter_ms=-1)


def test_impair_noop_preserves_trace():
    session, _truth, _log = generate(SenderProfile(), 5.0, seed=12)
    out = impair(session, ImpairmentProfile(), seed=1)
    assert out.packets == session.packets


def test_impair_base_delay_shifts_all():
    session, _truth, _log = generate(SenderProfile(), 5.0, seed=13)
    out = impair(session, ImpairmentProfile(base_delay_ms=10.0), seed=1)
    for a, b in zip(session.packets, out.packets):
        assert b.arrival_us == a.arrival_us + 10_000


def test_impair_full_loss_drops_video():
    session, _truth, _log = generate(SenderProfile(), 5.0, seed=14)
    out = impair(session, ImpairmentProfile(loss_prob=1.0), seed=1)
    assert out.packets == []


def test_impair_retransmit_reemits_on_retx_pt():
    session, _truth, _log = generate(SenderProfile(audio_pps=0.0), 5.0,
                                     seed=15)
    out = impair(session, ImpairmentProfile(loss_prob=1.0, retransmit=True,
                                            rtt_ms=40.0), seed=1)
    assert len(out.packets) == len(session.packets)
    assert all(p.rtp.payload_type == 103 for p in out.packets)
    orig = {(p.rtp.sequence, p.rtp.timestamp): p.arrival_us
            for p in session.packets}
    for p in out.packets:
        assert p.arrival_us == orig[(p.rtp.sequence, p.rtp.timestamp)] + 40_000


def test_impair_jitter_reorders():
    session, _truth, _log = generate(SenderProfile(), 10.0, seed=16)
    out = impair(session, ImpairmentProfile(delay_jitter_ms=50.0), seed=2)
    assert len(out.packets) == len(session.packets)
    arrivals = [p.arrival_us for p in out.packets]
    assert arrivals == sorted(arrivals)
    seqs = [p.rtp.sequence for p in out.packets
            if p.rtp is not None and p.rtp.payload_type == 102]
    inversions = sum(1 for a, b in zip(seqs, seqs[1:]) if b < a)
    assert inversions > 0


def test_frame_log_csv_roundtrip(tmp_path):
    log = [FrameLogEntry(0, 100, 150, 5000, 0),
           FrameLogEntry(1, 33433, 33533, 5100, 3000)]
    path = tmp_path / "frames.csv"
    write_frame_log_csv(log, str(path))
    assert read_frame_log_csv(str(path)) == log


def test_frame_log_csv_bad_header(tmp_path):
    path = tmp_path / "frames.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_frame_log_csv(str(path))


def test_keyframes_inflate_periodic_frames():
    _s, _t, log = generate(
        SenderProfile(keyframe_interval=30, keyframe_multiplier=3.0,
                      frame_size_jitter=0.0, separable=False),
        5.0, seed=17)
    key = [f.media_bytes for f in log if f.frame_id % 30 == 0]
    rest = [f.media_bytes for f in log if f.frame_id % 30 != 0]
    assert min(key) > 2.0 * max(rest) / 1.01


# sha256 of the files written for generate(SenderProfile(keyframe_interval=30),
# 6.0, seed=3): clean, impaired, and impaired with the RTP headers removed
WRITTEN_DIGESTS = {
    "bare.packets.csv":
        "3ff79df0f315e89156b68cdefbcaaac68eb7b506ffbf258baf07569bf796f6e8",
    "bare.pcap":
        "49d7bccc739277cc8723964b6ea86eb17841f3079777cfb74abe36c1d3dcd63c",
    "clean.packets.csv":
        "996865efb0fa9c54f9f44de519845ca565a09e841edab2cf6708ac30b27a23f5",
    "clean.pcap":
        "b21c3de36eea6e75e6027b3193073ad8db37d6fdd4a3c5bd1988b154436f7ac5",
    "frames.csv":
        "48c626408c70ff713ba5308f13985caa473bdb2ff6f03b14c41f1ffb26fbeada",
    "impaired.packets.csv":
        "a7759173224e401e14aa01eb43fe57603465e2fa9a8e81c24ad9c96d4d834d4d",
    "impaired.pcap":
        "08290e8d74a12fb72d5d4b239017bd65ba16e6c0cc10b5bc252f6a01f559ca3c",
    "truth.csv":
        "613277eaa93a634ae42603c28fd759c43b984ca326c544b06b99d7a3e83d613d",
}


def test_written_bytes_are_pinned(tmp_path):
    profile = SenderProfile(keyframe_interval=30)
    clean, truth, log = generate(profile, 6.0, seed=3)
    impaired = impair(clean, ImpairmentProfile(
        delay_jitter_ms=40, loss_prob=0.05, retransmit=True), seed=3,
        ptmap=profile.ptmap())
    assert any(p.rtp.payload_type == 103 for p in impaired.packets)
    bare = Session(impaired.session_id, impaired.vca_label, [
        PacketRecord(p.arrival_us, p.src_ip, p.dst_ip, p.src_port,
                     p.dst_port, p.payload_len) for p in impaired.packets])
    for name, session in (("clean", clean), ("impaired", impaired),
                          ("bare", bare)):
        write_packet_csv(session, str(tmp_path / f"{name}.packets.csv"))
        write_pcap(session, str(tmp_path / f"{name}.pcap"))
    write_ground_truth_csv(truth.rows, str(tmp_path / "truth.csv"))
    write_frame_log_csv(log, str(tmp_path / "frames.csv"))
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()} == WRITTEN_DIGESTS
