import numpy as np
import pytest

from vcaqoe.assembly import (IpUdpAssemblyParams, MissingRtp,
                             assemble_ipudp, assemble_rtp, diagnose,
                             params_for_vca)
from vcaqoe.classify import classify_by_size
from vcaqoe.session import RTP_FIXED_HEADER_LEN, PacketRecord, RtpHeader
from vcaqoe.sweeps import lookback_sweep
from vcaqoe.synth import SenderProfile, generate


def vp(us, size, ts=None, marker=False, seq=0):
    rtp = None
    if ts is not None:
        rtp = RtpHeader(2, False, False, marker, 0, 102, seq, ts, 1)
    return PacketRecord(us, "1.1.1.1", "2.2.2.2", 10, 20, size, rtp)


def packets_with_sizes(sizes, spacing_us=1000):
    return [vp(i * spacing_us, s) for i, s in enumerate(sizes)]


def members(table):
    """Each frame's packet indices, ascending, in table order."""
    return [tuple(table.members[lo:hi].tolist())
            for lo, hi in zip(table.lo, table.hi)]


def test_ipudp_boundary_on_size_jump():
    pkts = packets_with_sizes([1100, 1100, 1102, 900, 900])
    frames = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    assert sorted(map(len, members(frames))) == [2, 3]


def test_ipudp_coalesces_similar_sizes():
    # two single-packet frames 1022 and 1020 bytes merge under delta=2
    pkts = packets_with_sizes([1022, 1020])
    frames = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    assert len(frames) == 1
    assert members(frames)[0] == (0, 1)


def test_ipudp_lookback_rescues_interleaved_packet():
    # middle packet from another frame; lookback 2 reattaches the tail
    pkts = packets_with_sizes([1100, 900, 1101])
    one = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    two = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 2))
    assert len(one) == 3
    assert len(two) == 2


def test_ipudp_partition_covers_all_packets():
    pkts = packets_with_sizes([700, 702, 1400, 1402, 700, 1500, 1500])
    frames = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 3))
    seen = sorted(i for f in members(frames) for i in f)
    assert seen == list(range(len(pkts)))


def test_ipudp_byte_conservation_and_end_time():
    pkts = packets_with_sizes([700, 702, 1400, 1402, 700])
    frames = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 2))
    total = frames.size_bytes.sum()
    assert total == sum(p.payload_len - RTP_FIXED_HEADER_LEN for p in pkts)
    for f, idxs in enumerate(members(frames)):
        assert frames.end_us[f] == max(pkts[i].arrival_us for i in idxs)
        assert frames.end_us[f] >= frames.start_us[f]
        assert frames.size_bytes[f] > 0


def test_ipudp_empty_input():
    assert len(assemble_ipudp([], IpUdpAssemblyParams())) == 0


def test_ipudp_matches_rtp_partition_on_generator_trace():
    # oracle: group-by-RTP-timestamp on a clean separable trace
    session, _truth, _log = generate(
        SenderProfile(fps=30.0, bitrate_kbps=900.0), 60.0, seed=3)
    video = classify_by_size(session).video_packets()
    assert len(video) > 1000
    est = assemble_ipudp(video, IpUdpAssemblyParams(2, 2))
    oracle = {}
    for i, p in enumerate(video):
        oracle.setdefault(p.rtp.timestamp, []).append(i)
    est_parts = sorted(list(f) for f in members(est))
    oracle_parts = sorted(sorted(v) for v in oracle.values())
    assert est_parts == oracle_parts


def test_rtp_groups_by_timestamp():
    pkts = [vp(0, 700, ts=3000), vp(10, 700, ts=3000), vp(20, 700, ts=6000)]
    frames = assemble_rtp(pkts)
    assert sorted(map(len, members(frames))) == [1, 2]


def test_rtp_order_independent():
    a = assemble_rtp([vp(0, 700, ts=3000), vp(10, 700, ts=6000),
                      vp(20, 700, ts=3000)])
    parts = sorted(list(f) for f in members(a))
    assert parts == [[0, 2], [1]]


def test_rtp_marker_fixes_end_time():
    pkts = [vp(0, 700, ts=3000), vp(10, 700, ts=3000, marker=True),
            vp(20, 700, ts=3000)]
    frames = assemble_rtp(pkts)
    assert len(frames) == 1
    assert frames.end_us[0] == 10


def test_rtp_frame_count_equals_distinct_timestamps():
    session, _truth, _log = generate(SenderProfile(), 10.0, seed=4)
    video = classify_by_size(session).video_packets()
    frames = assemble_rtp(video)
    assert len(frames) == len({p.rtp.timestamp for p in video})


def test_rtp_requires_headers():
    with pytest.raises(MissingRtp):
        assemble_rtp([vp(0, 700)])


def test_diagnose_clean_trace_is_zero():
    pkts = [vp(0, 1100, ts=0), vp(10, 1100, ts=0),
            vp(40, 900, ts=3000), vp(50, 900, ts=3000)]
    est = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    d = diagnose(est, pkts)
    assert (d.split_count, d.coalesce_count, d.interleave_count) == (0, 0, 0)


def test_diagnose_counts_coalesce():
    pkts = [vp(0, 1021, ts=0), vp(40, 1020, ts=3000)]
    est = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    d = diagnose(est, pkts)
    assert d.coalesce_count >= 1


def test_diagnose_counts_split():
    pkts = [vp(0, 1100, ts=0), vp(10, 1200, ts=0)]
    est = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 1))
    d = diagnose(est, pkts)
    assert d.split_count >= 1


def test_diagnose_counts_interleave():
    # estimated frame holds packets 0 and 2 around a foreign packet
    pkts = [vp(0, 1100, ts=0), vp(10, 900, ts=3000), vp(20, 1101, ts=0)]
    est = assemble_ipudp(pkts, IpUdpAssemblyParams(2, 2))
    d = diagnose(est, pkts)
    assert d.interleave_count >= 1


def test_diagnose_needs_rtp():
    with pytest.raises(MissingRtp):
        diagnose(assemble_ipudp([]), [vp(0, 700)])


def test_vca_lookback_profiles():
    assert params_for_vca("meet").n_max == 3
    assert params_for_vca("Teams").n_max == 2
    assert params_for_vca("webex").n_max == 1
    assert params_for_vca("").n_max == 2


def test_params_require_an_integral_lookback():
    assert IpUdpAssemblyParams(n_max=np.int64(3)).n_max == 3
    for n_max in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="n_max"):
            IpUdpAssemblyParams(n_max=n_max)


@pytest.mark.parametrize("kwargs", [{"delta_size_max": -1}, {"n_max": 0}])
def test_params_reject_a_negative_delta_or_no_lookback(kwargs):
    with pytest.raises(ValueError, match="delta_size_max >= 0 and n_max >= 1"):
        IpUdpAssemblyParams(**kwargs)


def test_lookback_sweep_rejects_a_fractional_lookback():
    with pytest.raises(ValueError, match="n_max"):
        lookback_sweep([2.5, 2], n_sessions=1, duration_s=4.0)
