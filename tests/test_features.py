from dataclasses import replace

import numpy as np
import pytest

from vcaqoe.classify import classify_by_payload_type
from vcaqoe.features import (FLOW_FEATURES, IPUDP_FEATURE_NAMES,
                             RTP_FEATURE_NAMES, RTP_ONLY_FEATURES,
                             SEMANTIC_FEATURES, MissingRtp, SemanticParams,
                             frame_lags, session_feature_rows)
from vcaqoe.session import MediaClass, PacketRecord, RtpHeader, Session
from vcaqoe.synth import SenderProfile, generate


def pkt(us, size, pt=None, seq=0, ts=0, marker=False, cls=None):
    rtp = None
    if pt is not None:
        rtp = RtpHeader(2, False, False, marker, 0, pt, seq, ts, 1)
    p = PacketRecord(us, "1.1.1.1", "2.2.2.2", 10, 20, size, rtp)
    if cls is not None:
        object.__setattr__(p, "media_class", cls)
    return p


def window_row(pkts, feature_set="ipudp", w=1, params=SemanticParams()):
    """The feature row of a session whose packets fall in one w-second
    window; a packet without a media class counts as video."""
    pkts = [p if p.media_class else replace(p, media_class=MediaClass.VIDEO)
            for p in pkts]
    keys, rows = session_feature_rows(Session("s", "", pkts), feature_set, w,
                                      params)
    assert len(keys) == 1
    return rows[0].tolist()


def flow_stats(pkts, w=1):
    return window_row(pkts, w=w)[:12]


def semantic_features(pkts, params=SemanticParams()):
    return tuple(window_row(pkts, params=params)[12:])


def rtp_features(pkts):
    return window_row(pkts, "rtp")[12:]


def empty_window_row():
    """The IP/UDP feature row of a window without video packets, between
    two windows with one."""
    keys, rows = session_feature_rows(
        Session("s", "", [pkt(0, 900, cls=MediaClass.VIDEO),
                          pkt(2_000_000, 900, cls=MediaClass.VIDEO)]))
    assert keys == [0, 1, 2]
    return rows[1].tolist()


def test_feature_name_layout():
    assert len(FLOW_FEATURES) == 12
    assert len(SEMANTIC_FEATURES) == 2
    assert len(RTP_ONLY_FEATURES) == 12
    assert IPUDP_FEATURE_NAMES == FLOW_FEATURES + SEMANTIC_FEATURES
    assert RTP_FEATURE_NAMES == FLOW_FEATURES + RTP_ONLY_FEATURES
    assert len(set(RTP_FEATURE_NAMES)) == len(RTP_FEATURE_NAMES)


def test_flow_stats_hand_example():
    pkts = [pkt(0, 1000), pkt(10_000, 1200), pkt(30_000, 800)]
    out = flow_stats(pkts)
    assert out[0] == pytest.approx(3000.0)          # bytes_per_s
    assert out[1] == pytest.approx(3.0)             # pkts_per_s
    assert out[2] == pytest.approx(1000.0)          # size_mean
    assert out[3] == pytest.approx(np.std([1000, 1200, 800]))
    assert out[4] == pytest.approx(1000.0)          # median
    assert out[5] == 800.0 and out[6] == 1200.0
    # IATs: 10 ms and 20 ms, in seconds
    assert out[7] == pytest.approx(0.015)
    assert out[10] == pytest.approx(0.010)
    assert out[11] == pytest.approx(0.020)


def test_flow_stats_empty_and_singleton():
    assert empty_window_row()[:12] == [0.0] * 12
    single = flow_stats([pkt(0, 900)])
    assert single[0] == 900.0 and single[1] == 1.0
    assert single[7:] == [0.0] * 5


def test_flow_stats_scales_with_window():
    pkts = [pkt(0, 1000), pkt(500_000, 1000)]
    out = flow_stats(pkts, w=2)
    assert out[0] == pytest.approx(1000.0)
    assert out[1] == pytest.approx(1.0)


def test_semantic_unique_sizes():
    pkts = [pkt(0, 1000), pkt(10, 1000), pkt(20, 1001), pkt(30, 998)]
    n_unique, _ = semantic_features(pkts)
    assert n_unique == 3.0


def test_semantic_microbursts():
    # gaps: 1 ms, 5 ms, 0.1 ms, 4 ms at theta 3 ms -> 1 + 2 = 3 bursts
    times = [0, 1_000, 6_000, 6_100, 10_100]
    pkts = [pkt(t, 1000) for t in times]
    _, bursts = semantic_features(pkts, SemanticParams(theta_iat_ms=3.0))
    assert bursts == 3.0
    assert tuple(empty_window_row()[12:]) == (0.0, 0.0)
    assert semantic_features([pkt(0, 900)])[1] == 1.0


def test_microbursts_match_generated_frame_count():
    # clean trace, one microburst per frame: 30 bursts in a full second
    session, _truth, log = generate(
        SenderProfile(fps=30.0, bitrate_kbps=2000.0, audio_pps=0.0),
        10.0, seed=11)
    video = [p for p in session.packets if p.payload_len > 500]
    wus = 1_000_000
    k = (video[0].arrival_us // wus + 1) * wus
    window = [p for p in video if k <= p.arrival_us < k + wus]
    _, bursts = semantic_features(window)
    assert bursts == 30.0


def test_ooo_count_example():
    pkts = [pkt(i * 10, 900, pt=102, seq=s, cls=MediaClass.VIDEO)
            for i, s in enumerate([5, 6, 8, 7])]
    out = rtp_features(pkts)
    assert out[RTP_ONLY_FEATURES.index("ooo_count")] == 1.0


def test_ooo_count_ignores_wrap():
    pkts = [pkt(i * 10, 900, pt=102, seq=s, cls=MediaClass.VIDEO)
            for i, s in enumerate([65534, 65535, 0, 1])]
    out = rtp_features(pkts)
    assert out[RTP_ONLY_FEATURES.index("ooo_count")] == 0.0


@pytest.mark.parametrize("seqs", [
    [65534, 0, 65535],      # 0 -> 65535 steps back by one modulo 2^16
    [32768, 0, 32767],      # back by half the sequence space, then forward
])
def test_ooo_count_across_wrap(seqs):
    pkts = [pkt(i * 10, 900, pt=102, seq=s, cls=MediaClass.VIDEO)
            for i, s in enumerate(seqs)]
    out = rtp_features(pkts)
    assert out[RTP_ONLY_FEATURES.index("ooo_count")] == 1.0


def test_rtp_timestamp_set_features():
    pkts = [pkt(0, 900, pt=102, ts=0, cls=MediaClass.VIDEO),
            pkt(10, 900, pt=102, ts=0, marker=True, cls=MediaClass.VIDEO),
            pkt(20, 900, pt=102, ts=3000, marker=True, cls=MediaClass.VIDEO),
            pkt(30, 900, pt=103, ts=0, cls=MediaClass.VIDEO_RETX),
            pkt(40, 900, pt=103, ts=6000, cls=MediaClass.VIDEO_RETX)]
    out = rtp_features(pkts)
    idx = {n: i for i, n in enumerate(RTP_ONLY_FEATURES)}
    assert out[idx["unique_rtp_ts_video"]] == 2.0
    assert out[idx["unique_rtp_ts_retx"]] == 2.0
    assert out[idx["unique_rtp_ts_intersection"]] == 1.0
    assert out[idx["unique_rtp_ts_union"]] == 3.0
    assert out[idx["marker_sum_video"]] == 2.0
    assert out[idx["marker_sum_retx"]] == 0.0


def test_rtp_features_require_headers():
    p = pkt(0, 900, cls=MediaClass.VIDEO)
    with pytest.raises(MissingRtp):
        rtp_features([p])


def test_frame_lags_zero_on_schedule():
    # frames arriving exactly on the RTP-implied schedule have zero lag
    end_us = [1_000_000 + int(i * 1e6 / 30) for i in range(5)]
    rtp_ts = [i * 3000 for i in range(5)]
    lags = frame_lags(end_us, rtp_ts, (end_us[0], 0), 90000)
    assert all(abs(v) < 1e-5 for v in lags)


def test_frame_lags_late_frame():
    lags = frame_lags([1_000_000, 1_000_000 + 33_333 + 20_000], [0, 3000],
                      (1_000_000, 0), 90000)
    assert lags[0] == pytest.approx(0.0)
    assert lags[1] == pytest.approx(0.020, abs=1e-4)


def test_session_feature_rows_shapes():
    session, _truth, _log = generate(SenderProfile(), 6.0, seed=2)
    session = classify_by_payload_type(session)
    keys_a, m_a = session_feature_rows(session, "ipudp")
    keys_b, m_b = session_feature_rows(session, "rtp")
    assert keys_a == keys_b
    assert m_a.shape == (len(keys_a), 14)
    assert m_b.shape == (len(keys_b), 24)
    assert np.isfinite(m_a).all() and np.isfinite(m_b).all()
    # flow block identical across feature sets
    assert np.allclose(m_a[:, :12], m_b[:, :12])
    assert keys_a == sorted(keys_a)


def test_session_feature_rows_clean_interior_values():
    session, _truth, _log = generate(
        SenderProfile(fps=30.0, audio_pps=0.0, frame_size_jitter=0.0),
        6.0, seed=7)
    session = classify_by_payload_type(session)
    keys, m = session_feature_rows(session, "rtp")
    idx = 12 + RTP_ONLY_FEATURES.index("unique_rtp_ts_video")
    interior = m[1:-1]
    assert np.all(interior[:, idx] == 30.0)
    midx = 12 + RTP_ONLY_FEATURES.index("marker_sum_video")
    assert np.all(interior[:, midx] == 30.0)
    lag_idx = 12 + RTP_ONLY_FEATURES.index("lag_max")
    assert np.all(np.abs(interior[:, lag_idx]) < 1e-3)


def test_session_feature_rows_bad_set():
    session, _truth, _log = generate(SenderProfile(), 3.0, seed=1)
    with pytest.raises(ValueError):
        session_feature_rows(session, "bogus")


def test_semantic_params_need_a_positive_iat_threshold():
    with pytest.raises(ValueError, match="theta_iat_ms must be positive"):
        SemanticParams(theta_iat_ms=0)


def test_session_feature_rows_empty_video():
    session, _truth, _log = generate(SenderProfile(), 3.0, seed=1)
    # without classification no packet is video
    keys, m = session_feature_rows(session, "ipudp")
    assert keys == [] and m.shape[0] == 0


@pytest.mark.parametrize("w", [1.5, 0.5, 0, -1])
def test_session_feature_rows_window_must_be_a_positive_integer(w):
    session, _truth, _log = generate(SenderProfile(), 3.0, seed=1)
    session = classify_by_payload_type(session)
    for feature_set in ("ipudp", "rtp"):
        with pytest.raises(ValueError, match="window"):
            session_feature_rows(session, feature_set, w)
