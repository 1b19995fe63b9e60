import pytest

from vcaqoe.classify import (LengthMismatch, MissingClass, OverlappingRanges,
                             PayloadTypeMap, SizeThreshold,
                             classification_report, classify_by_payload_type,
                             classify_by_size, fit_vmin,
                             load_payload_type_map)
from vcaqoe.session import MediaClass, PacketRecord, RtpHeader, Session
from vcaqoe.synth import SenderProfile, generate

from reference import lookup


def pkt(us, size, pt=None, marker=False):
    rtp = None
    if pt is not None:
        rtp = RtpHeader(2, False, False, marker, 0, pt, 0, 0, 1)
    return PacketRecord(us, "1.1.1.1", "2.2.2.2", 10, 20, size, rtp)


def sess(*packets):
    return Session("s", "teams", list(packets))


def test_size_threshold_examples():
    s = classify_by_size(sess(pkt(0, 385), pkt(1, 564), pkt(2, 304)),
                         SizeThreshold(500))
    assert [p.media_class for p in s.packets] == [
        MediaClass.OTHER, MediaClass.VIDEO, MediaClass.OTHER]


def test_size_threshold_monotone():
    sizes = [89, 304, 385, 500, 564, 1200]
    low = classify_by_size(sess(*[pkt(i, s) for i, s in enumerate(sizes)]),
                           SizeThreshold(450))
    high = classify_by_size(sess(*[pkt(i, s) for i, s in enumerate(sizes)]),
                            SizeThreshold(600))
    for a, b in zip(low.packets, high.packets):
        if b.media_class is MediaClass.VIDEO:
            assert a.media_class is MediaClass.VIDEO


def test_size_threshold_must_be_positive():
    with pytest.raises(ValueError, match="v_min must be positive"):
        SizeThreshold(0)


def test_payload_type_examples():
    s = classify_by_payload_type(sess(
        pkt(0, 120, pt=111), pkt(1, 304, pt=103), pkt(2, 900, pt=42),
        pkt(3, 900, pt=102), pkt(4, 800, pt=103), pkt(5, 130)))
    assert [p.media_class for p in s.packets] == [
        MediaClass.AUDIO, MediaClass.OTHER, MediaClass.OTHER,
        MediaClass.VIDEO, MediaClass.VIDEO_RETX, MediaClass.OTHER]


def test_fit_vmin_midpoint():
    s = classify_by_payload_type(sess(
        pkt(0, 89, pt=111), pkt(1, 385, pt=111),
        pkt(2, 564, pt=102), pkt(3, 1200, pt=102)))
    assert fit_vmin(s).v_min == 474


def test_fit_vmin_overlap():
    s = classify_by_payload_type(sess(pkt(0, 600, pt=111),
                                      pkt(1, 500, pt=102)))
    with pytest.raises(OverlappingRanges):
        fit_vmin(s)


def test_fit_vmin_missing_class():
    s = classify_by_payload_type(sess(pkt(0, 600, pt=102),
                                      pkt(1, 700, pt=102)))
    with pytest.raises(MissingClass):
        fit_vmin(s)


def test_report_perfect_diagonal():
    truth = classify_by_payload_type(sess(pkt(0, 120, pt=111),
                                          pkt(1, 900, pt=102)))
    pred = classify_by_size(sess(pkt(0, 120, pt=111), pkt(1, 900, pt=102)))
    rep = classification_report(pred, truth)
    assert rep.row_percent[0][0] == 100.0
    assert rep.row_percent[1][1] == 100.0
    assert rep.recall("video") == 1.0


def test_report_empty_is_zero_matrix():
    rep = classification_report(sess(), sess())
    assert rep.counts == [[0, 0], [0, 0]]
    assert rep.row_totals == [0, 0]


def test_report_length_mismatch():
    with pytest.raises(LengthMismatch):
        classification_report(sess(pkt(0, 100)), sess())


def test_report_counts_misclassification_rate():
    # 2 of 118 non-video packets tagged video; all video correct
    packets = [pkt(i, 120, pt=111) for i in range(118)]
    packets += [pkt(200 + i, 900, pt=102) for i in range(50)]
    truth = classify_by_payload_type(sess(*packets))
    flipped = [p if i not in (0, 1) else pkt(i, 900, pt=111)
               for i, p in enumerate(packets)]
    pred = classify_by_size(sess(*flipped), SizeThreshold(500))
    rep = classification_report(pred, truth)
    assert rep.counts[0] == [116, 2]
    assert rep.row_percent[1] == [0.0, 100.0]
    assert rep.row_totals == [118, 50]


def test_generator_corpus_fitted_vmin_is_exact():
    session, _truth, _log = generate(SenderProfile(), 10.0, seed=5)
    truth = classify_by_payload_type(session)
    threshold = fit_vmin(truth)
    pred = classify_by_size(session, threshold)
    rep = classification_report(pred, truth)
    assert rep.recall("video") == 1.0
    assert rep.recall("non_video") == 1.0


def test_load_payload_type_map(tmp_path):
    p = tmp_path / "profiles.csv"
    p.write_text("# vca,pt,class\n"
                 "teams,100,video\n"
                 "teams,101,video_retx\n"
                 "meet,96,video\n")
    m = load_payload_type_map(str(p), vca="teams")
    assert lookup(m, 100) is MediaClass.VIDEO
    assert lookup(m, 101) is MediaClass.VIDEO_RETX
    assert lookup(m, 96) is MediaClass.OTHER


def test_default_map_is_lab_profile():
    m = PayloadTypeMap()
    assert lookup(m, 111) is MediaClass.AUDIO
    assert lookup(m, 102) is MediaClass.VIDEO
    assert lookup(m, 103) is MediaClass.VIDEO_RETX
