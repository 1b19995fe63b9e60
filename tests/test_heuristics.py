import math
import types
from dataclasses import fields

import numpy as np
import pytest

from vcaqoe.assembly import assemble_rtp
from vcaqoe.classify import classify_by_payload_type
from vcaqoe.heuristics import session_windows, window_series
from vcaqoe.pipeline import analyze_session
from vcaqoe.synth import SenderProfile, generate, truth_from_frame_log


def frame(end_us, size=1000):
    return end_us, size


def frames_at_fps(fps, start_us, n, size=1000):
    return [frame(start_us + int(round(i * 1_000_000 / fps)), size)
            for i in range(n)]


def series_of(frames, w=1, span_us=None):
    """window_series of (end_us, size) frames, over the span of their end
    times unless span_us is given."""
    end_us = np.array([end for end, _ in frames], dtype=np.int64)
    size_bytes = np.array([size for _, size in frames], dtype=np.int64)
    if span_us is None:
        span_us = (end_us.min(), end_us.max())
    return window_series(end_us, size_bytes, w, span_us)


def at(series, start):
    """The row of a WindowTable whose window starts at start, as a
    namespace of its values."""
    i = series.window_start.tolist().index(start)
    return types.SimpleNamespace(**{f.name: getattr(series, f.name)[i].item()
                                    for f in fields(series)})


def table_series(table):
    """window_series of a FrameTable over the span of its frame ends."""
    return window_series(table.end_us, table.size_bytes, 1,
                         (table.end_us.min(), table.end_us.max()))


def test_frame_rate_counts_window_ends():
    frames = frames_at_fps(30, 100_000_000, 60)
    series = series_of(frames, span_us=(99_000_000, 101_999_999))
    assert at(series, 100).fps == 30.0
    assert at(series, 101).fps == 30.0
    assert at(series, 99).fps == 0.0


def test_bitrate_example():
    # 30 frames of 1000 bytes in one second -> 240 kbps
    frames = frames_at_fps(30, 100_000_000, 30, size=1000)
    series = series_of(frames, span_us=(99_000_000, 100_999_999))
    assert at(series, 100).bitrate_kbps == pytest.approx(240.0)
    assert at(series, 99).bitrate_kbps == 0.0


def test_jitter_hand_example():
    # gaps 30 ms and 50 ms -> population stddev 10 ms
    frames = [frame(100_000_000), frame(100_030_000), frame(100_080_000)]
    assert at(series_of(frames), 100).frame_jitter_ms == pytest.approx(10.0)


def test_jitter_uniform_spacing_is_exact_zero():
    frames = frames_at_fps(25, 100_000_000, 75)
    series = series_of(frames)
    assert at(series, 101).frame_jitter_ms == 0.0


def test_jitter_missing_below_three_frames():
    frames = [frame(100_000_000), frame(100_030_000)]
    assert math.isnan(at(series_of(frames), 100).frame_jitter_ms)


def test_straddling_gap_belongs_to_later_window():
    # one frame late in second 100, three in second 101; the 100->101 gap
    # contributes to window 101
    frames = [frame(100_990_000), frame(101_020_000), frame(101_050_000),
              frame(101_090_000)]
    series = series_of(frames)
    gaps_ms = np.array([30_000, 30_000, 40_000], dtype=np.int64)
    assert at(series, 101).frame_jitter_ms == pytest.approx(
        float(np.std(gaps_ms)) / 1000.0)


def test_series_covers_gap_windows():
    frames = [frame(100_000_000), frame(103_500_000)]
    series = series_of(frames)
    assert series.window_start.tolist() == [100, 101, 102, 103]
    assert at(series, 101).fps == 0.0
    assert at(series, 101).bitrate_kbps == 0.0
    assert math.isnan(at(series, 101).frame_jitter_ms)


def test_series_span_extends_coverage():
    frames = [frame(101_000_000)]
    series = series_of(frames, span_us=(99_500_000, 102_200_000))
    assert series.window_start.tolist() == [99, 100, 101, 102]
    assert at(series, 99).fps == 0.0 and at(series, 101).fps == 1.0


def test_series_empty():
    s = series_of([], span_us=(100_000_000, 101_000_000))
    assert s.window_start.tolist() == [100, 101]
    assert (s.fps == 0.0).all()


def test_fps_conservation():
    # sum of fps * w over all windows equals the number of frames
    session, _truth, _log = generate(SenderProfile(fps=24.0), 15.0, seed=6)
    session = classify_by_payload_type(session)
    frames = assemble_rtp(session.video_packets())
    series = table_series(frames)
    assert series.fps.sum() == len(frames)
    total_bits = (series.bitrate_kbps * 1000.0).sum()
    assert total_bits == pytest.approx(frames.size_bytes.sum() * 8)


def test_series_matches_generator_truth_on_clean_trace():
    session, truth, _log = generate(SenderProfile(fps=25.0), 20.0, seed=8)
    session = classify_by_payload_type(session)
    series = table_series(assemble_rtp(session.video_packets()))
    for start in truth.rows.window_start[1:-1].tolist():
        row, est = at(truth.rows, start), at(series, start)
        assert est.fps == pytest.approx(row.fps)
        assert est.bitrate_kbps == pytest.approx(row.bitrate_kbps)
        if math.isnan(row.frame_jitter_ms):
            assert math.isnan(est.frame_jitter_ms)
        else:
            assert est.frame_jitter_ms == pytest.approx(row.frame_jitter_ms,
                                                        abs=1e-6)


@pytest.mark.parametrize("w", [1.5, 0.5, 0, -1])
def test_window_width_must_be_a_positive_integer(w):
    session, _truth, log = generate(SenderProfile(), 6.0, seed=1)
    with pytest.raises(ValueError, match="window"):
        session_windows(session, w)
    with pytest.raises(ValueError, match="window"):
        truth_from_frame_log(log, w=w)
    with pytest.raises(ValueError, match="window"):
        analyze_session(session, w=w)


def test_analyze_session_rejects_an_unknown_method():
    session, _truth, _log = generate(SenderProfile(), 3.0, seed=1)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        analyze_session(session, "bogus")


def test_two_second_windows_are_unchanged():
    session, _truth, log = generate(SenderProfile(), 6.0, seed=1)
    assert session_windows(session, 1) == range(1700000001, 1700000007)
    assert session_windows(session, 2) == range(1700000002, 1700000006, 2)
    assert session_windows(session, 2.0) == session_windows(session, 2)
    rows = truth_from_frame_log(log, w=2).rows
    assert list(zip(rows.window_start.tolist(), rows.fps.tolist(),
                    rows.bitrate_kbps.tolist(),
                    rows.frame_height.tolist())) == [
        (1700000000, 27.0, 722.84, 360),
        (1700000002, 30.0, 806.276, 360),
        (1700000004, 30.0, 801.552, 360),
        (1700000006, 3.0, 80.324, 180)]
