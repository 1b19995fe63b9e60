"""The benchmark's checks pass on the program's real outputs and fail when
one value of an output is corrupted.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import copy

import pytest

import checks
import make_inputs
import run
from vcaqoe.cli import run as cli_run
from workloads import CallSpec


SPECS = [
    CallSpec(name="train-00", role="train", duration_s=12.0, fps=20.0,
             bitrate_kbps=900.0, audio_pps=10.0, gen_seed=1, jitter_ms=30.0,
             loss=0.03, retransmit=True),
    CallSpec(name="train-01", role="train", duration_s=12.0, fps=28.0,
             bitrate_kbps=350.0, audio_pps=10.0, gen_seed=2, jitter_ms=5.0),
    CallSpec(name="test-02", role="test", duration_s=12.0, fps=15.0,
             bitrate_kbps=1300.0, audio_pps=10.0, gen_seed=3, jitter_ms=60.0,
             loss=0.05, retransmit=True),
    CallSpec(name="test-03-clean", role="test", duration_s=12.0, fps=24.0,
             bitrate_kbps=2000.0, audio_pps=50.0, gen_seed=4, fmt="pcap"),
    CallSpec(name="test-04-nortp", role="test", duration_s=12.0, fps=30.0,
             bitrate_kbps=700.0, audio_pps=50.0, gen_seed=5, rtp=False,
             fmt="pcap"),
]


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """One round of the benchmark's commands over five short calls."""
    work = str(tmp_path_factory.mktemp("bench"))
    calls, made = make_inputs.make(SPECS, work, make_inputs.LayerClock())
    exps = make_inputs.expectations(made)
    # a JSON round trip, as between set-up and run
    exps = {sid: checks.from_json(checks.to_json(e)) for sid, e in exps.items()}
    cmds, joins = run.build_commands(calls, work)
    import os
    os.makedirs(os.path.join(work, "out"))
    _times, codes = run.run_round(cmds, joins, cli_run)
    return cmds, codes, exps


def _cmd(bench, kind, sid=None):
    cmds, _codes, _exps = bench
    return next(c for c in cmds
                if c.kind == kind and (sid is None or c.sids == [sid]))


def test_real_outputs_pass(bench):
    cmds, codes, exps = bench
    assert codes == [[0]] * len(cmds)
    assert run.check_round(cmds, codes, exps, clean=False) == []


def test_clean_call_matches_frame_log(bench):
    _cmds, _codes, exps = bench
    for method in ("ipudp", "rtp"):
        cmd = _cmd(bench, f"analyze_{method}", "test-03-clean.pcap")
        rows = checks.read_csv(cmd.out)[1]
        assert checks.check_frame_log_truth(
            rows, exps["test-03-clean.pcap"], method, "x") == []


@pytest.mark.parametrize("method,sid", [("ipudp", "test-02"),
                                        ("rtp", "test-02"),
                                        ("ipudp", "test-04-nortp.pcap")])
@pytest.mark.parametrize("column,delta", [(1, 1.0), (2, 0.008)])
def test_analyze_value_off(bench, method, sid, column, delta):
    """One window's fps off by one frame, or its bitrate off by one byte."""
    exp = bench[2][sid]
    rows = checks.read_csv(_cmd(bench, f"analyze_{method}", sid).out)[1]
    bad = copy.deepcopy(rows)
    bad[len(bad) // 2][column] = f"{float(bad[len(bad) // 2][column]) + delta:.6f}"
    assert checks.check_analyze(rows, exp, method, "x") == []
    assert checks.check_analyze(bad, exp, method, "x")


def test_analyze_window_dropped(bench):
    exp = bench[2]["test-02"]
    rows = checks.read_csv(_cmd(bench, "analyze_rtp", "test-02").out)[1]
    assert checks.check_analyze(rows[:-1], exp, "rtp", "x")
    assert checks.check_analyze(rows[1:], exp, "rtp", "x")


def test_frame_log_check_catches_fps_off(bench):
    sid = "test-03-clean.pcap"
    exp = bench[2][sid]
    rows = checks.read_csv(_cmd(bench, "analyze_ipudp", sid).out)[1]
    bad = copy.deepcopy(rows)
    bad[3][1] = f"{float(bad[3][1]) - 1:.6f}"
    assert exp["inseparable"] == []
    assert checks.check_frame_log_truth(bad, exp, "ipudp", "x")


@pytest.mark.parametrize("kind,sid", [("features_ipudp", "train-00"),
                                      ("features_rtp", "test-02"),
                                      ("features_ipudp", "test-04-nortp.pcap")])
def test_feature_value_changed(bench, kind, sid):
    exps = {sid: bench[2][sid]}
    fset = kind[len("features_"):]
    header, rows = checks.read_csv(_cmd(bench, kind, sid).out)
    assert checks.check_features(header, rows, exps, fset, "x") == []
    for column in (2, 3):          # bytes_per_s, pkts_per_s
        bad = copy.deepcopy(rows)
        bad[2][column] = str(float(bad[2][column]) + 1)
        assert checks.check_features(header, bad, exps, fset, "x")
    assert checks.check_features(header, rows[:-1], exps, fset, "x")
    assert checks.check_features(header, rows[1:], exps, fset, "x")


def test_prediction_rows(bench):
    cmd = _cmd(bench, "predict_fps")
    test_rows = checks.read_csv(cmd.rows_of)[1]
    preds = checks.read_csv(cmd.out)[1]
    assert checks.check_predictions(preds, test_rows, "x", numeric=True) == []
    assert checks.check_predictions(preds[:-1], test_rows, "x", numeric=True)
    moved = copy.deepcopy(preds)
    moved[0][1] = str(int(moved[0][1]) + 1000)
    assert checks.check_predictions(moved, test_rows, "x", numeric=True)
    nan = copy.deepcopy(preds)
    nan[1][2] = "nan"
    assert checks.check_predictions(nan, test_rows, "x", numeric=True)
    labels = checks.read_csv(_cmd(bench, "predict_resolution").out)[1]
    assert checks.check_predictions(labels, test_rows, "x",
                                    numeric=False) == []


def test_scores_use_session_and_window(bench):
    """A prediction equal to the frame log scores 1; the same values moved
    to another session score by that session's truth."""
    exps = bench[2]
    preds = checks.read_csv(_cmd(bench, "predict_fps").out)[1]
    exact = [[s, w, str(checks.truth_at(exps[s], int(w))[0])]
             for s, w, _p in preds]
    assert checks.score_fps(exact, exps) == 1.0
    off = [[s, w, str(float(p) + 3)] for s, w, p in exact]
    assert checks.score_fps(off, exps) == 0.0
    swapped = [["test-04-nortp.pcap" if s == "test-02" else "test-02", w, p]
               for s, w, p in exact]
    assert checks.score_fps(swapped, exps) < 1.0


def test_floors():
    floors = {"ml_fps_within2": 0.80, "ml_resolution_accuracy": 0.90}
    good = {"ml_fps_within2": 0.80, "ml_resolution_accuracy": 0.95}
    assert checks.check_floors(good, floors) == []
    assert checks.check_floors(dict(good, ml_fps_within2=0.79), floors)
    assert checks.check_floors({"ml_fps_within2": 0.9}, floors)


def test_lookback_rule():
    # sizes 1000, 1001 join; 1010 opens a frame; 1000 two back joins frame 0
    ends, nbytes = checks.lookback_frames([1, 2, 3, 4], [1000, 1001, 1010, 1000],
                                          delta=2, n_max=2)
    assert ends == [4, 3]
    assert nbytes == [988 + 989 + 988, 998]


def test_inseparable_seconds():
    video = [(1_000_000, 1000, "a"), (1_000_100, 1000, "a"),
             (2_500_000, 1001, "b"), (3_000_000, 1200, "c")]
    assert checks.inseparable_seconds(video, 2, 2) == [1, 2]
    assert checks.inseparable_seconds(video, 0, 2) == []
