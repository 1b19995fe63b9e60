"""End-to-end acceptance checks for the QoE estimation pipeline.

Each test covers one numbered criterion and prints a single PASS line on
success (run pytest with -s or -v to see one line per criterion).
"""

import time

import numpy as np
import pytest

from vcaqoe.assembly import IpUdpAssemblyParams, assemble_ipudp, assemble_rtp
from vcaqoe.classify import (classification_report, classify_by_payload_type,
                             classify_by_size, fit_vmin)
from vcaqoe.evaluation import (binning_for_heights, mae, mrae,
                               resolution_confusion, within_tolerance)
from vcaqoe.features import session_feature_rows
from vcaqoe.forest import (RandomForestClassifier, RandomForestRegressor,
                           kfold_by_session)
from vcaqoe.heuristics import session_windows
from vcaqoe.pipeline import analyze_session, paired_metric
from vcaqoe.sweeps import lookback_sweep, loss_sweep, window_sweep
from vcaqoe.synth import ImpairmentProfile, SenderProfile, generate, impair


def _report(n, message):
    print(f"CRITERION {n}: PASS — {message}")


def _comb2(x):
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1) / 2.0


def rand_index(a, b):
    """Rand index between two partitions given as per-item labels."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    codes = ai.astype(np.int64) * (int(bi.max()) + 1) + bi
    _, nij = np.unique(codes, return_counts=True)
    total = _comb2(np.array([n]))[0]
    s_ij = _comb2(nij).sum()
    s_a = _comb2(np.bincount(ai)).sum()
    s_b = _comb2(np.bincount(bi)).sum()
    return (total + 2 * s_ij - s_a - s_b) / total


@pytest.fixture(scope="module")
def clean_corpus():
    """20 clean 300 s sessions and the seconds it took to generate them."""
    start = time.monotonic()
    corpus = [generate(SenderProfile(fps=30.0), 300.0, seed=s)
              for s in range(20)]
    return corpus, time.monotonic() - start


def test_criterion_01_oracle_equivalence_clean(clean_corpus):
    # timed work: generating the corpus, then this body, whatever order the
    # tests sharing the fixture run in
    corpus, generate_s = clean_corpus
    start = time.monotonic()
    fps_pred = {"ipudp": [], "rtp": []}
    fps_truth = {"ipudp": [], "rtp": []}
    for session, truth, _log in corpus:
        video = classify_by_size(session).video_packets()
        est = assemble_ipudp(video, IpUdpAssemblyParams())
        labels_est = np.empty(len(video), dtype=np.int64)
        for fid, (lo, hi) in enumerate(zip(est.lo, est.hi)):
            labels_est[est.members[lo:hi]] = fid
        labels_oracle = np.array([p.rtp.timestamp for p in video])
        assert rand_index(labels_est, labels_oracle) == 1.0
        for method in ("ipudp", "rtp"):
            series = analyze_session(session, method)
            p, t = paired_metric(series, truth.rows, "fps", session)
            fps_pred[method] += p
            fps_truth[method] += t
    for method in ("ipudp", "rtp"):
        assert mae(fps_pred[method], fps_truth[method]) == 0.0
    elapsed = generate_s + (time.monotonic() - start)
    assert elapsed < 30.0
    _report(1, f"Rand index 1.0 and FPS MAE 0 on 20 clean sessions "
               f"({elapsed:.1f} s)")


def test_criterion_02_bitrate_mrae(clean_corpus):
    corpus, _generate_s = clean_corpus
    pred, truth = [], []
    for session, truth_series, _log in corpus:
        series = analyze_session(session, "ipudp")
        p, t = paired_metric(series, truth_series.rows, "bitrate_kbps",
                             session)
        pred += p
        truth += t
    value, _excluded = mrae(pred, truth)
    assert value <= 0.02
    _report(2, f"heuristic bitrate MRAE {value:.4f} <= 0.02")


def test_criterion_03_uniform_trace_zero_jitter():
    session, _truth, _log = generate(
        SenderProfile(fps=25.0, frame_size_jitter=0.0), 30.0, seed=42)
    series = analyze_session(session, "ipudp")
    checked = 0
    jitter = dict(zip(series.window_start.tolist(),
                      series.frame_jitter_ms.tolist()))
    for k in session_windows(session):
        assert jitter[k] == 0.0
        checked += 1
    assert checked >= 25
    _report(3, f"frame jitter exactly 0 ms in all {checked} complete windows")


def test_criterion_04_media_classification():
    recall, rejection = [], []
    for seed in range(5):
        session, _truth, _log = generate(SenderProfile(), 30.0, seed=seed)
        truth = classify_by_payload_type(session)
        threshold = fit_vmin(truth)
        pred = classify_by_size(session, threshold)
        rep = classification_report(pred, truth)
        # report layout: 2x2 row-normalized percent matrix with row totals
        assert len(rep.counts) == 2 and len(rep.counts[0]) == 2
        assert all(sum(row) == pytest.approx(100.0)
                   for row in rep.row_percent)
        recall.append(rep.recall("video"))
        rejection.append(rep.recall("non_video"))
    assert recall == [1.0] * 5
    assert rejection == [1.0] * 5
    _report(4, "100% video recall and 100% non-video rejection with "
               "fitted v_min on 5 sessions")


def _ml_corpus(n_sessions, duration_s, master_seed=0):
    """Impaired sessions with varied sender/network parameters plus exact
    per-window truth."""
    out = []
    for i in range(n_sessions):
        rng = np.random.default_rng([master_seed, i])
        profile = SenderProfile(
            fps=float(rng.integers(10, 31)),
            bitrate_kbps=float(rng.uniform(300.0, 1500.0)),
            audio_pps=10.0)
        impairment = ImpairmentProfile(
            delay_jitter_ms=float(rng.uniform(0.0, 100.0)),
            loss_prob=float(rng.uniform(0.0, 0.05)))
        session, truth, _log = generate(profile, duration_s, seed=i,
                                        session_id=f"ml-{i}")
        session = impair(session, impairment, seed=i)
        out.append((session, truth))
    return out


def _window_dataset(corpus, feature_set, target="fps"):
    groups, X_rows, y = [], [], []
    for session, truth in corpus:
        if feature_set == "ipudp":
            tagged = classify_by_size(session)
        else:
            tagged = classify_by_payload_type(session)
        keys, X = session_feature_rows(tagged, feature_set)
        truth_by_key = dict(zip(truth.rows.window_start.tolist(),
                                getattr(truth.rows, target).tolist()))
        windows = session_windows(session)
        for k, vec in zip(keys, X):
            if k not in windows:
                continue
            value = truth_by_key.get(k)
            if value is None:
                continue
            if value != value or value < 0:   # nan, or an unknown height
                continue
            groups.append(session.session_id)
            X_rows.append(vec)
            y.append(value)
    return np.array(groups), np.asarray(X_rows), np.asarray(y)


def _cv_predict(model_factory, X, y, folds):
    pred = np.empty(len(y), dtype=object)
    for fold_id, (train, test) in enumerate(folds):
        model = model_factory(fold_id)
        model.fit(X[train], y[train])
        pred[test] = model.predict(X[test])
    return pred


def test_criterion_05_ml_frame_rate():
    start = time.monotonic()
    corpus = _ml_corpus(200, 60.0)
    results = {}
    folds_cache = None
    for feature_set in ("ipudp", "rtp"):
        groups, X, y = _window_dataset(corpus, feature_set, "fps")
        folds = kfold_by_session(groups, k=5, seed=0)
        if folds_cache is None:
            folds_cache = [len(t) for _, t in folds]
        pred = _cv_predict(
            lambda f: RandomForestRegressor(n_trees=40, max_depth=14,
                                            min_samples_leaf=2, seed=f),
            X, y, folds)
        pred = pred.astype(np.float64)
        results[feature_set] = (mae(pred, y),
                                within_tolerance(pred, y, 2.0))
    ipudp_mae, ipudp_within2 = results["ipudp"]
    rtp_mae, _rtp_within2 = results["rtp"]
    elapsed = time.monotonic() - start
    assert ipudp_mae <= 2.0
    assert ipudp_within2 >= 0.80
    assert rtp_mae <= ipudp_mae + 0.5
    assert elapsed < 600.0
    _report(5, f"5-fold grouped CV on 200x60s: IP/UDP FPS MAE "
               f"{ipudp_mae:.3f}, within-2 {ipudp_within2:.3f}, RTP MAE "
               f"{rtp_mae:.3f} ({elapsed:.0f} s)")


def test_criterion_06_resolution_tiers():
    corpus = []
    for i in range(60):
        rng = np.random.default_rng([7, i])
        kbps = (200.0, 600.0, 1400.0)[i % 3]
        profile = SenderProfile(fps=float(rng.integers(15, 31)),
                                bitrate_kbps=kbps, audio_pps=10.0)
        impairment = ImpairmentProfile(
            delay_jitter_ms=float(rng.uniform(0.0, 50.0)),
            loss_prob=float(rng.uniform(0.0, 0.02)))
        session, truth, _log = generate(profile, 30.0, seed=i,
                                        session_id=f"res-{i}")
        session = impair(session, impairment, seed=i)
        corpus.append((session, truth))
    groups, X, heights = _window_dataset(corpus, "ipudp", "frame_height")
    heights = heights.astype(int)
    binning = binning_for_heights(heights)
    labels = np.array([binning.classify(h) for h in heights])
    folds = kfold_by_session(groups, k=5, seed=0)
    pred = _cv_predict(
        lambda f: RandomForestClassifier(n_trees=30, max_depth=12, seed=f),
        X, labels, folds)
    cm = resolution_confusion(list(pred), list(labels), binning)
    assert all(sum(row) == pytest.approx(100.0) or tot == 0
               for row, tot in zip(cm.row_percent, cm.row_totals))
    assert cm.accuracy() >= 0.90
    _report(6, f"3-tier resolution accuracy {cm.accuracy():.3f} >= 0.90")


def test_criterion_07_sensitivity_trends():
    loss_table = dict(loss_sweep([0.0, 5.0, 10.0, 20.0], n_sessions=3,
                                 duration_s=30.0, seeds=(0, 1, 2, 3, 4)))
    assert loss_table[20.0] > loss_table[0.0]
    window_table = window_sweep([1, 2, 5, 10], n_sessions=3, duration_s=60.0)
    maes = [m for _w, m in window_table]
    for a, b in zip(maes, maes[1:]):
        assert b <= a + 0.2
    _report(7, f"loss 20% MAE {loss_table[20.0]:.3f} > loss 0% MAE "
               f"{loss_table[0.0]:.3f}; window MAE non-increasing "
               f"{[round(m, 3) for m in maes]}")


def test_criterion_08_lookback_minimized_at_one():
    table = lookback_sweep([1, 2, 3], n_sessions=5, duration_s=30.0)
    by_lookback = dict(table)
    assert by_lookback[1] < by_lookback[2]
    assert by_lookback[1] < by_lookback[3]
    _report(8, f"FPS MAE minimized at lookback 1: "
               f"{[(int(k), round(v, 3)) for k, v in table]}")


def test_criterion_09_determinism(tmp_path):
    from vcaqoe.cli import run

    outputs = []
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        corpus = root / "corpus"
        assert run(["synth", "--sessions", "2", "--duration", "15",
                    "--jitter", "20", "--loss", "1", "--seed", "5",
                    "-o", str(corpus)]) == 0
        feats = root / "features.csv"
        assert run(["features", str(corpus), "-o", str(feats)]) == 0
        model = root / "model.json"
        assert run(["train", str(feats), "--target", "fps", "--trees", "8",
                    "--seed", "3", "-o", str(model)]) == 0
        preds = root / "preds.csv"
        assert run(["predict", str(model), str(feats),
                    "-o", str(preds)]) == 0
        est = root / "est.csv"
        assert run(["analyze", str(corpus / "synth-5.packets.csv"),
                    "-o", str(est)]) == 0
        blob = b"".join(sorted(p.read_bytes()
                               for p in corpus.iterdir()))
        blob += feats.read_bytes() + model.read_bytes()
        blob += preds.read_bytes() + est.read_bytes()
        outputs.append(blob)
    assert outputs[0] == outputs[1]
    _report(9, "synth/features/train/predict/analyze byte-identical "
               "across two seeded runs")


def test_criterion_10_forest_properties():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 4))
    const = RandomForestRegressor(n_trees=5, seed=1).fit(X, np.full(120, 3.5))
    assert np.allclose(const.predict(X), 3.5)

    y_cls = np.where(X[:, 1] > 0.2, "a", "b")
    clf = RandomForestClassifier(n_trees=10, seed=2).fit(X, y_cls)
    assert (clf.predict(X) == y_cls).mean() == 1.0

    y_reg = 2.0 * X[:, 0] + rng.normal(0, 0.1, 120)
    reg = RandomForestRegressor(n_trees=10, seed=3).fit(X, y_reg)
    assert abs(reg.feature_importances_.sum() - 1.0) <= 1e-9

    groups = np.repeat([f"s{i}" for i in range(8)], 10)
    folds = kfold_by_session(groups, k=4, seed=0)
    covered = np.concatenate([t for _, t in folds])
    assert sorted(covered) == list(range(len(groups)))
    for train, test in folds:
        assert set(groups[train]).isdisjoint(groups[test])
    _report(10, "constant-target exactness, separable classification, "
                "importance normalization, grouped folds")
