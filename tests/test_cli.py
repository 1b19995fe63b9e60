import json
import os

import pytest

from vcaqoe.cli import run


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    rc = run(["synth", "--sessions", "3", "--duration", "12",
              "--seed", "100", "-o", str(root)])
    assert rc == 0
    return root


def test_synth_writes_triplets(corpus):
    names = sorted(os.listdir(corpus))
    assert len(names) == 9
    for seed in (100, 101, 102):
        for suffix in (".packets.csv", ".truth.csv", ".frames.csv"):
            assert f"synth-{seed}{suffix}" in names


def test_synth_is_byte_deterministic(tmp_path, corpus):
    other = tmp_path / "again"
    assert run(["synth", "--sessions", "3", "--duration", "12",
                "--seed", "100", "-o", str(other)]) == 0
    for name in sorted(os.listdir(corpus)):
        assert (other / name).read_bytes() == (corpus / name).read_bytes()


def test_classify_report(tmp_path, corpus):
    out = tmp_path / "report.json"
    rc = run(["classify", str(corpus / "synth-100.packets.csv"),
              "--fit-vmin", "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["video_recall"] == 1.0
    assert doc["non_video_rejection"] == 1.0
    assert doc["v_min"] > 385


def test_analyze_then_evaluate(tmp_path, corpus):
    est = tmp_path / "est.csv"
    rc = run(["analyze", str(corpus / "synth-100.packets.csv"),
              "--method", "ipudp", "-o", str(est)])
    assert rc == 0
    report = tmp_path / "fps.json"
    rc = run(["evaluate", str(est), str(corpus / "synth-100.truth.csv"),
              "--metric", "fps", "--tol", "2", "-o", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["mae"] == pytest.approx(0.0, abs=1e-9)
    assert doc["within_tolerance"]["2.0"] == 1.0


def test_features_train_predict_cycle(tmp_path, corpus):
    feats = tmp_path / "features.csv"
    assert run(["features", str(corpus), "--set", "ipudp",
                "-o", str(feats)]) == 0
    header = feats.read_text().splitlines()[0].split(",")
    assert header[:2] == ["session_id", "window_start"]
    assert header[-4:] == ["fps", "bitrate_kbps", "frame_jitter_ms",
                           "frame_height"]
    assert len(header) == 2 + 14 + 4

    model = tmp_path / "fps.model.json"
    assert run(["train", str(feats), "--target", "fps", "--trees", "10",
                "-o", str(model)]) == 0
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0
    lines = preds.read_text().splitlines()
    assert lines[0] == "session_id,window_start,prediction"
    assert len(lines) > 10

    report = tmp_path / "ml.json"
    assert run(["evaluate", str(preds), str(corpus / "synth-100.truth.csv"),
                "--metric", "fps", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["mae"] < 3.0


def test_resolution_training(tmp_path, corpus):
    feats = tmp_path / "features.csv"
    assert run(["features", str(corpus), "-o", str(feats)]) == 0
    model = tmp_path / "res.model.json"
    assert run(["train", str(feats), "--target", "resolution",
                "--trees", "10", "-o", str(model)]) == 0
    preds = tmp_path / "res.csv"
    assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0
    report = tmp_path / "res.json"
    assert run(["evaluate", str(preds), str(corpus / "synth-100.truth.csv"),
                "--metric", "resolution", "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["accuracy"] >= 0.9


def test_sweep_lookback(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--axis", "lookback", "--values", "1,2",
              "--sessions", "2", "--duration", "10", "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lookback,fps_mae"
    assert len(lines) == 3


def test_config_defaults_flags_win(tmp_path, corpus):
    cfg = tmp_path / "cfg"
    cfg.write_text("vmin=600\nwindow=1\n")
    est = tmp_path / "est.csv"
    rc = run(["--config", str(cfg), "analyze",
              str(corpus / "synth-100.packets.csv"), "-o", str(est)])
    assert rc == 0
    assert est.exists()


def test_exit_code_input_error(tmp_path):
    assert run(["analyze", str(tmp_path / "missing.csv"),
                "-o", str(tmp_path / "x.csv")]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,packet,csv\n1,2,3,4\n")
    assert run(["analyze", str(bad), "-o", str(tmp_path / "x.csv")]) == 1


def test_exit_code_usage_error():
    assert run(["analyze"]) == 1
    assert run(["not-a-command"]) == 1


def test_exit_code_internal_error(tmp_path, monkeypatch):
    import vcaqoe.cli as cli
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_sweep", boom)
    rc = run(["sweep", "--axis", "loss", "--values", "0"])
    assert rc == 2


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip()


def test_features_expands_pcaps_in_a_directory(tmp_path):
    from vcaqoe.ingest import write_ground_truth_csv, write_pcap
    from vcaqoe.synth import SenderProfile, generate
    session, truth, _log = generate(SenderProfile(), 6.0, seed=4)
    write_pcap(session, str(tmp_path / "call.pcap"))
    write_ground_truth_csv(truth.rows, str(tmp_path / "call.truth.csv"))
    feats = tmp_path / "features.csv"
    assert run(["features", str(tmp_path), "-o", str(feats)]) == 0
    rows = [line.split(",") for line in feats.read_text().splitlines()[1:]]
    assert len(rows) >= 4
    assert {r[0] for r in rows} == {"call.pcap"}
    assert all(r[-4] != "nan" for r in rows)     # fps from call.truth.csv


def test_window_zero_is_an_input_error(tmp_path, corpus):
    packets = str(corpus / "synth-100.packets.csv")
    assert run(["analyze", packets, "--window", "0",
                "-o", str(tmp_path / "est.csv")]) == 1
    assert run(["features", packets, "--window", "0",
                "-o", str(tmp_path / "f.csv")]) == 1


def test_config_without_path_is_an_input_error(capsys):
    assert run(["analyze", "x.csv", "-o", "y.csv", "--config"]) == 1
    assert "--config" in capsys.readouterr().err


def _preds_of(path, session_id):
    lines = path.read_text().splitlines()[1:]
    return {int(w): float(v) for s, w, v in
            (line.split(",") for line in lines) if s == session_id}


def test_evaluate_scores_the_truth_files_session(tmp_path):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--sessions", "3", "--duration", "10", "--seed",
                "100", "--jitter", "10", "-o", str(corpus)]) == 0
    feats = tmp_path / "features.csv"
    assert run(["features", str(corpus), "-o", str(feats)]) == 0
    model = tmp_path / "fps.model.json"
    assert run(["train", str(feats), "--target", "fps", "--trees", "10",
                "-o", str(model)]) == 0
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0

    truth_path = corpus / "synth-100.truth.csv"
    report = tmp_path / "fps.json"
    assert run(["evaluate", str(preds), str(truth_path), "--metric", "fps",
                "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    mine = _preds_of(preds, "synth-100")
    truth = {int(r[0]): float(r[1]) for r in
             (line.split(",") for line in
              truth_path.read_text().splitlines()[1:])}
    assert doc["n_pairs"] == len(mine)
    assert doc["mae"] == pytest.approx(
        sum(abs(v - truth[k]) for k, v in mine.items()) / len(mine))

    other = tmp_path / "synth-999.truth.csv"
    other.write_bytes(truth_path.read_bytes())
    assert run(["evaluate", str(preds), str(other), "--metric", "fps"]) == 1


def test_evaluate_resolution_class_labels(tmp_path):
    preds = tmp_path / "preds.csv"
    preds.write_text("session_id,window_start,prediction\n"
                     "call,10,low\ncall,11,high\ncall,12,high\n"
                     "other,10,high\n")
    truth = tmp_path / "call.truth.csv"
    truth.write_text("t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
                     "10,30,800,1,180\n11,30,800,1,720\n12,30,800,1,360\n")
    report = tmp_path / "res.json"
    assert run(["evaluate", str(preds), str(truth), "--metric", "resolution",
                "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["classes"] == ["low", "medium", "high"]
    assert doc["accuracy"] == pytest.approx(2 / 3)
