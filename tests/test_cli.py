import hashlib
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


FEATURE_DIGESTS = {
    ("clean", "ipudp", "1"):
        "d0950c74e97c601f90803587ea9d48c6c2063ce26c1992b188d4452b397cdb08",
    ("clean", "ipudp", "2"):
        "aff2e01ab23ef415e94b94b3044a067448a500b4986d9576330b7fa508bbd7d7",
    ("clean", "rtp", "1"):
        "ee3886c5da3bbc99633511afbccb6cf1d533b2c540bd7f749310c83d4540335e",
    ("clean", "rtp", "2"):
        "da59446acf6a885d731819c288678e5b5b7078e2c47562f688d87c66e1f3cfbf",
    ("impaired", "ipudp", "1"):
        "83268d6013f6da37bea458a17252fc7e47ae84204d24789efe955abb29f22971",
    ("impaired", "ipudp", "2"):
        "23ab052038071309fa585d945aefccee32279d7550a767bb5dc5e947b756cddb",
    ("impaired", "rtp", "1"):
        "cbb48eae35b1012847b3b9273a993ebc7266507e64e752c20c6471cc0781d965",
    ("impaired", "rtp", "2"):
        "5075724bb6cf500bb835cbca6954916f48662473b2b4c3ba2e8d20e898311054",
}


def test_feature_bytes_are_pinned(tmp_path, corpus):
    impaired = tmp_path / "impaired"
    assert run(["synth", "--sessions", "2", "--duration", "8", "--jitter",
                "20", "--loss", "2", "--retransmit", "--seed", "7",
                "-o", str(impaired)]) == 0
    got = {}
    for name, feature_set, window in FEATURE_DIGESTS:
        root = corpus if name == "clean" else impaired
        out = tmp_path / f"{name}-{feature_set}-{window}.csv"
        assert run(["features", str(root), "--set", feature_set,
                    "--window", window, "-o", str(out)]) == 0
        got[name, feature_set, window] = hashlib.sha256(
            out.read_bytes()).hexdigest()
    assert got == FEATURE_DIGESTS


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


def test_trees_below_one_is_an_input_error(tmp_path, corpus):
    feats = tmp_path / "features.csv"
    assert run(["features", str(corpus), "-o", str(feats)]) == 0
    for trees in ("0", "-3"):
        model = tmp_path / f"model{trees}.json"
        assert run(["train", str(feats), "--target", "fps", "--trees", trees,
                    "-o", str(model)]) == 1
        assert not model.exists()


def test_config_flag_values(tmp_path):
    def synth(name, *extra, config=None):
        out = tmp_path / name
        argv = ["synth", "--duration", "6", "--seed", "3", "-o", str(out)]
        if config is not None:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            argv = ["--config", str(cfg)] + argv
        rc = run(argv + list(extra))
        files = sorted(out.iterdir()) if out.exists() else []
        return rc, [p.read_bytes() for p in files]

    rc, plain = synth("plain")
    assert rc == 0
    assert synth("off", config="non_separable=false\n") == (0, plain)
    assert synth("zero", config="non-separable = 0\n") == (0, plain)
    rc, flagged = synth("flag", "--non-separable")
    assert rc == 0 and flagged != plain
    assert synth("on", config="non_separable=true\n") == (0, flagged)
    assert synth("one", config="non_separable=1\n") == (0, flagged)
    assert synth("bad", config="non_separable=maybe\n")[0] == 1


def test_vca_picks_the_lookback(tmp_path):
    # one packet per frame, sizes separated from the previous frame only:
    # lookback 1 and 3 assemble different frames
    corpus = tmp_path / "corpus"
    assert run(["synth", "--bitrate", "250", "--size-jitter", "0",
                "--separable-depth", "1", "--duration", "10", "--seed", "2",
                "-o", str(corpus)]) == 0
    packets = str(corpus / "synth-2.packets.csv")

    def analyze(name, *flags):
        out = tmp_path / name
        assert run(["analyze", packets, *flags, "-o", str(out)]) == 0
        return out.read_bytes()

    meet = analyze("meet.csv", "--vca", "meet")
    webex = analyze("webex.csv", "--vca", "webex")
    assert meet == analyze("n3.csv", "--lookback", "3")
    assert webex == analyze("n1.csv", "--lookback", "1")
    assert meet != webex
    assert analyze("default.csv") == analyze("n2.csv", "--lookback", "2")
    assert analyze("meet1.csv", "--vca", "meet", "--lookback", "1") == webex


def test_reported_and_scored_windows_are_session_windows(tmp_path):
    from vcaqoe.heuristics import session_windows
    from vcaqoe.ingest import write_packet_csv
    from vcaqoe.pipeline import analyze_session, paired_metric
    from vcaqoe.synth import SenderProfile, generate, truth_from_frame_log

    # starts 0.2 s into second S and ends 0.7 s into second S + 9
    session, _truth, log = generate(SenderProfile(), 9.5, seed=5)
    packets = tmp_path / "call.packets.csv"
    write_packet_csv(session, str(packets))
    arrival_us = session.columns.arrival_us
    first_sec = int(arrival_us[0]) // 1_000_000
    assert int(arrival_us[-1]) // 1_000_000 == first_sec + 9
    assert first_sec % 2 == 0

    def keys_of(path):
        return [int(line.split(",")[1 if "features" in path.name else 0])
                for line in path.read_text().splitlines()[1:]]

    for w, expected in ((1, range(first_sec + 1, first_sec + 10)),
                        (2, range(first_sec + 2, first_sec + 9, 2))):
        windows = list(session_windows(session, w))
        assert windows == list(expected)
        for method in ("ipudp", "rtp"):
            est = tmp_path / f"analyze-{method}-{w}.csv"
            assert run(["analyze", str(packets), "--method", method,
                        "--window", str(w), "-o", str(est)]) == 0
            assert keys_of(est) == windows
        for feature_set in ("ipudp", "rtp"):
            feats = tmp_path / f"features-{feature_set}-{w}.csv"
            assert run(["features", str(packets), "--set", feature_set,
                        "--window", str(w), "-o", str(feats)]) == 0
            assert keys_of(feats) == windows
        truth = truth_from_frame_log(log, w=w, first_us=int(arrival_us[0]),
                                     last_us=int(arrival_us[-1]))
        series = analyze_session(session, "ipudp", w=float(w))
        scored, _ = paired_metric(series, truth.rows, "window_start",
                                  session, w=w)
        assert scored == windows


def _with_config(tmp_path, text, argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return run(["--config", str(cfg)] + argv)


def test_config_append_option_takes_a_list(tmp_path, corpus):
    est = tmp_path / "est.csv"
    assert run(["analyze", str(corpus / "synth-100.packets.csv"),
                "-o", str(est)]) == 0
    truth = str(corpus / "synth-100.truth.csv")
    for text, keys in (("tol=2\n", ["2.0"]), ("tol = 1, 3\n", ["1.0", "3.0"])):
        report = tmp_path / "fps.json"
        assert _with_config(tmp_path, text, ["evaluate", str(est), truth,
                                             "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert sorted(doc["within_tolerance"]) == keys


def test_config_unknown_key_is_an_input_error(tmp_path, corpus, capsys):
    est = tmp_path / "est.csv"
    assert _with_config(tmp_path, "lookbak=3\n", [
        "analyze", str(corpus / "synth-100.packets.csv"),
        "-o", str(est)]) == 1
    assert "lookbak" in capsys.readouterr().err
    assert not est.exists()


def test_config_keys_of_other_subcommands_are_not_converted(tmp_path,
                                                            corpus):
    packets = str(corpus / "synth-100.packets.csv")
    plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
    assert run(["analyze", packets, "-o", str(plain)]) == 0
    text = "trees=0\nretransmit=maybe\n"
    assert _with_config(tmp_path, text, ["analyze", packets,
                                         "-o", str(configured)]) == 0
    assert configured.read_bytes() == plain.read_bytes()
    feats, model = tmp_path / "features.csv", tmp_path / "model.json"
    assert run(["features", packets, "-o", str(feats)]) == 0
    assert _with_config(tmp_path, text, ["train", str(feats), "--target",
                                         "fps", "-o", str(model)]) == 1
    assert not model.exists()


@pytest.mark.parametrize("flags", [
    ["--axis", "loss", "--values", "0", "--n-seeds", "0"],
    ["--axis", "loss", "--values", "0", "--sessions", "0"],
    ["--axis", "window", "--values", "0"],
    ["--axis", "window", "--values", "2,0.5"],
])
def test_sweep_bad_sizes_are_input_errors(tmp_path, flags):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", *flags, "--duration", "4", "-o", str(out)]) == 1
    assert not out.exists()


def test_train_sizes_below_one_are_input_errors(tmp_path, corpus):
    feats = tmp_path / "features.csv"
    assert run(["features", str(corpus), "-o", str(feats)]) == 0
    for flag, value in (("--min-leaf", "0"), ("--min-leaf", "-2"),
                        ("--depth", "0"), ("--depth", "-1")):
        model = tmp_path / "model.json"
        assert run(["train", str(feats), "--target", "fps", "--trees", "2",
                    flag, value, "-o", str(model)]) == 1
        assert not model.exists()


@pytest.fixture(scope="module")
def fps_model(tmp_path_factory, corpus):
    """A feature CSV of the corpus and an fps model trained on it."""
    root = tmp_path_factory.mktemp("fps_model")
    feats, model = root / "features.csv", root / "fps.model.json"
    assert run(["features", str(corpus), "-o", str(feats)]) == 0
    assert run(["train", str(feats), "--target", "fps", "--trees", "3",
                "-o", str(model)]) == 0
    return feats, model


def test_header_only_feature_csv(tmp_path, fps_model, capsys):
    feats, model = fps_model
    empty = tmp_path / "empty.csv"
    empty.write_text(feats.read_text().splitlines()[0] + "\n")
    out = tmp_path / "m.json"
    assert run(["train", str(empty), "--target", "fps", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(empty) in err and "no rows" in err
    assert not out.exists()
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(model), str(empty), "-o", str(preds)]) == 0
    assert preds.read_text().splitlines() == [
        "session_id,window_start,prediction"]


def test_ragged_feature_csv_is_an_input_error(tmp_path, fps_model, capsys):
    feats, model = fps_model
    lines = feats.read_text().splitlines()
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("\n".join(lines[:3] + [lines[3].rsplit(",", 1)[0]]
                                + lines[4:]) + "\n")
    for argv in (["train", str(ragged), "--target", "fps"],
                 ["predict", str(model), str(ragged)]):
        out = tmp_path / "out"
        assert run([*argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(ragged) in err and "line 4" in err
        assert not out.exists()


@pytest.mark.parametrize("column,cell", [
    ("size_mean", "abc"), ("size_mean", "inf"), ("size_mean", "nan"),
    ("window_start", "abc")], ids=["abc", "inf", "nan", "window_start"])
def test_bad_feature_cell_is_named(tmp_path, fps_model, capsys, column,
                                   cell):
    feats, model = fps_model
    lines = feats.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index(column)] = cell
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    for argv in (["train", str(bad), "--target", "fps"],
                 ["predict", str(model), str(bad)]):
        out = tmp_path / "out"
        assert run([*argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "line 4" in err and column in err
        assert repr(cell) in err
        assert not out.exists()


def test_missing_truth_cell_is_accepted(tmp_path, fps_model):
    feats, _model = fps_model
    lines = feats.read_text().splitlines()
    row = lines[3].split(",")
    row[-2] = "nan"     # frame_jitter_ms
    some = tmp_path / "some.csv"
    some.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    assert run(["train", str(some), "--target", "jitter", "--trees", "2",
                "-o", str(tmp_path / "m.json")]) == 0


@pytest.mark.parametrize("damage", ["no_feature_names", "list", "ragged_tree",
                                    "child_loop", "feature_out_of_range"])
def test_malformed_model_is_an_input_error(tmp_path, fps_model, capsys,
                                           damage):
    feats, model = fps_model
    doc = json.loads(model.read_text())
    if damage == "no_feature_names":
        del doc["feature_names"]
    elif damage == "list":
        doc = [doc]
    elif damage == "ragged_tree":
        doc["trees"][0]["threshold"].append(0.5)
    elif damage == "child_loop":
        doc["trees"][0]["left"][0] = 0
    else:
        doc["trees"][0]["feature"][0] = len(doc["feature_names"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(bad), str(feats), "-o", str(preds)]) == 1
    assert str(bad) in capsys.readouterr().err
    assert not preds.exists()


def _without_rtp_csv(corpus, path):
    """A packet CSV of the corpus's first call with every RTP cell -1."""
    lines = (corpus / "synth-100.packets.csv").read_text().splitlines()
    path.write_text("\n".join(
        [lines[0]] + [",".join(line.split(",")[:6] + ["-1"] * 5)
                      for line in lines[1:]]) + "\n")
    return path


def test_rtp_commands_on_input_without_rtp_are_input_errors(tmp_path, corpus,
                                                            capsys):
    bare = _without_rtp_csv(corpus, tmp_path / "bare.packets.csv")
    out = tmp_path / "out.csv"
    for argv in (["analyze", str(bare), "--method", "rtp"],
                 ["features", str(bare), "--set", "rtp"]):
        assert run([*argv, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(bare) in err and "RTP" in err
        assert not out.exists()
    assert run(["analyze", str(bare), "-o", str(out)]) == 0


@pytest.mark.parametrize("flags", [["--sessions", "0"], ["--sessions", "-1"],
                                   ["--keyframe-interval", "-3"]])
def test_synth_bad_counts_are_input_errors(tmp_path, flags):
    out = tmp_path / "corpus"
    assert run(["synth", *flags, "--duration", "3", "-o", str(out)]) == 1
    assert not out.exists() or not os.listdir(out)
