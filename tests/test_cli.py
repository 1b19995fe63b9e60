import base64
import hashlib
import json
import os

import numpy as np
import pytest

import vcaqoe
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


@pytest.fixture(scope="module")
def impaired(tmp_path_factory):
    """The impaired corpus of test_feature_bytes_are_pinned."""
    root = tmp_path_factory.mktemp("impaired")
    assert run(["synth", "--sessions", "2", "--duration", "8", "--jitter",
                "20", "--loss", "2", "--retransmit", "--seed", "7",
                "-o", str(root)]) == 0
    return root


# sha256 of the analyze outputs of synth-7 then synth-8, concatenated
ANALYZE_DIGESTS = {
    ("ipudp", "1"):
        "504b412ec9767ea3bf5cd6aa324b8d0d0db921c90ec15077d5b47a1f6409b1fc",
    ("ipudp", "2"):
        "f576884a66de1866d824a66a3c234874607f4fa0afce09147ec5edbdea00d2f8",
    ("rtp", "1"):
        "46051bca3a6c41fda5a4a70e1c2604f3304f6df190c3544342e9fb6a38df97e6",
    ("rtp", "2"):
        "a8ecf30251cd35310e11a42c9661e303f5e34b1442764c87bc4e60572940356b",
}


def test_analyze_bytes_are_pinned(tmp_path, impaired):
    got = {}
    for method, window in ANALYZE_DIGESTS:
        digest = hashlib.sha256()
        for stem in ("synth-7", "synth-8"):
            out = tmp_path / f"{stem}-{method}-{window}.csv"
            assert run(["analyze", str(impaired / f"{stem}.packets.csv"),
                        "--method", method, "--window", window,
                        "-o", str(out)]) == 0
            digest.update(out.read_bytes())
        got[method, window] = digest.hexdigest()
    assert got == ANALYZE_DIGESTS


# sha256 of evaluate's JSON for synth-7: (metric, what made the PRED file)
EVALUATE_DIGESTS = {
    ("fps", "analyze"):
        "0679f59b44662dacbdc37c0ea1089912aee820409d5270e4de00a7107e60f529",
    ("jitter", "analyze"):
        "bb557c4a0de9dcb465af7155ad579ff4697d12691dc6e24321a9c06c496ad490",
    ("fps", "predict"):
        "a70187c53db9bb25b6eb80d99144ec143849f4552e1f33d5cd5783f19a58392f",
    ("resolution", "predict"):
        "e32ede552d4f38b62a801cb642f17f543e74a01e0839f213d4ab3d37bf29d86c",
}


def test_evaluate_bytes_are_pinned(tmp_path, impaired):
    est = tmp_path / "est.csv"
    assert run(["analyze", str(impaired / "synth-7.packets.csv"),
                "-o", str(est)]) == 0
    feats = tmp_path / "features.csv"
    assert run(["features", str(impaired), "-o", str(feats)]) == 0
    pred_of = {"analyze": est}
    for target in ("fps", "resolution"):
        model, preds = tmp_path / f"{target}.json", tmp_path / f"{target}.csv"
        assert run(["train", str(feats), "--target", target, "--trees", "5",
                    "-o", str(model)]) == 0
        assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0
        pred_of[target] = preds
    got = {}
    for metric, source in EVALUATE_DIGESTS:
        pred = pred_of[metric if source == "predict" else source]
        report = tmp_path / f"{metric}-{source}.json"
        assert run(["evaluate", str(pred), str(impaired / "synth-7.truth.csv"),
                    "--metric", metric, "--tol", "1", "--tol", "2",
                    "-o", str(report)]) == 0
        got[metric, source] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert got == EVALUATE_DIGESTS


# sha256 of predict's CSV for a 5-tree model of each target trained on the
# impaired corpus's features
PREDICT_DIGESTS = {
    "fps":
        "e6443b70e981451fea649b57308c1f1d6303a711850a6ac1e36227476d541c2f",
    "bitrate":
        "d4fec0f3cfdad1313c7b988be08583243fc77551debfb8aca8eb798b27434e5b",
    "resolution":
        "0936544b0256479104f4debd10a7ff004cd5ae5c3d29ef3f1b828ead67feccd8",
}


def test_predict_bytes_are_pinned(tmp_path, impaired):
    feats = tmp_path / "features.csv"
    assert run(["features", str(impaired), "-o", str(feats)]) == 0
    got = {}
    for target in PREDICT_DIGESTS:
        model, preds = tmp_path / f"{target}.json", tmp_path / f"{target}.csv"
        assert run(["train", str(feats), "--target", target, "--trees", "5",
                    "-o", str(model)]) == 0
        assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0
        got[target] = hashlib.sha256(preds.read_bytes()).hexdigest()
    assert got == PREDICT_DIGESTS


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


# sha256 of classify's JSON for synth-100, by the threshold flags
CLASSIFY_DIGESTS = {
    ("--fit-vmin",):
        "e30929be8961f0755db86b2cafe4cfacc406e5986b11fc16500af309589e5b1b",
    ("--vmin", "400"):
        "2adb772f9618a6fade0d57c450ff4c05de7e3e7233764f7f2eb460d0d3de6586",
    ("--vmin", "1000"):
        "2b59f0b4fe89bb20827147b81fd2fd0b9eecc5380d7754601acb5a41ab6fc11a",
}


def test_classify_bytes_are_pinned(tmp_path, corpus):
    got = {}
    for flags in CLASSIFY_DIGESTS:
        report = tmp_path / "report.json"
        assert run(["classify", str(corpus / "synth-100.packets.csv"),
                    *flags, "-o", str(report)]) == 0
        got[flags] = hashlib.sha256(report.read_bytes()).hexdigest()
    assert got == CLASSIFY_DIGESTS


# sha256 of sweep's table for one 4 s session and one seed, by (axis, values)
SWEEP_DIGESTS = {
    ("loss", "0,20"):
        "bdedcac2434fb875f1e6245ac6ecc91b8c778fe0e2b53a234bb4c45686e37d37",
    ("jitter", "0,20"):
        "ff96221d63f091790fd8c7e0692a37bfdec2695720f3c4f929938dfa988944ab",
    ("window", "1,2"):
        "92951d18a209c4da4374b0a65240a1231a2393b980d3ef1540fc9dfa8d653a18",
    ("lookback", "1,2"):
        "ee7d44938d996722d8ef9df3aa0560d2166dd0ac23e7490751dc9f8d222175b1",
}


def test_sweep_bytes_are_pinned(tmp_path, capsys):
    got = {}
    for axis, values in SWEEP_DIGESTS:
        table = tmp_path / f"{axis}.csv"
        argv = ["sweep", "--axis", axis, "--values", values, "--sessions",
                "1", "--duration", "4", "--n-seeds", "1"]
        assert run(argv + ["-o", str(table)]) == 0
        capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr().out.encode() == table.read_bytes()
        got[axis, values] = hashlib.sha256(table.read_bytes()).hexdigest()
    assert got == SWEEP_DIGESTS


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


@pytest.mark.parametrize("inputs", ["directory", "two_files"])
def test_features_truth_needs_one_file_input(tmp_path, corpus, capsys,
                                             inputs):
    packets = ([str(corpus)] if inputs == "directory" else
               [str(corpus / f"synth-{seed}.packets.csv")
                for seed in (100, 101)])
    out = tmp_path / "features.csv"
    assert run(["features", *packets, "--truth",
                str(corpus / "synth-100.truth.csv"), "-o", str(out)]) == 1
    assert "--truth" in capsys.readouterr().err
    assert not out.exists()


def test_packet_csv_and_pcap_of_one_call_agree(tmp_path):
    """One impaired call read as its packet CSV and as a pcap written from
    it gives the same analyze bytes and the same feature rows, but for the
    session_id cell, which names the file."""
    from vcaqoe.ingest import read_packet_csv, write_pcap
    assert run(["synth", "--duration", "8", "--jitter", "20", "--loss",
                "2", "--retransmit", "--seed", "9", "-o", str(tmp_path)]) == 0
    csv_path = str(tmp_path / "synth-9.packets.csv")
    pcap_path = str(tmp_path / "synth-9.pcap")
    write_pcap(read_packet_csv(csv_path), pcap_path)
    truth = str(tmp_path / "synth-9.truth.csv")

    def output(*argv):
        out = tmp_path / "out.csv"
        assert run([*argv, "-o", str(out)]) == 0
        return out.read_text().splitlines()

    for window in ("1", "2"):
        for method in ("ipudp", "rtp"):
            analyzed = [output("analyze", path, "--method", method,
                               "--window", window)
                        for path in (csv_path, pcap_path)]
            assert analyzed[0] == analyzed[1]
            features = [output("features", path, "--set", method,
                               "--window", window, "--truth", truth)
                        for path in (csv_path, pcap_path)]
            assert len(features[0]) == len(features[1]) > 2
            assert features[0][0] == features[1][0]
            for a, b in zip(features[0][1:], features[1][1:]):
                assert a.split(",", 1) == ["synth-9", b.split(",", 1)[1]]
                assert b.startswith("synth-9.pcap,")


def test_analyze_of_a_header_only_packet_csv_is_an_input_error(
        tmp_path, corpus, capsys):
    packets = tmp_path / "empty.packets.csv"
    packets.write_text((corpus / "synth-100.packets.csv").read_text()
                       .splitlines(keepends=True)[0])
    out = tmp_path / "est.csv"
    assert run(["analyze", str(packets), "-o", str(out)]) == 1
    assert f"{packets}: no packet rows" in capsys.readouterr().err
    assert not out.exists()


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


def test_evaluate_resolution_classes_sort_by_height(tmp_path):
    truth = tmp_path / "call.truth.csv"
    truth.write_text("t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
                     "10,30,800,1,180\n11,30,800,1,1080\n12,30,800,1,360\n")
    report = tmp_path / "res.json"
    assert run(["evaluate", str(truth), str(truth), "--metric", "resolution",
                "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["classes"] == ["180", "360", "1080"]
    assert doc["counts"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_evaluate_resolution_with_nothing_to_score_is_an_input_error(
        tmp_path, corpus, capsys):
    """analyze estimates no height, so no window pairs a known height with
    a prediction: like fps without a valid pair, that exits 1."""
    est, report = tmp_path / "est.csv", tmp_path / "res.json"
    assert run(["analyze", str(corpus / "synth-100.packets.csv"),
                "-o", str(est)]) == 0
    capsys.readouterr()
    assert run(["evaluate", str(est), str(corpus / "synth-100.truth.csv"),
                "--metric", "resolution", "-o", str(report)]) == 1
    assert "no valid pairs" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_reads_truth_as_a_truth_csv_only(tmp_path, capsys):
    preds = tmp_path / "synth-1.csv"
    preds.write_text("session_id,window_start,prediction\n"
                     "synth-1,10,30\nsynth-1,11,720\n")
    for metric in ("fps", "resolution"):
        assert run(["evaluate", str(preds), str(preds),
                    "--metric", metric]) == 1
        err = capsys.readouterr().err
        assert str(preds) in err and "line 1" in err and "header" in err


def test_evaluate_repeated_prediction_window_is_an_input_error(tmp_path,
                                                              capsys):
    truth = tmp_path / "call.truth.csv"
    truth.write_text("t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
                     "10,30,800,1,720\n11,30,800,1,720\n")
    preds = tmp_path / "preds.csv"
    preds.write_text("session_id,window_start,prediction\n"
                     "call,10,29\nother,11,1\nother,11,2\ncall,11,28\n")
    assert run(["evaluate", str(preds), str(truth)]) == 0
    preds.write_text(preds.read_text() + "call,10,31\n")
    assert run(["evaluate", str(preds), str(truth)]) == 1
    err = capsys.readouterr().err
    assert str(preds) in err and "window_start=10 repeated" in err


def test_evaluate_truth_schema_pred_unknown_height_is_missing(tmp_path):
    header = "t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
    truth = tmp_path / "call.truth.csv"
    truth.write_text(header + "10,30,800,1,180\n11,30,800,1,720\n"
                     "12,30,800,1,360\n")
    est = tmp_path / "est.csv"
    est.write_text(header + "10,30,800,1,180\n11,30,800,1,-1\n"
                   "12,30,800,1,-7\n")
    report = tmp_path / "res.json"
    assert run(["evaluate", str(est), str(truth), "--metric", "resolution",
                "-o", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["classes"] == ["180"] and doc["row_totals"] == [1]


def test_synth_that_sends_no_packet_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert run(["synth", "--fps", "0.4", "--audio-pps", "0", "--duration",
                "2", "-o", str(out)]) == 1
    assert "no packet" in capsys.readouterr().err
    assert not out.exists()


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


def test_config_defaults_do_not_outlive_their_run(tmp_path):
    def synth(name, *argv):
        out = tmp_path / name
        assert run(list(argv) + ["synth", "--duration", "6", "--seed", "3",
                                 "-o", str(out)]) == 0
        return [p.read_bytes() for p in sorted(out.iterdir())]

    plain = synth("plain")
    cfg = tmp_path / "on.cfg"
    cfg.write_text("non_separable=true\nseed=4\n")
    assert synth("configured", "--config", str(cfg)) != plain
    assert synth("plain-again") == plain


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
    ["--axis", "window", "--values", "1.5"],
    ["--axis", "lookback", "--values", "2.5"],
    ["--axis", "lookback", "--values", "0"],
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


@pytest.mark.parametrize("column,cell", [
    ("src_ip", "10.0.0"), ("dst_ip", "255.255.255.255xyz"),
    ("src_ip", "10.0.0.02"), ("dst_ip", "\u20ac.0.0.1"), ("src_ip", "")],
    ids=["three-octets", "too-long", "leading-zero", "not-latin-1", "empty"])
def test_bad_address_cell_is_named(tmp_path, corpus, capsys, column, cell):
    lines = (corpus / "synth-100.packets.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index(column)] = cell
    bad = tmp_path / "bad.packets.csv"
    bad.write_text("\n".join(lines[:5] + [",".join(row)] + lines[6:]) + "\n",
                   encoding="utf-8")
    out = tmp_path / "est.csv"
    assert run(["analyze", str(bad), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "line 6" in err and column in err
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


@pytest.fixture(scope="module")
def resolution_model(tmp_path_factory, fps_model):
    """A resolution classifier trained on fps_model's feature CSV."""
    model = tmp_path_factory.mktemp("resolution_model") / "res.model.json"
    assert run(["train", str(fps_model[0]), "--target", "resolution",
                "--trees", "3", "-o", str(model)]) == 0
    return model


def _encoded(a, dtype):
    return {"dtype": dtype,
            "data": base64.b64encode(a.astype(dtype).tobytes()).decode()}


def _damaged(doc, damage):
    """A model document with one fault; its first tree splits at its root
    and ends in a leaf."""
    nodes = {k: np.frombuffer(base64.b64decode(e["data"]), e["dtype"]).copy()
             for k, e in doc["nodes"].items()}
    dtypes = {k: e["dtype"] for k, e in doc["nodes"].items()}
    first = doc["trees"][0]     # the first tree's node count
    if damage == "no_feature_names":
        del doc["feature_names"]
    elif damage == "list":
        doc = [doc]
    elif damage == "ragged_tree":
        nodes["threshold_or_value"] = np.append(nodes["threshold_or_value"],
                                                0.5)
    elif damage == "split_after_its_children":
        # leaf, split, leaf: the split's children would be itself and the
        # node after it
        doc["trees"][0] = 3
        nodes = {k: np.concatenate([a[[first - 1, 0, first - 1]], a[first:]])
                 for k, a in nodes.items()}
    elif damage == "node_count_not_odd":
        doc["trees"][0] -= 1
        nodes = {k: np.delete(a, first - 1) for k, a in nodes.items()}
    elif damage == "feature_out_of_range":
        nodes["feature"][0] = len(doc["feature_names"])
    elif damage == "negative_feature":
        tree = nodes["feature"][:first]
        tree[tree >= 0] = -5
    elif damage == "fractional_feature":
        # a feature of 1.5 is no value of an integer array: write the
        # array as floats
        dtypes["feature"] = "<f8"
        nodes["feature"] = nodes["feature"].astype(float)
        nodes["feature"][0] = 1.5
    elif damage == "integer_threshold":
        dtypes["threshold_or_value"] = "<i4"
    elif damage == "zero_itemsize":
        # a dtype of zero-byte items, which no item count divides
        dtypes["feature"] = "S"
    elif damage == "nan_threshold":
        nodes["threshold_or_value"][0] = float("nan")
    elif damage == "nan_value":
        nodes["threshold_or_value"][first - 1] = float("nan")
    elif damage == "no_trees":
        doc["trees"] = []
    elif damage == "class_out_of_range":
        nodes["threshold_or_value"][first - 1] = 99.0
    elif damage == "fractional_class":
        nodes["threshold_or_value"][first - 1] = 0.5
    elif damage == "no_classes":
        doc["classes"] = []
    elif damage == "node_counts_off":
        doc["trees"][0] += 1
    elif damage == "fractional_node_count":
        doc["trees"][0] = 1.5
    elif damage == "format_1":
        # format 1: one object of per-node lists per tree
        sizes = doc["trees"]
        doc["trees"] = [{k: a[e - n:e].tolist() for k, a in nodes.items()}
                        for n, e in zip(sizes, np.cumsum(sizes))]
        doc["format_version"] = 1
    elif damage == "format_2":
        # format 2: each node's children, and a threshold and a value each
        f, mixed = nodes.pop("feature"), nodes.pop("threshold_or_value")
        split = f >= 0
        k = np.cumsum(split) - split
        k -= np.repeat(k[np.cumsum(doc["trees"]) - doc["trees"]],
                       doc["trees"])
        nodes = {"feature": f, "threshold": np.where(split, mixed, 0.0),
                 "left": np.where(split, 2 * k + 1, -1),
                 "right": np.where(split, 2 * k + 2, -1),
                 "value": np.where(split, 0.0, mixed)}
        dtypes = {"feature": "<i4", "threshold": "<f8", "left": "<i4",
                  "right": "<i4", "value": "<f8"}
        doc["format_version"] = 2
    if isinstance(doc, dict) and "nodes" in doc:
        doc["nodes"] = {k: _encoded(a, dtypes[k]) for k, a in nodes.items()}
    if damage == "partial_item":
        field = doc["nodes"]["threshold_or_value"]
        field["data"] = base64.b64encode(
            base64.b64decode(field["data"]) + b"\0").decode()
    elif damage == "format_1":
        del doc["nodes"]
    return doc


# what the error says of each fault _damaged makes
DAMAGE_SAID = {
    "no_feature_names": "feature_names", "list": "not a model",
    "ragged_tree": "differ in length",
    "split_after_its_children": "a split does not come before its children",
    "node_count_not_odd": "node count is not one more than twice its splits",
    "feature_out_of_range": "unknown feature",
    "negative_feature": "unknown feature",
    "fractional_feature": "not integers", "nan_threshold": "not finite",
    "nan_value": "not finite", "no_trees": "no trees",
    "class_out_of_range": "not a class index",
    "fractional_class": "not a class index", "no_classes": "no classes",
    "integer_threshold": "threshold_or_value array of type <i4, not floats",
    "zero_itemsize": "feature array of type S, not integers",
    "node_counts_off": "node counts do not sum",
    "fractional_node_count": "malformed model (TypeError: node indices of "
                             "type float64, not integers)",
    "partial_item": "not a whole number of 8-byte items",
    "format_1": "unsupported model format 1; this version reads format 3, "
                "so train the model again",
    "format_2": "unsupported model format 2; this version reads format 3, "
                "so train the model again"}


@pytest.mark.parametrize("damage", DAMAGE_SAID)
def test_malformed_model_is_an_input_error(tmp_path, fps_model,
                                           resolution_model, capsys, damage):
    feats, model = fps_model
    if "class" in damage:
        model = resolution_model
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_damaged(json.loads(model.read_text()),
                                       damage)))
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(bad), str(feats), "-o", str(preds)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and DAMAGE_SAID[damage] in err
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
                                   ["--keyframe-interval", "-3"],
                                   ["--separable-depth", "-2"],
                                   ["--separable-depth", "0"]])
def test_synth_bad_counts_are_input_errors(tmp_path, flags):
    out = tmp_path / "corpus"
    assert run(["synth", *flags, "--duration", "3", "-o", str(out)]) == 1
    assert not out.exists() or not os.listdir(out)


# (file in the corpus or made from fps_model, numeric column, the argv
# that reads it); no subcommand reads a frame log, so its reader is called
CSV_KINDS = {
    "packets": ("synth-100.packets.csv", "udp_payload_len",
                lambda bad, c, f: ["analyze", bad, "-o", "out.csv"]),
    "truth": ("synth-100.truth.csv", "fps",
              lambda bad, c, f: ["features", str(c / "synth-100.packets.csv"),
                                 "--truth", bad, "-o", "out.csv"]),
    "features": ("features.csv", "window_start",
                 lambda bad, c, f: ["train", bad, "--target", "fps",
                                    "-o", "out.json"]),
    "predictions": ("preds.csv", "window_start",
                    lambda bad, c, f: ["evaluate", bad,
                                       str(c / "synth-100.truth.csv")]),
    "frame_log": ("synth-100.frames.csv", "media_bytes", None),
}


@pytest.mark.parametrize("fault", ["short_row", "bad_cell", "bad_header"])
@pytest.mark.parametrize("kind", sorted(CSV_KINDS))
def test_malformed_csv_inputs_name_file_line_and_column(
        tmp_path, corpus, fps_model, capsys, monkeypatch, kind, fault):
    from vcaqoe.ingest import IngestError
    from vcaqoe.synth import read_frame_log_csv
    feats, model = fps_model
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(model), str(feats), "-o", str(preds)]) == 0
    name, column, argv = CSV_KINDS[kind]
    source = {"features.csv": feats, "preds.csv": preds}.get(
        name, corpus / name)
    lines = source.read_text().splitlines()
    header = lines[0].split(",")
    if fault == "short_row":
        lines[3] = lines[3].rsplit(",", 1)[0]
        line, column = 4, header[-1]
    else:
        line = 1 if fault == "bad_header" else 4
        cells = lines[line - 1].split(",")
        cells[header.index(column)] = "x1"
        lines[line - 1] = ",".join(cells)
    bad = tmp_path / f"bad-{name}"
    bad.write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    if argv is None:
        with pytest.raises(IngestError) as exc:
            read_frame_log_csv(str(bad))
        err = str(exc.value)
    else:
        assert run(argv(str(bad), corpus, feats)) == 1
        err = capsys.readouterr().err
        assert not any(p.startswith("out.") for p in os.listdir(tmp_path))
    assert f"{bad}: line {line}, column {column}:" in err


def test_directory_paths_are_input_errors(tmp_path, corpus, capsys):
    folder = tmp_path / "d.pcap"
    folder.mkdir()
    assert run(["analyze", str(folder), "-o", str(tmp_path / "x.csv")]) == 1
    assert str(folder) in capsys.readouterr().err
    assert run(["analyze", str(corpus / "synth-100.packets.csv"),
                "-o", str(folder)]) == 1
    assert str(folder) in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [
    ["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--c={}"]])
def test_config_is_read_in_every_spelling(tmp_path, corpus, capsys,
                                          spelling):
    packets = str(corpus / "synth-100.packets.csv")
    bad, good = tmp_path / "bad.cfg", tmp_path / "good.cfg"
    bad.write_text("lookbak=3\n")
    good.write_text("window=2\n")

    def analyze(cfg, out, *flags):
        config = [word.format(cfg) for word in spelling] if cfg else []
        return run([*config, "analyze", packets, *flags, "-o", str(out)])

    assert analyze(bad, tmp_path / "bad.csv") == 1
    assert "lookbak" in capsys.readouterr().err
    assert analyze(good, tmp_path / "configured.csv") == 0
    assert analyze(None, tmp_path / "flagged.csv", "--window", "2") == 0
    assert ((tmp_path / "configured.csv").read_bytes()
            == (tmp_path / "flagged.csv").read_bytes())


@pytest.mark.parametrize("line", ["teams,100", "teams,abc,video",
                                  "teams,100,vid"])
def test_malformed_profile_line_is_named(tmp_path, corpus, capsys, line):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text(f"# vca,pt,class\n{line}\nteams,101,video_retx\n")
    assert run(["classify", str(corpus / "synth-100.packets.csv"),
                "--profiles", str(profiles), "--vca", "teams",
                "-o", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert f"{profiles}: line 2:" in err and repr(line) in err


def test_non_finite_feature_cell_counts_blank_lines(tmp_path, fps_model,
                                                    capsys):
    feats, _model = fps_model
    lines = feats.read_text().splitlines()
    row = lines[3].split(",")
    row[lines[0].split(",").index("size_mean")] = "inf"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:2] + ["", lines[2], ",".join(row)]
                             + lines[4:]) + "\n")
    assert run(["train", str(bad), "--target", "fps",
                "-o", str(tmp_path / "m.json")]) == 1
    assert f"{bad}: line 5, column size_mean: 'inf'" in capsys.readouterr().err


def test_repeated_feature_column_is_named(tmp_path, fps_model, capsys):
    feats, _model = fps_model
    lines = feats.read_text().splitlines()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0].replace("size_mean", "size_std")]
                             + lines[1:]) + "\n")
    assert run(["train", str(bad), "--target", "fps",
                "-o", str(tmp_path / "m.json")]) == 1
    assert (f"{bad}: line 1, column size_std: repeated"
            in capsys.readouterr().err)


def test_config_of_one_run_does_not_reach_the_next(tmp_path):
    calls = tmp_path / "calls"
    assert run(["synth", "--duration", "8", "--seed", "3", "--bitrate",
                "3000", "--non-separable", "-o", str(calls)]) == 0
    packets = str(calls / "synth-3.packets.csv")
    plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
    assert run(["analyze", packets, "-o", str(plain)]) == 0
    assert _with_config(tmp_path, "lookback=3\n", [
        "analyze", packets, "-o", str(configured)]) == 0
    assert configured.read_bytes() != plain.read_bytes()
    again = tmp_path / "again.csv"
    assert run(["analyze", packets, "-o", str(again)]) == 0
    assert again.read_bytes() == plain.read_bytes()


def test_run_dispatches_a_command_replaced_after_an_earlier_run(
        tmp_path, corpus, monkeypatch):
    import vcaqoe.cli as cli
    packets = str(corpus / "synth-100.packets.csv")
    assert run(["analyze", packets, "-o", str(tmp_path / "est.csv")]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(
        args.input) or 7)
    assert run(["analyze", packets, "-o", str(tmp_path / "other.csv")]) == 7
    assert seen == [packets]
    assert not (tmp_path / "other.csv").exists()


@pytest.mark.parametrize("text, fault", [
    ("# defaults\nvmin=600\nlookback\n",
     "line 3: lookback: not a key=value line"),
    ("lookback=x\n", "line 1: lookback=x: invalid literal"),
    ("\nwindow=0\n", "line 2: window=0: 0 is not a positive integer"),
    ("method=foo\n", "line 1: method=foo: expected one of ipudp, rtp")])
def test_config_errors_name_file_line_and_key(tmp_path, corpus, capsys,
                                              text, fault):
    est = tmp_path / "est.csv"
    assert _with_config(tmp_path, text, [
        "analyze", str(corpus / "synth-100.packets.csv"),
        "-o", str(est)]) == 1
    assert f"error: {tmp_path / 'run.cfg'}: {fault}" in capsys.readouterr().err
    assert not est.exists()


def test_features_names_the_bad_capture_of_a_directory(tmp_path, capsys):
    from vcaqoe.ingest import write_pcap
    from vcaqoe.synth import SenderProfile, generate
    session, _truth, _log = generate(SenderProfile(), 4.0, seed=4)
    write_pcap(session, str(tmp_path / "a.pcap"))
    (tmp_path / "b.pcap").write_bytes(b"garbage, not a capture at all" * 2)
    feats = tmp_path / "features.csv"
    assert run(["features", str(tmp_path), "-o", str(feats)]) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'b.pcap'}: unknown pcap magic" in err
    assert "a.pcap" not in err
    assert not feats.exists()


def test_config_value_outside_choices_is_an_input_error(tmp_path, corpus,
                                                        capsys):
    est, report = tmp_path / "est.csv", tmp_path / "fps.json"
    assert run(["analyze", str(corpus / "synth-100.packets.csv"),
                "-o", str(est)]) == 0
    assert _with_config(tmp_path, "metric=foo\n", [
        "evaluate", str(est), str(corpus / "synth-100.truth.csv"),
        "-o", str(report)]) == 1
    assert "metric=foo: expected one of" in capsys.readouterr().err
    assert not report.exists()


TRUTH_HEADER = "t_sec,fps,bitrate_kbps,frame_jitter_ms,frame_height\n"
PRED_HEADER = "session_id,window_start,prediction\n"


@pytest.mark.parametrize("metric,cell", [
    ("fps", "abc"), ("fps", "inf"), ("jitter", "12ms"),
    ("resolution", "-inf")])
def test_evaluate_bad_prediction_cell_is_named(tmp_path, capsys, metric,
                                               cell):
    truth = tmp_path / "call.truth.csv"
    truth.write_text(TRUTH_HEADER + "10,30,800,1,720\n11,30,800,1,720\n")
    preds = tmp_path / "preds.csv"
    preds.write_text(PRED_HEADER + f"call,10,29\n\ncall,11,{cell}\n")
    report = tmp_path / "report.json"
    assert run(["evaluate", str(preds), str(truth), "--metric", metric,
                "-o", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"{preds}: line 4, column prediction: {cell!r}" in err
    assert not report.exists()


def test_evaluate_nan_resolution_prediction_is_missing(tmp_path):
    truth = tmp_path / "call.truth.csv"
    truth.write_text(TRUTH_HEADER + "10,30,800,1,180\n11,30,800,1,720\n"
                     "12,30,800,1,360\n")
    preds = tmp_path / "preds.csv"
    report = tmp_path / "res.json"
    # heights are scored per value, over the scored windows' true heights;
    # class labels in the three bins
    for cells, classes, accuracy in (
            (("nan", "720", "360"), ["360", "720"], 1.0),
            (("nan", "high", "low"), ["low", "medium", "high"], 0.5)):
        preds.write_text(PRED_HEADER + "".join(
            f"call,{10 + i},{c}\n" for i, c in enumerate(cells)))
        assert run(["evaluate", str(preds), str(truth), "--metric",
                    "resolution", "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["classes"] == classes and sum(doc["row_totals"]) == 2
        assert doc["accuracy"] == accuracy


def test_classify_with_the_given_vmin(tmp_path, corpus):
    out = tmp_path / "report.json"
    assert run(["classify", str(corpus / "synth-100.packets.csv"),
                "--vmin", "400", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["v_min"] == 400
    assert doc["video_recall"] == 1.0 and doc["non_video_rejection"] == 1.0


def test_train_without_the_target_column_is_an_input_error(tmp_path,
                                                           fps_model, capsys):
    feats, _model = fps_model
    bare = tmp_path / "bare.csv"
    bare.write_text("".join(",".join(line.split(",")[:-4]) + "\n"
                            for line in feats.read_text().splitlines()))
    model = tmp_path / "model.json"
    assert run(["train", str(bare), "--target", "fps",
                "-o", str(model)]) == 1
    assert "lacks target column fps" in capsys.readouterr().err
    assert not model.exists()


def test_predict_with_a_model_of_other_features_is_an_input_error(
        tmp_path, corpus, fps_model, capsys):
    _feats, model = fps_model
    rtp = tmp_path / "rtp.csv"
    assert run(["features", str(corpus), "--set", "rtp", "-o", str(rtp)]) == 0
    preds = tmp_path / "preds.csv"
    assert run(["predict", str(model), str(rtp), "-o", str(preds)]) == 1
    assert "model was trained on" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("axis", ["loss", "jitter"])
def test_sweep_impairment_axes(tmp_path, capsys, axis):
    argv = ["sweep", "--axis", axis, "--values", "0,20", "--sessions", "1",
            "--duration", "4", "--n-seeds", "1"]
    out = tmp_path / "sweep.csv"
    assert run([*argv, "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == f"{axis},fps_mae"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "20.0"]
    assert all(float(line.split(",")[1]) >= 0 for line in lines[1:])
    capsys.readouterr()
    # without -o, the same table goes to stdout
    assert run(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_train_records_provenance(fps_model):
    feats, model = fps_model
    with open(feats, "rb") as fh:
        data = fh.read()
    assert json.loads(model.read_text())["provenance"] == {
        "features_csv": "features.csv",     # from the model's directory
        "rows": data.count(b"\n") - 1,
        "sha256": hashlib.sha256(data).hexdigest()[:16], "target": "fps",
        "vcaqoe_version": vcaqoe.__version__}


# a nan, infinite or negative parameter, and the field its error names;
# "{c}" is the corpus directory
BAD_PARAMETERS = [
    (["synth", "--bitrate", "nan"], "bitrate_kbps"),
    (["synth", "--bitrate", "inf"], "bitrate_kbps"),
    (["synth", "--fps", "inf"], "fps"),
    (["synth", "--fps", "nan"], "fps"),
    (["synth", "--duration", "inf"], "duration"),
    (["synth", "--duration", "nan"], "duration"),
    (["synth", "--size-jitter", "-0.2"], "frame_size_jitter"),
    (["synth", "--size-jitter", "nan"], "frame_size_jitter"),
    (["synth", "--audio-pps", "-5"], "audio_pps"),
    (["synth", "--audio-pps", "inf"], "audio_pps"),
    (["synth", "--loss", "-5"], "loss_prob"),
    (["synth", "--loss", "nan"], "loss_prob"),
    (["synth", "--jitter", "-5"], "delay_jitter_ms"),
    (["synth", "--jitter", "inf"], "delay_jitter_ms"),
    (["synth", "--jitter", "nan"], "delay_jitter_ms"),
    (["synth", "--base-delay", "-5"], "base_delay_ms"),
    (["synth", "--base-delay", "nan"], "base_delay_ms"),
    (["sweep", "--axis", "loss", "--values", "1", "--duration", "inf"],
     "duration"),
    (["sweep", "--axis", "jitter", "--values", "nan"], "delay_jitter_ms"),
    (["features", "{c}/synth-100.packets.csv", "--theta-iat", "nan"],
     "theta_iat_ms"),
    (["evaluate", "{c}/synth-100.truth.csv", "{c}/synth-100.truth.csv",
      "--tol", "nan"], "tolerance"),
    (["evaluate", "{c}/synth-100.truth.csv", "{c}/synth-100.truth.csv",
      "--tol", "-1"], "tolerance"),
]


@pytest.mark.parametrize("argv, field", BAD_PARAMETERS,
                         ids=[" ".join(a) for a, _ in BAD_PARAMETERS])
def test_bad_parameter_is_an_input_error_naming_it(tmp_path, corpus, capsys,
                                                   argv, field):
    out = tmp_path / "out"
    argv = [a.replace("{c}", str(corpus)) for a in argv]
    assert run([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not out.exists()
