"""Command-line surface for the QoE estimation pipeline."""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

import numpy as np

from . import __version__
from .assembly import IpUdpAssemblyParams, MissingRtp, params_for_vca
from .classify import (ClassifyError, PayloadTypeMap, SizeThreshold,
                       classification_report, classify_by_payload_type,
                       classify_by_size, fit_vmin, load_payload_type_map)
from .evaluation import (EvalError, ResolutionBinning, binning_for_heights,
                         evaluate_metric, resolution_confusion)
from .features import IPUDP_FEATURE_NAMES, RTP_FEATURE_NAMES, SemanticParams, \
    session_feature_rows
from .forest import (ForestError, RandomForestClassifier,
                     RandomForestRegressor, load_forest, save_forest)
from .heuristics import session_windows
from .ingest import (IngestError, _atomic_write_bytes, _atomic_write_csv,
                     read_ground_truth_csv, read_packet_csv, read_pcap,
                     truth_cells, write_ground_truth_csv, write_packet_csv)
from .pipeline import analyze_session
from .session import NO_RTP, QoeWindow, RtpError
from .synth import (ImpairmentProfile, InvalidProfile, SenderProfile,
                    generate, impair, write_frame_log_csv)
from .validation import DimensionMismatch, NonFiniteInput
from . import sweeps

INPUT_ERRORS = (IngestError, ClassifyError, EvalError, ForestError,
                InvalidProfile, RtpError, MissingRtp, DimensionMismatch,
                NonFiniteInput, FileNotFoundError, NotADirectoryError,
                ValueError, argparse.ArgumentTypeError)

TARGET_COLUMNS = {"fps": "fps", "bitrate": "bitrate_kbps",
                  "jitter": "frame_jitter_ms", "resolution": "frame_height"}
PREDICTION_HEADER = ["session_id", "window_start", "prediction"]


def _read_session(path, vca="", rtp=False):
    """The session of a pcap or packet CSV; with rtp, one in which some
    packet carries an RTP header."""
    if path.endswith(".pcap"):
        session = read_pcap(path, vca_label=vca)
    else:
        session = read_packet_csv(path, vca_label=vca)
    if rtp and (session.columns.rtp_pt == NO_RTP).all():
        raise MissingRtp(f"{path}: no packet carries an RTP header")
    return session


def _json_out(doc, path=None):
    blob = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        _atomic_write_bytes(path, blob.encode())
    else:
        sys.stdout.write(blob)


# ---------------------------------------------------------------- synth

def cmd_synth(args):
    profile = SenderProfile(
        fps=args.fps, bitrate_kbps=args.bitrate,
        keyframe_interval=args.keyframe_interval,
        frame_size_jitter=args.size_jitter, audio_pps=args.audio_pps,
        separable=not args.non_separable,
        separable_depth=args.separable_depth)
    impairment = None
    if args.loss > 0 or args.jitter > 0 or args.base_delay > 0:
        impairment = ImpairmentProfile(
            base_delay_ms=args.base_delay, delay_jitter_ms=args.jitter,
            loss_prob=args.loss / 100.0, retransmit=args.retransmit)
    os.makedirs(args.output, exist_ok=True)
    for i in range(args.sessions):
        seed = args.seed + i
        session, truth, frame_log = generate(profile, args.duration, seed)
        if impairment is not None:
            session = impair(session, impairment, seed, profile.ptmap())
        base = os.path.join(args.output, session.session_id)
        write_packet_csv(session, base + ".packets.csv")
        write_ground_truth_csv(truth.rows, base + ".truth.csv")
        write_frame_log_csv(frame_log, base + ".frames.csv")
    return 0


# -------------------------------------------------------------- classify

def cmd_classify(args):
    session = _read_session(args.input, args.vca)
    ptmap = (load_payload_type_map(args.profiles, args.vca or None)
             if args.profiles else PayloadTypeMap())
    truth = classify_by_payload_type(session, ptmap)
    if args.fit_vmin:
        threshold = fit_vmin(truth)
    else:
        threshold = SizeThreshold(args.vmin)
    predicted = classify_by_size(session, threshold)
    report = classification_report(predicted, truth)
    _json_out({
        "v_min": threshold.v_min,
        "labels": list(report.labels),
        "counts": report.counts,
        "row_percent": report.row_percent,
        "row_totals": report.row_totals,
        "video_recall": report.video_recall(),
        "non_video_rejection": report.non_video_rejection(),
    }, args.output)
    return 0


# --------------------------------------------------------------- analyze

def cmd_analyze(args):
    session = _read_session(args.input, args.vca, args.method == "rtp")
    n_max = args.lookback
    if n_max is None:
        n_max = params_for_vca(args.vca).n_max
    params = IpUdpAssemblyParams(delta_size_max=args.delta, n_max=n_max)
    series = analyze_session(session, args.method, params,
                             SizeThreshold(args.vmin), w=float(args.window))
    rows = [series[k] for k in session_windows(session, args.window)]
    write_ground_truth_csv(rows, args.output)
    return 0


# -------------------------------------------------------------- features

def _session_truth_pairs(inputs, truth_path):
    """Expand inputs (files or corpus dirs) into (packets, truth) paths.

    A directory contributes its <stem>.packets.csv and <stem>.pcap files,
    each with <stem>.truth.csv when that exists.
    """
    pairs = []
    for item in inputs:
        if os.path.isdir(item):
            found = []
            for suffix in (".packets.csv", ".pcap"):
                found += [(pk, pk[:-len(suffix)] + ".truth.csv") for pk in
                          glob.glob(os.path.join(item, "*" + suffix))]
            for pk, t in sorted(found):
                pairs.append((pk, t if os.path.exists(t) else None))
        else:
            pairs.append((item, truth_path))
    return pairs


def cmd_features(args):
    names = (IPUDP_FEATURE_NAMES if args.set == "ipudp"
             else RTP_FEATURE_NAMES)
    params = SemanticParams(theta_iat_ms=args.theta_iat)
    header = ["session_id", "window_start"] + names + [
        "fps", "bitrate_kbps", "frame_jitter_ms", "frame_height"]
    rows = []
    for pk_path, truth_path in _session_truth_pairs(args.inputs, args.truth):
        session = _read_session(pk_path, args.vca, args.set == "rtp")
        if args.set == "ipudp":
            tagged = classify_by_size(session, SizeThreshold(args.vmin))
        else:
            tagged = classify_by_payload_type(session)
        keys, X = session_feature_rows(tagged, args.set, args.window, params)
        truth_by_key = {}
        if truth_path:
            truth = read_ground_truth_csv(truth_path)
            truth_by_key = {r.window_start: r for r in truth.rows}
        windows = session_windows(session, args.window)
        for k, vec in zip(keys, X.tolist()):
            if k not in windows:
                continue
            rows.append([session.session_id, k] + [f"{v:.9g}" for v in vec]
                        + truth_cells(truth_by_key.get(k, QoeWindow(k))))
    _atomic_write_csv(args.output, header, rows)
    return 0


def _read_feature_csv(path):
    """Keys, feature names, feature matrix and truth columns of a feature
    CSV. A feature cell must be a finite number; a truth cell may also be
    nan, which marks missing truth."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        data, lines = [], []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise IngestError(f"{path}: line {reader.line_num} has "
                                  f"{len(row)} fields, header has "
                                  f"{len(header)}")
            data.append(row)
            lines.append(reader.line_num)
    if header[:2] != ["session_id", "window_start"]:
        raise IngestError(f"{path}: not a feature CSV (missing key columns)")
    truth_cols = ["fps", "bitrate_kbps", "frame_jitter_ms", "frame_height"]
    names = header[2:]
    n_truth = 4 if names[-4:] == truth_cols else 0
    if n_truth:
        names = names[:-4]
    sessions = [r[0] for r in data]
    windows = []
    for r, line in zip(data, lines):
        try:
            windows.append(int(r[1]))
        except ValueError:
            raise IngestError(f"{path}: line {line}, column window_start: "
                              f"{r[1]!r} is not an integer") from None
    try:
        values = np.array([r[2:] for r in data], dtype=np.float64)
    except ValueError:      # a cell that is not a number reads as inf
        values = np.array([[float(v) if _is_number(v) else np.inf
                            for v in r[2:]] for r in data])
    values = values.reshape(len(data), len(header) - 2)
    bad = ~np.isfinite(values)
    bad[:, len(names):] &= ~np.isnan(values[:, len(names):])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise IngestError(f"{path}: line {lines[i]}, column {header[2 + j]}: "
                          f"{data[i][2 + j]!r} is not a finite number")
    X = np.ascontiguousarray(values[:, :len(names)])
    truth = dict(zip(truth_cols[:n_truth], values[:, len(names):].T))
    return sessions, windows, names, X, truth


# ----------------------------------------------------------------- train

def cmd_train(args):
    sessions, _windows, names, X, truth = _read_feature_csv(args.data)
    if not len(X):
        raise IngestError(f"{args.data}: feature CSV has no rows")
    col = TARGET_COLUMNS[args.target]
    if col not in truth:
        raise IngestError(f"feature CSV lacks target column {col}")
    y = truth[col]
    if args.target == "resolution":
        heights = y.astype(int)
        keep = heights > 0
        binning = binning_for_heights(heights[keep])
        labels = np.array([binning.classify(h) for h in heights[keep]])
        model = RandomForestClassifier(
            n_trees=args.trees, max_depth=args.depth,
            min_samples_leaf=args.min_leaf, seed=args.seed)
        model.fit(X[keep], labels)
    else:
        keep = np.isfinite(y)
        model = RandomForestRegressor(
            n_trees=args.trees, max_depth=args.depth,
            min_samples_leaf=args.min_leaf, seed=args.seed)
        model.fit(X[keep], y[keep])
    save_forest(model, args.output, names)
    return 0


def cmd_predict(args):
    model = load_forest(args.model)
    _sessions, windows, names, X, _truth = _read_feature_csv(args.data)
    if names != model.feature_names_:
        raise ForestError(
            f"feature CSV columns {names} do not match model features")
    preds = model.predict(X)
    rows = [[s, w, p] for s, w, p in zip(_sessions, windows, preds)]
    _atomic_write_csv(args.output, PREDICTION_HEADER, rows)
    return 0


# -------------------------------------------------------------- evaluate

def _read_series_csv(path, metric_col, session_id):
    """{window_start: value} of one session, from a truth-schema CSV or from
    the session's rows of a prediction CSV (values kept as strings).

    A prediction row belongs to the session when its session_id, less a
    ".pcap" suffix (read_pcap names a session after its file), is
    session_id."""
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    if header == PREDICTION_HEADER:
        out = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                if row and row[0].removesuffix(".pcap") == session_id:
                    out[int(row[1])] = row[2]
        return out
    truth = read_ground_truth_csv(path)
    return {r.window_start: getattr(r, metric_col) for r in truth.rows}


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def cmd_evaluate(args):
    col = TARGET_COLUMNS[args.metric]
    session_id = os.path.basename(args.truth).removesuffix(".csv")
    session_id = session_id.removesuffix(".truth")
    pred = _read_series_csv(args.pred, col, session_id)
    truth = _read_series_csv(args.truth, col, session_id)
    keys = sorted(set(pred) & set(truth))
    if not keys:
        raise EvalError(f"no prediction for a window of session {session_id}")
    if args.metric == "resolution":
        heights = [int(truth[k]) for k in keys
                   if truth[k] is not None and truth[k] > 0]
        labels = [pred[k] for k in keys if pred[k] is not None]
        binning = (binning_for_heights(heights)
                   if all(map(_is_number, labels)) else ResolutionBinning())
        pc, tc = [], []
        for k in keys:
            t, p = truth[k], pred[k]
            if t is None or t <= 0 or p is None:
                continue
            pc.append(binning.classify(int(float(p))) if _is_number(p)
                      else p)
            tc.append(binning.classify(int(t)))
        cm = resolution_confusion(pc, tc, binning)
        doc = {"metric": "resolution", "classes": cm.classes,
               "counts": cm.counts, "row_percent": cm.row_percent,
               "row_totals": cm.row_totals, "accuracy": cm.accuracy()}
    else:
        report = evaluate_metric([pred[k] for k in keys],
                                 [truth[k] for k in keys], args.metric,
                                 tolerances=args.tol)
        doc = report.to_dict()
    _json_out(doc, args.output)
    return 0


# ----------------------------------------------------------------- sweep

def cmd_sweep(args):
    values = [float(v) for v in args.values.split(",")]
    seeds = tuple(range(args.seed, args.seed + args.n_seeds))
    if args.axis == "loss":
        table = sweeps.loss_sweep(values, n_sessions=args.sessions,
                                  duration_s=args.duration, seeds=seeds)
    elif args.axis == "jitter":
        table = sweeps.jitter_sweep(values, n_sessions=args.sessions,
                                    duration_s=args.duration, seeds=seeds)
    elif args.axis == "window":
        windows = [int(v) for v in values]
        if min(windows) < 1:
            raise ValueError("window values must be at least 1 second")
        table = sweeps.window_sweep(windows,
                                    n_sessions=args.sessions,
                                    duration_s=args.duration, seed=args.seed)
    else:
        table = sweeps.lookback_sweep([int(v) for v in values],
                                      n_sessions=args.sessions,
                                      duration_s=args.duration,
                                      seed=args.seed)
    rows = [[v, f"{m:.6f}"] for v, m in table]
    if args.output:
        _atomic_write_csv(args.output, [args.axis, "fps_mae"], rows)
    else:
        print(f"{args.axis},fps_mae")
        for v, m in rows:
            print(f"{v},{m}")
    return 0


# ---------------------------------------------------------------- parser

def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vcaqoe",
        description="Estimate video-conferencing QoE from packet traces.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value file with flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--bitrate", type=float, default=800.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--sessions", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keyframe-interval", type=int, default=0)
    p.add_argument("--size-jitter", type=float, default=0.05)
    p.add_argument("--audio-pps", type=float, default=50.0)
    p.add_argument("--non-separable", action="store_true")
    p.add_argument("--separable-depth", type=int, default=3)
    p.add_argument("--loss", type=float, default=0.0,
                   help="Bernoulli loss percent")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="delay jitter stddev in ms")
    p.add_argument("--base-delay", type=float, default=0.0)
    p.add_argument("--retransmit", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("classify", help="media classification report")
    p.add_argument("input")
    p.add_argument("--vca", default="")
    p.add_argument("--vmin", type=int, default=500)
    p.add_argument("--fit-vmin", action="store_true")
    p.add_argument("--profiles", help="payload-type profile CSV")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("analyze", help="heuristic per-window estimates")
    p.add_argument("input")
    p.add_argument("--method", choices=["ipudp", "rtp"], default="ipudp")
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--lookback", type=int,
                   help="packet lookback N_max (default: the --vca's)")
    p.add_argument("--vmin", type=int, default=500)
    p.add_argument("--window", type=_positive_int, default=1)
    p.add_argument("--vca", default="")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("features", help="emit per-window feature CSV")
    p.add_argument("inputs", nargs="+",
                   help="packet CSV/pcap files or corpus directories")
    p.add_argument("--set", choices=["ipudp", "rtp"], default="ipudp")
    p.add_argument("--window", type=_positive_int, default=1)
    p.add_argument("--vmin", type=int, default=500)
    p.add_argument("--theta-iat", type=float, default=3.0)
    p.add_argument("--truth", help="truth CSV for single-file input")
    p.add_argument("--vca", default="")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit a random forest on a feature CSV")
    p.add_argument("data")
    p.add_argument("--target", choices=sorted(TARGET_COLUMNS),
                   required=True)
    p.add_argument("--trees", type=_positive_int, default=100)
    p.add_argument("--depth", type=_positive_int, default=20)
    p.add_argument("--min-leaf", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a trained model")
    p.add_argument("model")
    p.add_argument("data", help="feature CSV")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="error report from predictions+truth")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--metric", choices=sorted(TARGET_COLUMNS),
                   default="fps")
    p.add_argument("--tol", type=float, action="append", default=[])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="sensitivity sweep on synthetic corpora")
    p.add_argument("--axis", choices=["window", "loss", "jitter", "lookback"],
                   required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--sessions", type=_positive_int, default=5)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--n-seeds", type=_positive_int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_sweep)
    return parser


def _apply_config(parser, argv):
    """key=value config file supplies defaults; explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    argv = argv[:i] + argv[i + 2:]
    commands = parser._subparsers._group_actions[0].choices
    known = {a.dest for p in commands.values() for a in p._actions}
    for key in defaults:
        if key not in known:
            raise ValueError(f"config key {key!r} is not an option of any "
                             "subcommand")
    command = next((a for a in argv if a in commands), None)
    if command is None:
        return argv
    actions = {a.dest: a for a in commands[command]._actions}
    for key, value in defaults.items():
        if key in actions:
            commands[command].set_defaults(
                **{key: _config_value(actions[key], value)})
    return argv


def _config_value(action, value):
    """A config file's value for one option, converted as its flag would
    be; an append option takes a comma-separated list."""
    if isinstance(action, argparse._StoreTrueAction):
        flag = {"true": True, "1": True, "false": False, "0": False}.get(
            value.lower())
        if flag is None:
            raise ValueError(f"config {action.dest}={value}: expected true, "
                             "false, 1 or 0")
        return flag
    convert = action.type or str
    if isinstance(action, argparse._AppendAction):
        return [convert(v.strip()) for v in value.split(",")]
    return convert(value)


def run(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse usage failures exit with 2; those are input errors here
        return 1 if exc.code == 2 else int(exc.code or 0)
    except Exception as exc:   # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
