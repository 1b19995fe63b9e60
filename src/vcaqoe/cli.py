"""Command-line surface for the QoE estimation pipeline."""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import math
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
from .heuristics import session_windows, whole_seconds
from .ingest import (TRUTH_CELLS, TRUTH_CSV_HEADER, BadHeader, BadRow,
                     DuplicateSecond, IngestError, _atomic_write_bytes,
                     csv_row, read_csv_header, read_csv_rows,
                     read_ground_truth_csv, read_packet_csv, read_pcap,
                     write_csv, write_ground_truth_csv, write_packet_csv)
from .pipeline import analyze_session
from .session import NO_HEIGHT, NO_RTP
from .synth import (ImpairmentProfile, SenderProfile, generate, impair,
                    write_frame_log_csv)
from . import sweeps

# ValueError covers IngestError, InvalidProfile, DimensionMismatch and
# NonFiniteInput
INPUT_ERRORS = (ValueError, ClassifyError, EvalError, ForestError,
                MissingRtp, argparse.ArgumentTypeError, FileNotFoundError,
                IsADirectoryError, NotADirectoryError, PermissionError)

TARGET_COLUMNS = {"fps": "fps", "bitrate": "bitrate_kbps",
                  "jitter": "frame_jitter_ms", "resolution": "frame_height"}
PREDICTION_DTYPE = np.dtype([("session_id", object),
                             ("window_start", np.int64),
                             ("prediction", object)])
PREDICTION_HEADER = list(PREDICTION_DTYPE.names)


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


def _write_out(text, path=None):
    """Write text to the file at path, or to stdout when there is none."""
    if path:
        _atomic_write_bytes(path, text.encode())
    else:
        sys.stdout.write(text)


def _json_out(doc, path=None):
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", path)


# ---------------------------------------------------------------- synth

def cmd_synth(args):
    profile = SenderProfile(
        fps=args.fps, bitrate_kbps=args.bitrate,
        keyframe_interval=args.keyframe_interval,
        frame_size_jitter=args.size_jitter, audio_pps=args.audio_pps,
        separable=not args.non_separable,
        separable_depth=args.separable_depth)
    impairment = ImpairmentProfile(
        base_delay_ms=args.base_delay, delay_jitter_ms=args.jitter,
        loss_prob=args.loss / 100.0, retransmit=args.retransmit)
    profile.validate(args.duration)
    os.makedirs(args.output, exist_ok=True)
    for i in range(args.sessions):
        seed = args.seed + i
        session, truth, frame_log = generate(profile, args.duration, seed)
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
        "labels": report.classes,
        "counts": report.counts,
        "row_percent": report.row_percent,
        "row_totals": report.row_totals,
        "video_recall": report.recall("video"),
        "non_video_rejection": report.recall("non_video"),
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
                             SizeThreshold(args.vmin), w=args.window)
    write_ground_truth_csv(series.take(np.isin(
        series.window_start, session_windows(session, args.window))),
        args.output)
    return 0


# -------------------------------------------------------------- features

def _session_truth_pairs(inputs, truth_path):
    """Expand inputs (files or corpus dirs) into (packets, truth) paths.

    A directory contributes its <stem>.packets.csv and <stem>.pcap files,
    each with <stem>.truth.csv when that exists. truth_path belongs to a
    single file input; with a directory or several inputs it is an error.
    """
    if truth_path and (len(inputs) > 1 or os.path.isdir(inputs[0])):
        raise ValueError("--truth needs a single packet CSV or pcap input, "
                         "not a directory or several inputs")
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
    session_ids, parts = [], []
    for pk_path, truth_path in _session_truth_pairs(args.inputs, args.truth):
        session = _read_session(pk_path, rtp=args.set == "rtp")
        if args.set == "ipudp":
            tagged = classify_by_size(session, SizeThreshold(args.vmin))
        else:
            tagged = classify_by_payload_type(session)
        keys, X = session_feature_rows(tagged, args.set, args.window, params)
        keep = np.isin(keys, session_windows(session, args.window))
        keys = np.array(keys, dtype=np.int64)[keep]
        # a window with no truth row keeps nan metrics and NO_HEIGHT
        truth = [np.full(len(keys), v)
                 for v in (np.nan, np.nan, np.nan, NO_HEIGHT)]
        if truth_path:
            table = read_ground_truth_csv(truth_path).rows
            _, i, j = np.intersect1d(keys, table.window_start,
                                     assume_unique=True, return_indices=True)
            for column, name in zip(truth, TRUTH_CSV_HEADER[1:]):
                column[i] = getattr(table, name)[j]
        session_ids += [session.session_id] * len(keys)
        parts.append([keys, *X[keep].T, *truth])
    columns = [np.concatenate(c).tolist() for c in zip(*parts)]
    write_csv(args.output,
              ["session_id", "window_start"] + names + TRUTH_CSV_HEADER[1:],
              ",".join(["{},{}"] + ["{:.9g}"] * len(names) + [TRUTH_CELLS]),
              [session_ids, *columns])
    return 0


def _read_feature_csv(path):
    """Keys, feature names, feature matrix and truth columns of a feature
    CSV. A feature cell must be a finite number; a truth cell may also be
    nan, which marks missing truth."""
    header = ["session_id", "window_start"] + read_csv_header(path)[2:]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise BadHeader(path, 1, "repeated column name", repeated[0])
    rows = read_csv_rows(path, np.dtype({"names": header, "formats": [
        object, np.int64] + [np.float64] * (len(header) - 2)}))
    truth_cols = header[-4:] if header[-4:] == TRUTH_CSV_HEADER[1:] else []
    names = header[2:len(header) - len(truth_cols)]
    values = np.empty((len(rows), len(header) - 2))
    for j, name in enumerate(header[2:]):
        values[:, j] = rows[name]
    bad = ~np.isfinite(values)
    bad[:, len(names):] &= ~np.isnan(values[:, len(names):])
    if bad.any():
        i, j = np.argwhere(bad)[0]
        line_no, cells = csv_row(path, i)
        raise BadRow(path, line_no, f"{cells[2 + j]!r} is not a finite "
                     "number", header[2 + j])
    X = np.ascontiguousarray(values[:, :len(names)])
    truth = dict(zip(truth_cols, values[:, len(names):].T))
    return (rows["session_id"].tolist(), rows["window_start"].tolist(),
            names, X, truth)


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
        y = np.array([binning.classify(h) for h in heights[keep]])
        forest = RandomForestClassifier
    else:
        keep = np.isfinite(y)
        y = y[keep]
        forest = RandomForestRegressor
    model = forest(n_trees=args.trees, max_depth=args.depth,
                   min_samples_leaf=args.min_leaf, seed=args.seed)
    model.fit(X[keep], y)
    with open(args.data, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()[:16]
    # the feature CSV's path from the model's directory, so that the same
    # files in another directory train the same model bytes
    where = os.path.relpath(args.data,
                            os.path.dirname(os.path.abspath(args.output)))
    save_forest(model, args.output, names, provenance={
        "features_csv": where, "rows": len(X), "sha256": sha256,
        "target": args.target, "vcaqoe_version": __version__})
    return 0


def cmd_predict(args):
    sessions, windows, names, X, _truth = _read_feature_csv(args.data)
    model = load_forest(args.model, names)
    write_csv(args.output, PREDICTION_HEADER, "{},{},{}",
              [sessions, windows, model.predict(X).tolist()])
    return 0


# -------------------------------------------------------------- evaluate

def _read_predictions(path, metric_col, session_id):
    """(window starts, values) of one session from a PRED file: its rows of
    a prediction CSV, or the metric column of a truth-schema CSV, in which
    an unknown frame_height reads as nan. The first column name tells the
    two apart. A value is a float, nan when missing; a resolution
    prediction may also be a class label, kept as a string.

    A prediction row belongs to the session when its session_id, less a
    ".pcap" suffix (read_pcap names a session after its file), is
    session_id; a window the session repeats is an input error."""
    if read_csv_header(path)[:1] != PREDICTION_HEADER[:1]:
        truth = read_ground_truth_csv(path).rows
        values = getattr(truth, metric_col)
        if metric_col == "frame_height":
            values = np.where(values == NO_HEIGHT, np.nan, values)
        return truth.window_start, values
    rows = read_csv_rows(path, PREDICTION_DTYPE)
    values = rows["prediction"].copy()
    for i, text in enumerate(values.tolist()):
        try:
            values[i] = float(text)
            bad = math.isinf(values[i])
        except ValueError:
            bad = metric_col != "frame_height"  # else a resolution class label
        if bad:
            line_no, _cells = csv_row(path, i)
            raise BadRow(path, line_no, f"{text!r} is not a finite number "
                         "or nan", "prediction")
    mine = np.array([s.removesuffix(".pcap") == session_id
                     for s in rows["session_id"].tolist()], dtype=bool)
    rows, values = rows[mine], values[mine]
    starts, counts = np.unique(rows["window_start"], return_counts=True)
    if (counts > 1).any():
        raise DuplicateSecond(f"{path}: session {session_id}: window_start="
                              f"{starts[counts > 1][0]} repeated")
    return rows["window_start"], values


def cmd_evaluate(args):
    col = TARGET_COLUMNS[args.metric]
    session_id = os.path.basename(args.truth).removesuffix(".csv")
    session_id = session_id.removesuffix(".truth")
    starts, pred = _read_predictions(args.pred, col, session_id)
    truth = read_ground_truth_csv(args.truth).rows
    _, i, j = np.intersect1d(starts, truth.window_start, assume_unique=True,
                             return_indices=True)
    if not len(i):
        raise EvalError(f"no prediction for a window of session {session_id}")
    pred, truth = pred[i].tolist(), getattr(truth, col)[j].tolist()
    if args.metric == "resolution":
        binning = (binning_for_heights([t for t in truth if t > 0])
                   if all(isinstance(p, float) for p in pred)
                   else ResolutionBinning())
        # a pair counts when the true height is known and the prediction is
        # not nan (the only value unequal to itself)
        pairs = [(p, t) for p, t in zip(pred, truth) if t > 0 and p == p]
        cm = resolution_confusion(
            [binning.classify(int(p)) if isinstance(p, float) else p
             for p, _ in pairs], [binning.classify(t) for _, t in pairs],
            binning)
        doc = {"metric": "resolution", "classes": cm.classes,
               "counts": cm.counts, "row_percent": cm.row_percent,
               "row_totals": cm.row_totals, "accuracy": cm.accuracy()}
    else:
        doc = evaluate_metric(pred, truth, args.metric,
                              tolerances=args.tol).to_dict()
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
        table = sweeps.window_sweep([whole_seconds(v) for v in values],
                                    n_sessions=args.sessions,
                                    duration_s=args.duration, seed=args.seed)
    else:
        if not all(v >= 1 and v.is_integer() for v in values):
            raise ValueError("lookback values must be positive integers")
        table = sweeps.lookback_sweep([int(v) for v in values],
                                      n_sessions=args.sessions,
                                      duration_s=args.duration,
                                      seed=args.seed)
    lines = [f"{args.axis},fps_mae"] + [f"{v},{m:.6f}" for v, m in table]
    _write_out("".join(line + "\n" for line in lines), args.output)
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
    p.add_argument("--separable-depth", type=_positive_int, default=3)
    p.add_argument("--loss", type=float, default=0.0,
                   help="Bernoulli loss percent")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="delay jitter stddev in ms")
    p.add_argument("--base-delay", type=float, default=0.0)
    p.add_argument("--retransmit", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("classify", help="media classification report")
    p.add_argument("input")
    p.add_argument("--vca", default="")
    p.add_argument("--vmin", type=int, default=500)
    p.add_argument("--fit-vmin", action="store_true")
    p.add_argument("--profiles", help="payload-type profile CSV")
    p.add_argument("-o", "--output")

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

    p = sub.add_parser("features", help="emit per-window feature CSV")
    p.add_argument("inputs", nargs="+",
                   help="packet CSV/pcap files or corpus directories")
    p.add_argument("--set", choices=["ipudp", "rtp"], default="ipudp")
    p.add_argument("--window", type=_positive_int, default=1)
    p.add_argument("--vmin", type=int, default=500)
    p.add_argument("--theta-iat", type=float, default=3.0)
    p.add_argument("--truth", help="truth CSV for single-file input")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("train", help="fit a random forest on a feature CSV")
    p.add_argument("data")
    p.add_argument("--target", choices=sorted(TARGET_COLUMNS),
                   required=True)
    p.add_argument("--trees", type=_positive_int, default=100)
    p.add_argument("--depth", type=_positive_int, default=20)
    p.add_argument("--min-leaf", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("predict", help="apply a trained model")
    p.add_argument("model")
    p.add_argument("data", help="feature CSV")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("evaluate", help="error report from predictions+truth")
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--metric", choices=sorted(TARGET_COLUMNS),
                   default="fps")
    p.add_argument("--tol", type=float, action="append", default=[])
    p.add_argument("-o", "--output")

    p = sub.add_parser("sweep", help="sensitivity sweep on synthetic corpora")
    p.add_argument("--axis", choices=["window", "loss", "jitter", "lookback"],
                   required=True)
    p.add_argument("--values", required=True, help="comma-separated list")
    p.add_argument("--sessions", type=_positive_int, default=5)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--n-seeds", type=_positive_int, default=5,
                   help="seeds per value from --seed, for loss and jitter "
                   "only: window and lookback build one corpus at --seed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    return parser


_shared_parser = functools.cache(build_parser)   # never changed


def _parse(argv):
    """Parsed arguments; a --config key=value file supplies defaults for
    the subcommand's options, and explicit flags win. The defaults go on
    a parser built for this call, so they never reach another run."""
    args = _shared_parser().parse_args(argv)
    if args.config is None:
        return args
    with open(args.config) as fh:
        lines = [(n, line) for n, line in enumerate(map(str.strip, fh), 1)
                 if line and not line.startswith("#")]
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    known = {a.dest for p in commands.values() for a in p._actions}
    actions = {a.dest: a for a in commands[args.command]._actions}
    defaults = {}
    for n, line in lines:
        key, eq, value = (part.strip() for part in line.partition("="))
        key = key.replace("-", "_")
        at = f"{args.config}: line {n}: {line}: "
        if not eq:
            raise ValueError(at + "not a key=value line")
        if key not in known:
            raise ValueError(at + "not an option of any subcommand")
        if key in actions:
            try:
                defaults[key] = _config_value(actions[key], value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(at + str(exc)) from None
    commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_value(action, value):
    """A config file's value for one option, converted and checked against
    its choices as its flag would be; an append option takes a
    comma-separated list."""
    if isinstance(action, argparse._StoreTrueAction):
        flag = {"true": True, "1": True, "false": False, "0": False}.get(
            value.lower())
        if flag is None:
            raise ValueError("expected true, false, 1 or 0")
        return flag
    convert = action.type or str
    if isinstance(action, argparse._AppendAction):
        return [convert(v.strip()) for v in value.split(",")]
    value = convert(value)
    if action.choices is not None and value not in action.choices:
        raise ValueError("expected one of " + ", ".join(action.choices))
    return value


def run(argv=None):
    """Run one command line and return its exit code; may be called again
    and again in one process."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        # looked up at call time, so a replaced cmd_* is the one run
        return globals()["cmd_" + args.command](args)
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
