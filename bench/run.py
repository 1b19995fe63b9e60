"""Benchmark of the operator path: analyze, features, train and predict.

    python3 bench/run.py --workload pcap-long-hd --seed 1 --seconds 30 --trace 0

One process and one thread drive ``vcaqoe.cli.run`` in a closed loop, one
command at a time, in whole rounds of the same command list, until
``--seconds`` have passed. Set-up (generating and writing the inputs, in a
child process) is timed from this process's start. Every round's outputs
are checked against the benchmark's own computation. The last line of
standard output is one JSON object: ``correct``, ``attempted`` (commands
run), ``failed`` (commands that exited non-zero) and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# end-to-end throughput metric: (command kinds it times, unit)
THROUGHPUT = {
    "analyze_ipudp_pkts_per_s": (("analyze_ipudp",), "packets/s"),
    "analyze_rtp_pkts_per_s": (("analyze_rtp",), "packets/s"),
    "features_ipudp_pkts_per_s": (("features_ipudp",), "packets/s"),
    "features_rtp_pkts_per_s": (("features_rtp",), "packets/s"),
    "train_fps_rows_per_s": (("train_fps",), "rows/s"),
    "train_resolution_rows_per_s": (("train_resolution",), "rows/s"),
    "predict_rows_per_s": (("predict_fps", "predict_resolution"), "rows/s"),
}


# untraced rounds a --trace 0 run makes at least, so that each command's
# fastest time is taken over more than one try
MIN_ROUNDS = 2

# quality floors a workload's outputs must reach: those of acceptance
# criteria 05 (fps within 2) and 06 (resolution accuracy)
FLOORS = {"csv-short-impaired": {"ml_fps_within2": 0.80,
                                 "ml_resolution_accuracy": 0.90}}


class Command:
    """One CLI invocation of the round.

    work is its packets, or for train and predict the rows of the feature
    CSV named by rows_of, counted when the round reaches it. sids are the
    calls whose results the output holds. An untraced round runs the
    command repeat times in a row.
    """

    def __init__(self, kind, argv, out, sids=(), work=0, rows_of=None):
        self.kind = kind
        self.argv = argv
        self.out = out
        self.sids = list(sids)
        self.work = work
        self.rows_of = rows_of
        self.repeat = 1


def build_commands(calls, work, repeats=None):
    """The round's command list, in run order, and the per-call IP/UDP
    feature CSVs that are joined into one train and one test CSV.
    repeats: how many times an untraced round runs a command, by kind.

    features runs once per input file with its truth CSV: given a
    directory, it would read only packet CSVs, never pcaps.
    """
    from workloads import FPS_MODEL, RESOLUTION_MODEL

    def w(*parts):
        return os.path.join(work, *parts)

    cmds = []
    for method in ("ipudp", "rtp"):
        for c in calls:
            if c["role"] == "test" and (method == "ipudp" or c["rtp"]):
                out = w("out", f"{c['name']}.{method}.est.csv")
                cmds.append(Command(
                    f"analyze_{method}", ["analyze", w(c["path"]), "--method",
                                          method, "-o", out],
                    out, [c["sid"]], c["pkts"]))
    joins = {}
    for fset in ("ipudp", "rtp"):
        for role in ("train", "test"):
            parts = []
            for c in calls:
                if c["role"] != role or (fset == "rtp" and not c["rtp"]):
                    continue
                part = w("out", f"{c['name']}.{fset}.features.csv")
                cmds.append(Command(
                    f"features_{fset}", ["features", w(c["path"]), "--set",
                                         fset, "--truth", w(c["truth"]),
                                         "-o", part],
                    part, [c["sid"]], c["pkts"]))
                parts.append(part)
            if fset == "ipudp":
                joins[w("out", f"{role}.ipudp.features.csv")] = parts
    train = w("out", "train.ipudp.features.csv")
    test = w("out", "test.ipudp.features.csv")
    for target, params in (("fps", FPS_MODEL),
                           ("resolution", RESOLUTION_MODEL)):
        out = w("out", f"{target}.model.json")
        cmds.append(Command(f"train_{target}", [
            "train", train, "--target", target, *params, "-o", out],
            out, rows_of=train))
    for target in ("fps", "resolution"):
        out = w("out", f"{target}.pred.csv")
        cmds.append(Command(f"predict_{target}", [
            "predict", w("out", f"{target}.model.json"), test, "-o", out],
            out, rows_of=test))
    for cmd in cmds:
        cmd.repeat = (repeats or {}).get(cmd.kind, 1)
    return cmds, joins


def join_csv(parts, out):
    """One CSV with the first part's header and every part's rows."""
    with open(out, "w") as dst:
        for i, part in enumerate(parts):
            with open(part) as src:
                header = src.readline()
                if i == 0:
                    dst.write(header)
                shutil.copyfileobj(src, dst)


def count_rows(path):
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def run_round(cmds, joins, cli_run, tracer=None):
    """Run the command list once; returns, per command, its fastest CPU
    seconds over its tries and the exit codes of its tries.

    The per-call feature CSVs are joined, untimed, before the first train
    command. With a tracer, each command runs once and is one span named
    after its subcommand.
    """
    from tracing import clock
    times, codes = [], []
    for cmd in cmds:
        if cmd.kind == "train_fps":
            for out, parts in joins.items():
                join_csv(parts, out)
        if cmd.rows_of is not None:
            cmd.work = (count_rows(cmd.rows_of)
                        if os.path.exists(cmd.rows_of) else 0)
        call = cli_run if tracer is None else tracer.span(
            f"cli.{cmd.argv[0]}", cli_run)
        tries = []
        fastest = math.inf
        for _ in range(cmd.repeat if tracer is None else 1):
            t0 = clock()
            tries.append(call(cmd.argv))
            fastest = min(fastest, clock() - t0)
        times.append(fastest)
        codes.append(tries)
    return times, codes


def check_round(cmds, codes, exps, clean):
    """Faults in the outputs of one round's commands that exited 0.

    clean: the traffic has no impairment, so analyze must also match the
    frame log exactly in every complete window.
    """
    import checks
    faults = []
    test_rows = None
    for cmd, tries in zip(cmds, codes):
        if any(tries):
            continue
        where = f"{cmd.kind} {os.path.basename(cmd.out)}"
        if cmd.kind.startswith("analyze"):
            rows = checks.read_csv(cmd.out)[1]
            exp = exps[cmd.sids[0]]
            method = cmd.kind[len("analyze_"):]
            faults += checks.check_analyze(rows, exp, method, where)
            if clean:
                faults += checks.check_frame_log_truth(rows, exp, method,
                                                       where)
        elif cmd.kind.startswith("features"):
            header, rows = checks.read_csv(cmd.out)
            faults += checks.check_features(
                header, rows, {s: exps[s] for s in cmd.sids}, cmd.kind[len("features_"):],
                where)
        elif cmd.kind.startswith("train"):
            with open(cmd.out) as fh:
                n_trees = len(json.load(fh)["trees"])
            want = int(cmd.argv[cmd.argv.index("--trees") + 1])
            if n_trees != want:
                faults.append(f"{where}: {n_trees} trees, asked for {want}")
        else:
            if test_rows is None:
                test_rows = checks.read_csv(cmd.rows_of)[1]
            faults += checks.check_predictions(
                checks.read_csv(cmd.out)[1], test_rows, where,
                numeric=cmd.kind == "predict_fps")
    return faults


def scores(cmds, codes, exps):
    """Quality figures from one round's outputs: heuristic and ML fps
    within 2, and resolution accuracy."""
    import checks
    out = {}
    est = {}
    for cmd, tries in zip(cmds, codes):
        if any(tries):
            continue
        if cmd.kind == "analyze_ipudp":
            est[cmd.sids[0]] = checks.read_csv(cmd.out)[1]
        elif cmd.kind == "predict_fps":
            out["ml_fps_within2"] = checks.score_fps(
                checks.read_csv(cmd.out)[1], exps)
        elif cmd.kind == "predict_resolution":
            out["ml_resolution_accuracy"] = checks.score_resolution(
                checks.read_csv(cmd.out)[1], exps)
    out["heuristic_fps_within2"] = checks.score_heuristic(est, exps)
    return out


def end_to_end(cmds, rounds, setup_s, quality):
    """Each throughput metric is the work of the commands of its kinds over
    the sum of their times, each command's time being its fastest try over
    the untraced rounds; plus set-up time, peak memory and the quality
    figures."""
    metrics = {"setup_s": (setup_s, "s")}
    fastest = [min(times[i] for times, _codes in rounds)
               for i in range(len(cmds))]
    for name, (kinds, unit) in THROUGHPUT.items():
        mine = [i for i, c in enumerate(cmds) if c.kind in kinds]
        metrics[name] = (sum(cmds[i].work for i in mine)
                         / sum(fastest[i] for i in mine), unit)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mib"] = (peak_kib / 1024.0, "MiB")
    for name, value in quality.items():
        metrics[name] = (value, "fraction")
    return metrics


def diagnose_counts(calls, work):
    """assembly.diagnose summed over the test calls that carry RTP."""
    from vcaqoe.assembly import assemble_ipudp, diagnose
    from vcaqoe.classify import classify_by_size
    from vcaqoe.ingest import read_packet_csv, read_pcap
    total = {"split": 0, "coalesce": 0, "interleave": 0}
    for c in calls:
        if c["role"] != "test" or not c["rtp"]:
            continue
        path = os.path.join(work, c["path"])
        read = read_pcap if c["fmt"] == "pcap" else read_packet_csv
        video = classify_by_size(read(path)).video_packets()
        d = diagnose(assemble_ipudp(video), video)
        total["split"] += d.split_count
        total["coalesce"] += d.coalesce_count
        total["interleave"] += d.interleave_count
    return total


def per_layer(tracer, traced, untraced, manifest, calls, work):
    """Median over traced rounds of each layer metric, plus the set-up
    layers, the diagnose counts and the tracing overhead.

    traced: (first span, end span, command seconds) per traced round;
    untraced: command seconds per untraced round.
    """
    import tracing
    per_round = [tracing.round_metrics(tracer.spans[lo:hi])
                 for lo, hi, _s in traced]
    values = {name: statistics.median(m[name] for m in per_round)
              for name in per_round[0]}
    for name, (seconds, pkts) in manifest["layers"].items():
        values[name + ".pkts_per_s"] = pkts / seconds
    for kind, n in diagnose_counts(calls, work).items():
        values["assembly.diagnose." + kind] = n
    values["trace.overhead_s"] = (statistics.median(s for *_, s in traced)
                                  - statistics.median(untraced))
    return {name: (values.get(name, 0.0), unit)
            for name, unit in tracing.LAYER_METRICS.items()}


def bench(args, work, cli_run):
    import checks
    import tracing
    from workloads import REPEATS
    subprocess.run([sys.executable, os.path.join(BENCH, "make_inputs.py"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--dir", work], check=True)
    with open(os.path.join(work, "manifest.json")) as fh:
        manifest = json.load(fh)
    setup_s = manifest["inputs_done"] - T_START
    with open(os.path.join(work, "expect.json")) as fh:
        exps = {sid: checks.from_json(doc) for sid, doc in json.load(fh).items()}
    calls = manifest["calls"]
    clean = args.workload == "pcap-long-hd"
    cmds, joins = build_commands(calls, work, REPEATS[args.workload])
    os.makedirs(os.path.join(work, "out"), exist_ok=True)

    tracer = tracing.Tracer()
    rounds = []          # untraced: (seconds, exit codes) per command
    traced = []          # traced: span index range and command seconds
    attempted = failed = 0
    faults = []
    loop_start = time.monotonic()
    while True:
        trace_this = bool(args.trace) and len(rounds) > len(traced)
        if trace_this:
            lo = len(tracer.spans)
            uninstall = tracing.install(tracer)
            try:
                times, codes = run_round(cmds, joins, cli_run, tracer)
            finally:
                uninstall()
            traced.append((lo, len(tracer.spans), sum(times)))
        else:
            times, codes = run_round(cmds, joins, cli_run)
            rounds.append((times, codes))
        attempted += sum(len(tries) for tries in codes)
        failed += sum(code != 0 for tries in codes for code in tries)
        faults += check_round(cmds, codes, exps, clean)
        enough = traced if args.trace else len(rounds) >= MIN_ROUNDS
        if enough and time.monotonic() - loop_start >= args.seconds:
            break
    quality = scores(cmds, codes, exps)
    faults += checks.check_floors(quality, FLOORS.get(args.workload, {}))

    if args.trace:
        metrics = per_layer(tracer, traced,
                            [sum(t) for t, _c in rounds], manifest,
                            calls, work)
    else:
        metrics = end_to_end(cmds, rounds, setup_s, quality)
    for fault in faults[:20]:
        print("FAULT", fault, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} untraced and "
          f"{len(traced)} traced rounds of {len(cmds)} commands, "
          f"{len(faults)} faults", file=sys.stderr)
    print(json.dumps({
        "correct": not faults, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vcaqoe", "cli.py")):
        print(f"error: no vcaqoe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from vcaqoe.cli import run as cli_run

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return bench(args, work, cli_run)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up failed ({exc})", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
