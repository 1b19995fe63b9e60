"""Spans around the calls the CLI and the pipeline make into each layer.

The tracer replaces, for the length of a traced round, the names through
which ``vcaqoe.cli``, ``vcaqoe.pipeline`` and ``vcaqoe.features`` reach the
layers' public functions. Each call records one span: name, start, end,
parent span and the work it did (packets, rows, frames...). Nothing is
recorded per packet. Spans stay in memory; ``round_metrics`` reduces them
once the run is over.
"""

from __future__ import annotations

import time
import types
from dataclasses import dataclass, field

# Commands and spans are timed in this process's CPU seconds. Each command
# runs on this one thread, so on an idle machine CPU time is its wall time;
# on a shared machine it leaves out the time another tenant held the
# processor, which would otherwise swing the figures from run to run.
clock = time.process_time


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    work: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def dur(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.dur - self.child_s


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name, fn, work=None):
        """fn wrapped so that each call records a span; work(args, result)
        gives the span's counts and runs after the span has ended."""
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, 0.0, parent=parent)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent].child_s += span.dur
            if work is not None:
                span.work = work(args, out)
            return out
        return traced


def _n_packets(args, session):
    return {"pkts": len(session.packets)}


def _read_pcap_work(args, session):
    absent = sum(p.rtp is None for p in session.packets)
    return {"pkts": len(session.packets), "rtp_absent": absent}


def _classify_work(args, tagged):
    from vcaqoe.session import MediaClass
    video = sum(p.media_class is MediaClass.VIDEO for p in tagged.packets)
    return {"pkts": len(tagged.packets), "video": video}


def _analyze_work(args, series):
    session = args[0]
    method = args[1] if len(args) > 1 else "ipudp"
    return {"pkts": len(session.packets), "method": method}


def _feature_rows_work(args, out):
    keys, _x = out
    feature_set = args[1] if len(args) > 1 else "ipudp"
    return {"windows": len(keys), "set": feature_set}


def _cols_work(args, cols):
    return {"pkts": len(cols.arrival_us)}


def _table_work(args, table):
    return {"pkts": len(args[0].arrival_us), "frames": len(table.lo)}


def _window_work(args, series):
    return {"frames": len(args[0]), "windows": len(series)}


def _assemble_work(args, frames):
    return {"pkts": len(args[0]), "frames": len(frames)}


def install(tracer):
    """Route the CLI's and the pipeline's layer calls through the tracer;
    returns a function that puts the original names back."""
    from vcaqoe import cli, features, pipeline
    saved = []

    def patch(module, name, value):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    t = tracer
    patch(cli, "read_pcap", t.span("ingest.read_pcap", cli.read_pcap,
                                   _read_pcap_work))
    patch(cli, "read_packet_csv", t.span("ingest.read_packet_csv",
                                         cli.read_packet_csv, _n_packets))
    patch(cli, "read_ground_truth_csv",
          t.span("ingest.read_ground_truth_csv", cli.read_ground_truth_csv))
    patch(cli, "classify_by_size", t.span(
        "classify.classify_by_size", cli.classify_by_size, _classify_work))
    patch(cli, "classify_by_payload_type", t.span(
        "classify.classify_by_payload_type", cli.classify_by_payload_type,
        _classify_work))
    patch(cli, "session_feature_rows", t.span(
        "features.session_feature_rows", cli.session_feature_rows,
        _feature_rows_work))
    patch(cli, "analyze_session", t.span(
        "pipeline.analyze_session", cli.analyze_session, _analyze_work))
    patch(features, "assemble_rtp", t.span(
        "assembly.assemble_rtp", features.assemble_rtp, _assemble_work))
    patch(pipeline, "PacketColumns", types.SimpleNamespace(of=t.span(
        "session.PacketColumns.of", pipeline.PacketColumns.of, _cols_work)))
    patch(pipeline, "ipudp_frame_table", t.span(
        "assembly.ipudp_frame_table", pipeline.ipudp_frame_table,
        _table_work))
    patch(pipeline, "rtp_frame_table", t.span(
        "assembly.rtp_frame_table", pipeline.rtp_frame_table, _table_work))
    patch(pipeline, "window_series", t.span(
        "heuristics.window_series", pipeline.window_series, _window_work))
    for cls_name in ("RandomForestRegressor", "RandomForestClassifier"):
        patch(cli, cls_name, _traced_forest(t, getattr(cli, cls_name)))
    patch(cli, "save_forest", t.span("forest.save_forest", cli.save_forest))
    patch(cli, "load_forest", _traced_load(t, cli.load_forest))

    def uninstall():
        for module, name, value in reversed(saved):
            setattr(module, name, value)
    return uninstall


def _fit_work(args, model):
    return {"rows": len(args[0]), "trees": len(model.trees_),
            "nodes": sum(len(tree.feature) for tree in model.trees_)}


def _predict_work(args, out):
    return {"rows": len(out)}


def _traced_forest(tracer, cls):
    """A stand-in for a forest class whose instances trace fit."""
    def make(*args, **kwargs):
        model = cls(*args, **kwargs)
        model.fit = tracer.span(f"forest.{cls.__name__}.fit", model.fit,
                                _fit_work)
        return model
    return make


def _traced_load(tracer, load):
    """load_forest traced, returning models whose predict is traced."""
    traced_load = tracer.span("forest.load_forest", load)

    def wrapper(*args, **kwargs):
        model = traced_load(*args, **kwargs)
        model.predict = tracer.span(
            f"forest.{type(model).__name__}.predict", model.predict,
            _predict_work)
        return model
    return wrapper


# per-layer metric: unit. The traced run reports every one of them; a layer
# the workload never reaches reads 0.
LAYER_METRICS = {
    "synth.generate.pkts_per_s": "packets/s",
    "synth.impair.pkts_per_s": "packets/s",
    "ingest.write_pcap.pkts_per_s": "packets/s",
    "ingest.write_packet_csv.pkts_per_s": "packets/s",
    "ingest.read_pcap.pkts_per_s": "packets/s",
    "ingest.read_pcap.self_s": "s",
    "ingest.read_pcap.rtp_absent_share": "fraction",
    "ingest.read_packet_csv.pkts_per_s": "packets/s",
    "ingest.read_packet_csv.self_s": "s",
    "ingest.read_ground_truth_csv.self_s": "s",
    "session.PacketColumns.of.pkts_per_s": "packets/s",
    "pipeline.analyze_session.ipudp.pkts_per_s": "packets/s",
    "pipeline.analyze_session.rtp.pkts_per_s": "packets/s",
    "assembly.ipudp_frame_table.pkts_per_s": "packets/s",
    "assembly.rtp_frame_table.pkts_per_s": "packets/s",
    "heuristics.window_series.frames_per_s": "frames/s",
    "heuristics.windows": "count",
    "classify.classify_by_size.pkts_per_s": "packets/s",
    "classify.classify_by_payload_type.pkts_per_s": "packets/s",
    "classify.video_share": "fraction",
    "assembly.assemble_rtp.pkts_per_s": "packets/s",
    "features.session_feature_rows.ipudp.windows_per_s": "windows/s",
    "features.session_feature_rows.rtp.windows_per_s": "windows/s",
    "assembly.frames_ipudp": "count",
    "assembly.frames_rtp": "count",
    "assembly.diagnose.split": "count",
    "assembly.diagnose.coalesce": "count",
    "assembly.diagnose.interleave": "count",
    "forest.RandomForestRegressor.fit.row_trees_per_s": "row_trees/s",
    "forest.RandomForestRegressor.fit.nodes": "count",
    "forest.RandomForestClassifier.fit.row_trees_per_s": "row_trees/s",
    "forest.RandomForestClassifier.fit.nodes": "count",
    "forest.save_forest.self_s": "s",
    "forest.RandomForestRegressor.predict.rows_per_s": "rows/s",
    "forest.RandomForestClassifier.predict.rows_per_s": "rows/s",
    "forest.load_forest.self_s": "s",
    "cli.analyze.self_s": "s",
    "cli.features.self_s": "s",
    "cli.train.self_s": "s",
    "cli.predict.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_totals(spans):
    """Per span name (analyze and feature spans split by method or set):
    total seconds, self seconds and summed work counts."""
    totals = {}
    for span in spans:
        key = span.name
        for tag in ("method", "set"):
            if tag in span.work:
                key += "." + span.work[tag]
        cell = totals.setdefault(key, {"s": 0.0, "self_s": 0.0})
        cell["s"] += span.dur
        cell["self_s"] += span.self_s
        for k, v in span.work.items():
            if not isinstance(v, str):
                cell[k] = cell.get(k, 0) + v
    return totals


def round_metrics(spans):
    """The per-layer metrics one traced round gives."""
    totals = layer_totals(spans)

    def get(name, what):
        return totals.get(name, {}).get(what, 0)

    def rate(name, what):
        s = get(name, "s")
        return get(name, what) / s if s > 0 else 0.0

    def share(name, part, whole):
        n = get(name, whole)
        return get(name, part) / n if n else 0.0

    m = {}
    for name in ("ingest.read_pcap", "ingest.read_packet_csv",
                 "session.PacketColumns.of",
                 "pipeline.analyze_session.ipudp",
                 "pipeline.analyze_session.rtp",
                 "assembly.ipudp_frame_table", "assembly.rtp_frame_table",
                 "classify.classify_by_size",
                 "classify.classify_by_payload_type",
                 "assembly.assemble_rtp"):
        m[name + ".pkts_per_s"] = rate(name, "pkts")
    for name in ("ingest.read_pcap", "ingest.read_packet_csv",
                 "ingest.read_ground_truth_csv", "forest.save_forest",
                 "forest.load_forest", "cli.analyze", "cli.features",
                 "cli.train", "cli.predict"):
        m[name + ".self_s"] = get(name, "self_s")
    m["ingest.read_pcap.rtp_absent_share"] = share(
        "ingest.read_pcap", "rtp_absent", "pkts")
    m["heuristics.window_series.frames_per_s"] = rate(
        "heuristics.window_series", "frames")
    m["heuristics.windows"] = get("heuristics.window_series", "windows")
    m["classify.video_share"] = share("classify.classify_by_size", "video",
                                      "pkts")
    for fset in ("ipudp", "rtp"):
        m[f"features.session_feature_rows.{fset}.windows_per_s"] = rate(
            f"features.session_feature_rows.{fset}", "windows")
    m["assembly.frames_ipudp"] = get("assembly.ipudp_frame_table", "frames")
    m["assembly.frames_rtp"] = get("assembly.rtp_frame_table", "frames")
    for cls in ("RandomForestRegressor", "RandomForestClassifier"):
        fit = f"forest.{cls}.fit"
        s = get(fit, "s")
        m[fit + ".row_trees_per_s"] = (
            get(fit, "rows") * get(fit, "trees") / s if s > 0 else 0.0)
        m[fit + ".nodes"] = get(fit, "nodes")
        m[f"forest.{cls}.predict.rows_per_s"] = rate(
            f"forest.{cls}.predict", "rows")
    return m
