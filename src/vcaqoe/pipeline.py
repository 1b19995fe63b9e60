"""End-to-end helpers chaining classification, assembly, and estimation."""

from __future__ import annotations

from .assembly import IpUdpAssemblyParams, ipudp_frame_table, rtp_frame_table
from .classify import PayloadTypeMap, SizeThreshold
from .heuristics import window_series
from .ingest import session_interior_windows
# PacketColumns stays importable here: bench/tracing.py wraps its `of`
from .session import MEDIA_CODE, MediaClass, PacketColumns  # noqa: F401


def analyze_session(session, method="ipudp", params=None, threshold=None,
                    ptmap=None, w=1.0):
    """Per-window QoE estimates for one session.

    method "ipudp": size-threshold classification + size-difference
    assembly; method "rtp": payload-type classification + RTP-timestamp
    grouping. Returns {window_start: QoeWindow}, the same series that
    estimate_series gives for the frames of assemble_ipudp/assemble_rtp
    over the classified session's video packets.
    """
    if method not in ("ipudp", "rtp"):
        raise ValueError(f"unknown method {method!r}")
    cols = session.columns
    if method == "ipudp":
        video = cols.take((threshold or SizeThreshold()).is_video(
            cols.payload_len))
        frames = ipudp_frame_table(video, params or IpUdpAssemblyParams())
    else:
        classes = (ptmap or PayloadTypeMap()).classify(cols.rtp_pt,
                                                       cols.payload_len)
        frames = rtp_frame_table(
            cols.take(classes == MEDIA_CODE[MediaClass.VIDEO]))
    span = (int(cols.arrival_us[0]), int(cols.arrival_us[-1]))
    return window_series(frames.end_us, frames.size_bytes, w, span_us=span)


def paired_metric(est_series, truth_rows, metric, session=None, w=1):
    """(pred, truth) lists for one metric over shared complete windows.

    truth_rows: QoeWindow list keyed by window_start. When a session is
    given, its partial first/last seconds are excluded.
    """
    w = int(w)
    truth_by_key = {r.window_start: r for r in truth_rows}
    keys = sorted(set(est_series) & set(truth_by_key))
    if session is not None:
        interior = session_interior_windows(session)
        lo = ((interior.start + w - 1) // w) * w
        hi = (interior.stop // w) * w
        keys = [k for k in keys if lo <= k and k + w <= hi]
    pred = [getattr(est_series[k], metric) for k in keys]
    truth = [getattr(truth_by_key[k], metric) for k in keys]
    return pred, truth
