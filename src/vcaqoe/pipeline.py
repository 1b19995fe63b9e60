"""End-to-end helpers chaining classification, assembly, and estimation."""

from __future__ import annotations

import numpy as np

from .assembly import IpUdpAssemblyParams, ipudp_frame_table, rtp_frame_table
from .classify import PayloadTypeMap, SizeThreshold
from .heuristics import session_windows, whole_seconds, window_series
# PacketColumns stays importable here: bench/tracing.py wraps its `of`
from .session import MEDIA_CODE, MediaClass, PacketColumns  # noqa: F401


def analyze_session(session, method="ipudp", params=None, threshold=None,
                    w=1):
    """Per-window QoE estimates for one session.

    method "ipudp": size-threshold classification + size-difference
    assembly; method "rtp": classification by the default PayloadTypeMap +
    RTP-timestamp grouping. Returns a WindowTable, the window_series of the
    frames over the session's span. w is a positive whole number of seconds
    (whole_seconds).
    """
    if method not in ("ipudp", "rtp"):
        raise ValueError(f"unknown method {method!r}")
    w = whole_seconds(w)
    cols = session.columns
    if method == "ipudp":
        video = cols.take((threshold or SizeThreshold()).is_video(
            cols.payload_len))
        frames = ipudp_frame_table(video, params or IpUdpAssemblyParams())
    else:
        classes = PayloadTypeMap().classify(cols.rtp_pt, cols.payload_len)
        frames = rtp_frame_table(
            cols.take(classes == MEDIA_CODE[MediaClass.VIDEO]))
    span = (int(cols.arrival_us[0]), int(cols.arrival_us[-1]))
    return window_series(frames.end_us, frames.size_bytes, w, span)


def paired_metric(est, truth, metric, session=None, w=1):
    """(pred, truth) lists of one WindowTable column over the windows both
    tables hold, in window order. When a session is given, only its
    session_windows count."""
    keys, i, j = np.intersect1d(est.window_start, truth.window_start,
                                assume_unique=True, return_indices=True)
    if session is not None:
        keep = np.isin(keys, session_windows(session, w))
        i, j = i[keep], j[keep]
    return getattr(est, metric)[i].tolist(), getattr(truth, metric)[j].tolist()
