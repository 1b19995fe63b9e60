"""Per-window QoE estimates from an assembled frame sequence, and the one
rule for which windows count.

Frame rate counts frames ending inside the window, bitrate averages their
bits, and frame jitter is the population stddev of consecutive frame
end-time gaps. Gaps straddling a window boundary belong to the later
frame's window. Jitter is computed in the integer-microsecond domain so
constant gaps yield exactly zero.
"""

from __future__ import annotations

import numpy as np

from .session import MICROS_PER_S, QoeWindow

MIN_FRAMES_FOR_JITTER = 3


def window_segments(times_us, w=1.0, span_us=None):
    """Windows of w seconds over sorted int64 µs times: (keys, lo, hi).

    times_us[lo[i]:hi[i]] fall in the window that starts keys[i] seconds
    after the epoch. Whole-second windows cover every window from the one
    holding the first time to the one holding the last, or over
    span_us=(first, last) when given; their keys are ints. Sub-second
    windows cover only those holding a time; their keys are floats.
    """
    w_us = int(round(w * MICROS_PER_S))
    window = times_us // w_us
    if w_us % MICROS_PER_S == 0:
        first, last = (span_us if span_us is not None
                       else (times_us[0], times_us[-1]))
        windows = np.arange(first // w_us, last // w_us + 1)
        keys = (windows * (w_us // MICROS_PER_S)).tolist()
    else:
        windows = np.unique(window)
        keys = (windows * w_us / MICROS_PER_S).tolist()
    return (keys, np.searchsorted(window, windows, side="left"),
            np.searchsorted(window, windows, side="right"))


def segment_sums(values, lo, hi):
    """Exact sum of each segment values[lo[i]:hi[i]] of an integer or
    boolean array."""
    total = np.concatenate(([0], np.cumsum(values)))
    return total[hi] - total[lo]


def segment_stats(values, lo, hi, stats):
    """Each of stats, numpy reductions taking axis=, over each segment
    values[lo[i]:hi[i]]: a (len(lo), len(stats)) float64 array, zeros for
    an empty segment.

    Segments of one length are gathered into the rows of a 2-D array and
    reduced along its rows, which gives the bits of a call on each segment
    alone.
    """
    lengths = hi - lo
    out = np.zeros((len(lengths), len(stats)))
    order = np.argsort(lengths, kind="stable")
    groups, first = np.unique(lengths[order], return_index=True)
    for length, rows in zip(groups.tolist(), np.split(order, first[1:])):
        if length:
            block = values[lo[rows, None] + np.arange(length)]
            for j, stat in enumerate(stats):
                out[rows, j] = stat(block, axis=1)
    return out


def session_windows(session, w=1):
    """Starts of the w-second windows reported for a session: multiples of
    w from the second after the first arrival's on, each window ending by
    the end of the last arrival's second.

    The partial first second is dropped, the last second is kept: a
    window k counts when first_sec + 1 <= k and k + w <= last_sec + 1.
    """
    w = int(w)
    arrival_us = session.columns.arrival_us
    first = int(arrival_us[0]) // MICROS_PER_S
    last = int(arrival_us[-1]) // MICROS_PER_S
    return range(-(-(first + 1) // w) * w, last + 2 - w, w)


def estimate_series(frames, w=1.0, span_us=None):
    """All per-window QoE estimates for a frame sequence.

    Returns {window_start: QoeWindow} covering every window between the
    first and last frame end, or over span_us=(first, last) when given so
    frame-free windows report zero. Resolution is never estimated by this
    method.
    """
    n = len(frames)
    return window_series(
        np.fromiter((f.end_us for f in frames), np.int64, n),
        np.fromiter((f.size_bytes for f in frames), np.int64, n),
        w, span_us)


def window_series(end_us, size_bytes, w=1.0, span_us=None):
    """Per-window estimates from frame end times and sizes (int64 arrays).

    This is estimate_series on columns, over the windows of
    window_segments.
    """
    if len(end_us) == 0 and span_us is None:
        return {}
    order = np.argsort(end_us, kind="stable")
    end_us = end_us[order]
    keys, first, stop = window_segments(end_us, w, span_us)
    counts = stop - first
    bytes_in = segment_sums(size_bytes[order], first, stop)
    # gaps[i - 1] is the gap ending at frame i, counted in frame i's window
    timed = np.flatnonzero(counts >= MIN_FRAMES_FOR_JITTER)
    jitter = segment_stats(np.diff(end_us), np.maximum(first[timed], 1) - 1,
                           stop[timed] - 1, (np.std,))[:, 0] / 1000.0
    jitter = dict(zip(timed.tolist(), jitter.tolist()))
    return {k: QoeWindow(window_start=k, duration_s=w, fps=fps,
                         bitrate_kbps=kbps, frame_jitter_ms=jitter.get(i))
            for i, (k, fps, kbps) in enumerate(zip(
                keys, (counts / w).tolist(),
                (bytes_in * 8.0 / w / 1000.0).tolist()))}
