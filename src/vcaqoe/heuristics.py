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

from .session import MICROS_PER_S, NO_HEIGHT, WindowTable

MIN_FRAMES_FOR_JITTER = 3


def window_segments(times_us, w, span_us):
    """Windows of w seconds over sorted int64 µs times: (keys, lo, hi).

    times_us[lo[i]:hi[i]] fall in the window that starts keys[i] seconds
    after the epoch. The windows run from the one holding span_us[0] to
    the one holding span_us[1]; w is a positive whole number of seconds
    (whole_seconds) and the keys are ints.
    """
    w_us = w * MICROS_PER_S
    window = times_us // w_us
    first, last = span_us
    windows = np.arange(first // w_us, last // w_us + 1)
    return ((windows * w).tolist(),
            np.searchsorted(window, windows, side="left"),
            np.searchsorted(window, windows, side="right"))


def segment_sums(values, lo, hi):
    """Exact sum of each segment values[lo[i]:hi[i]] of an integer or
    boolean array."""
    total = np.concatenate(([0], np.cumsum(values)))
    return total[hi] - total[lo]


def segment_stats(values, lo, hi, stats):
    """Each of stats, names among "mean", "std", "median", "min" and
    "max", over each segment values[lo[i]:hi[i]]: a (len(lo), len(stats))
    float64 array, zeros for an empty segment. values is a float64 array,
    or an integer one when stats are only mean and std.

    Segments of one length are gathered into the rows of a 2-D array.
    Mean and std reduce its rows, which gives the bits of np.mean and
    np.std on each segment alone. Median, min and max are read off the
    rows sorted once, which gives the bits of np.median, np.min and np.max
    on finite values, signed zeros aside: of -0.0 and 0.0 the sort may put
    either first.
    """
    lengths = hi - lo
    out = np.zeros((len(lengths), len(stats)))
    order = np.argsort(lengths, kind="stable")
    groups, first = np.unique(lengths[order], return_index=True)
    for n, rows in zip(groups.tolist(), np.split(order, first[1:])):
        if not n:
            continue
        block = values[lo[rows, None] + np.arange(n)]
        got = {name: getattr(block, name)(axis=1)
               for name in ("mean", "std") if name in stats}
        if len(got) < len(stats):
            block.sort(axis=1)
            mid = block[:, n // 2]
            got.update(min=block[:, 0], max=block[:, -1], median=(
                mid if n % 2 else (block[:, n // 2 - 1] + mid) / 2))
        out[rows] = np.column_stack([got[name] for name in stats])
    return out


def whole_seconds(w):
    """A window width w as an int; ValueError unless w is a positive whole
    number of seconds."""
    if not (w >= 1 and float(w).is_integer()):
        raise ValueError(f"window must be a positive whole number of "
                         f"seconds, got {w!r}")
    return int(w)


def session_windows(session, w=1):
    """Starts of the w-second windows reported for a session: multiples of
    w from the second after the first arrival's on, each window ending by
    the end of the last arrival's second.

    The partial first second is dropped, the last second is kept: a
    window k counts when first_sec + 1 <= k and k + w <= last_sec + 1.
    w must be a positive whole number of seconds (whole_seconds).
    """
    w = whole_seconds(w)
    arrival_us = session.columns.arrival_us
    first = int(arrival_us[0]) // MICROS_PER_S
    last = int(arrival_us[-1]) // MICROS_PER_S
    return range(-(-(first + 1) // w) * w, last + 2 - w, w)


def window_series(end_us, size_bytes, w, span_us):
    """Per-window QoE estimates from frame end times and sizes (int64
    arrays): a WindowTable of the windows of window_segments, so frame-free
    windows in span_us=(first, last) report zero. Jitter is nan in a
    window with fewer than MIN_FRAMES_FOR_JITTER frames. w is a positive
    whole number of seconds (whole_seconds). Resolution is never estimated
    by this method: every frame_height is NO_HEIGHT.
    """
    order = np.argsort(end_us, kind="stable")
    end_us = end_us[order]
    keys, first, stop = window_segments(end_us, w, span_us)
    counts = stop - first
    bytes_in = segment_sums(size_bytes[order], first, stop)
    # gaps[i - 1] is the gap ending at frame i, counted in frame i's window
    timed = np.flatnonzero(counts >= MIN_FRAMES_FOR_JITTER)
    jitter = np.full(len(keys), np.nan)
    jitter[timed] = segment_stats(
        np.diff(end_us), np.maximum(first[timed], 1) - 1, stop[timed] - 1,
        ("std",))[:, 0] / 1000.0
    return WindowTable(np.array(keys, dtype=np.int64), counts / w,
                       bytes_in * 8.0 / w / 1000.0, jitter,
                       np.full(len(keys), NO_HEIGHT))
