"""The benchmark's own computation of what the commands must output.

Expectations are made once, at set-up, from the packets and the frame log
the generator produced; they never come from an earlier run's output. Each
``check_*`` function compares one command's output with them and returns a
list of faults, empty when the output is right. The ``score_*`` functions
give the quality figures the benchmark reports.

Rules, written from the README and the paper rather than from the code:
- a frame's window is the second its last packet (or, for RTP, its
  marker-bit packet) arrives in; its bytes are its packets' payloads less
  the 12-byte RTP header each;
- ``analyze`` emits every second from the one after the first packet's to
  the last packet's;
- IP/UDP video is every packet of at least ``v_min`` payload bytes; packets
  join the frame of the most recent of the previous ``n_max`` video packets
  whose size is within ``delta`` bytes, else open a frame;
- RTP video is every packet of the video payload type; a frame is one RTP
  timestamp.
"""

from __future__ import annotations

import csv
import math

MICROS = 1_000_000
RTP_HEADER = 12
HEIGHT_EDGES = ((400.0, 180), (1000.0, 360), (math.inf, 720))


# ------------------------------------------------------------ expectations

def _per_second(seconds, values):
    """{second: [count, sum of values]} over parallel sequences."""
    out = {}
    for sec, v in zip(seconds, values):
        cell = out.setdefault(sec, [0, 0])
        cell[0] += 1
        cell[1] += v
    return out


def lookback_frames(arrivals, sizes, delta, n_max):
    """(end_us, bytes) per frame under the size-similarity lookback rule.

    arrivals and sizes are the video packets in arrival order.
    """
    label = []
    end, nbytes = [], []
    for i, size in enumerate(sizes):
        lab = None
        for k in range(1, n_max + 1):
            if i - k < 0:
                break
            if abs(size - sizes[i - k]) <= delta:
                lab = label[i - k]
                break
        if lab is None:
            lab = len(end)
            end.append(0)
            nbytes.append(0)
        label.append(lab)
        end[lab] = max(end[lab], arrivals[i])
        nbytes[lab] += size - RTP_HEADER
    return end, nbytes


def rtp_frames(arrivals, stamps, markers, sizes):
    """(end_us, bytes) per RTP timestamp: the marker packet's arrival ends
    the frame, else its last packet's."""
    frames = {}
    for t, ts, m, size in zip(arrivals, stamps, markers, sizes):
        f = frames.setdefault(ts, [0, None, 0])
        f[0] = max(f[0], t)
        if m:
            f[1] = t
        f[2] += size - RTP_HEADER
    return ([f[0] if f[1] is None else f[1] for f in frames.values()],
            [f[2] for f in frames.values()])


def inseparable_seconds(video, delta, n_max):
    """Seconds in which a frame ends that the input does not keep apart:
    one of its packets is within delta bytes of one of the n_max video
    packets before it that belongs to another frame. video: the size
    video's (arrival_us, payload_len, frame id) in arrival order."""
    end = {}
    for t, _size, fid in video:
        end[fid] = max(end.get(fid, t), t)
    bad = set()
    for i, (_t, size, fid) in enumerate(video):
        for k in range(1, n_max + 1):
            if i - k < 0:
                break
            _t2, size2, fid2 = video[i - k]
            if fid2 != fid and abs(size - size2) <= delta:
                bad.update((end[fid] // MICROS, end[fid2] // MICROS))
    return sorted(bad)


def expect_call(packets, frame_log, *, has_rtp, v_min, video_pt, delta,
                n_max):
    """Expected outputs for one call.

    packets: (arrival_us, payload_len, rtp_pt, rtp_ts, rtp_marker) tuples
    in arrival order, as generated (with RTP fields, which give each
    packet's frame). has_rtp: the input file carries the RTP headers.
    frame_log: (complete_us, media_bytes) per sent frame. Windows are whole
    seconds.
    """
    first_sec = packets[0][0] // MICROS
    last_sec = packets[-1][0] // MICROS
    big = [p for p in packets if p[1] >= v_min]
    ends, nbytes = lookback_frames([p[0] for p in big], [p[1] for p in big],
                                   delta, n_max)
    exp = {
        "first_sec": first_sec, "last_sec": last_sec,
        "truth": _per_second([c // MICROS for c, _ in frame_log],
                             [b for _, b in frame_log]),
        "ipudp": _per_second([e // MICROS for e in ends], nbytes),
        "by_size": _per_second([p[0] // MICROS for p in big],
                               [p[1] for p in big]),
        "inseparable": inseparable_seconds(
            [(p[0], p[1], p[3]) for p in big], delta, n_max),
        "rtp": None, "by_pt": None,
    }
    video = [p for p in packets if p[2] == video_pt]
    if has_rtp and video:
        ends, nbytes = rtp_frames([p[0] for p in video],
                                  [p[3] for p in video],
                                  [p[4] for p in video],
                                  [p[1] for p in video])
        exp["rtp"] = _per_second([e // MICROS for e in ends], nbytes)
        exp["by_pt"] = _per_second([p[0] // MICROS for p in video],
                                   [p[1] for p in video])
    return exp


TABLES = ("truth", "ipudp", "by_size", "rtp", "by_pt")


def to_json(exp):
    """JSON keys are strings; per-second tables become [sec, n, sum]."""
    return {k: ([[s, *v] for s, v in sorted(val.items())]
                if k in TABLES and val is not None else val)
            for k, val in exp.items()}


def from_json(doc):
    return {k: ({r[0]: r[1:] for r in val}
                if k in TABLES and val is not None else val)
            for k, val in doc.items()}


def truth_at(exp, sec):
    """(fps, frame height or None) the generator sent in one second."""
    n, nbytes = exp["truth"].get(sec, (0, 0))
    if n == 0:
        return 0, None
    kbps = nbytes * 8.0 / 1000.0
    return n, next(h for edge, h in HEIGHT_EDGES if kbps <= edge)


# ---------------------------------------------------------------- readers

def read_csv(path):
    """(header, rows) of a CSV file written by the CLI."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [row for row in reader if row]


# ----------------------------------------------------------------- checks

def _close(a, b, tol=5e-7):
    return abs(a - b) <= tol


def check_analyze(rows, exp, method, where):
    """analyze output: the emitted seconds, and per second the frame count
    and frame bytes of the benchmark's own assembly."""
    faults = []
    table = exp[method]
    if table is None:
        return [f"{where}: no {method} expectation (call has no RTP)"]
    want = list(range(exp["first_sec"] + 1, exp["last_sec"] + 1))
    got = [int(r[0]) for r in rows]
    if got != want:
        return [f"{where}: windows {got[:3]}..{got[-3:]} != "
                f"{want[:3]}..{want[-3:]} ({len(got)} vs {len(want)})"]
    for r in rows:
        sec = int(r[0])
        n, nbytes = table.get(sec, (0, 0))
        if float(r[1]) != n:
            faults.append(f"{where}: second {sec} fps {r[1]} != {n}")
        elif not _close(float(r[2]), nbytes * 8.0 / 1000.0):
            faults.append(f"{where}: second {sec} kbps {r[2]} != "
                          f"{nbytes * 8.0 / 1000.0}")
    return faults


def complete_windows(rows, exp):
    """(second, fps, kbps) of the rows of whole seconds inside the call."""
    lo, hi = exp["first_sec"] + 1, exp["last_sec"] - 1
    return [(int(r[0]), float(r[1]), float(r[2])) for r in rows
            if lo <= int(r[0]) <= hi]


def check_frame_log_truth(rows, exp, method, where, max_mrae=0.02):
    """analyze on clean traffic: fps equals the frame log in every complete
    window, and bitrate MRAE against it is at most max_mrae. For the IP/UDP
    method, windows where the input itself does not keep frames apart by
    size are not held to the frame log."""
    faults, rel = [], []
    excused = set(exp["inseparable"]) if method == "ipudp" else set()
    for sec, fps, kbps in complete_windows(rows, exp):
        n, nbytes = exp["truth"].get(sec, (0, 0))
        if fps != n and sec not in excused:
            faults.append(f"{where}: second {sec} fps {fps} != frame log {n}")
        if nbytes:
            truth_kbps = nbytes * 8.0 / 1000.0
            rel.append(abs(kbps - truth_kbps) / truth_kbps)
    if not rel:
        faults.append(f"{where}: no complete window")
    elif sum(rel) / len(rel) > max_mrae:
        faults.append(f"{where}: bitrate MRAE {sum(rel) / len(rel):.4f} "
                      f"> {max_mrae}")
    return faults


def feature_windows(exp, table):
    """Seconds a features CSV holds for one call: from the first to the last
    second with a video packet, inside the seconds analyze emits."""
    secs = exp[table]
    if not secs:
        return []
    lo = max(min(secs), exp["first_sec"] + 1)
    hi = min(max(secs), exp["last_sec"])
    return list(range(lo, hi + 1))


def check_features(header, rows, exps, feature_set, where):
    """features output: for every call the expected seconds, in order, and
    per second pkts_per_s and bytes_per_s equal to the count and payload
    sum of that second's video packets."""
    table = "by_size" if feature_set == "ipudp" else "by_pt"
    if header[:4] != ["session_id", "window_start", "bytes_per_s",
                      "pkts_per_s"]:
        return [f"{where}: header {header[:4]}"]
    faults = []
    by_sid = {}
    for r in rows:
        by_sid.setdefault(r[0], []).append(r)
    if sorted(by_sid) != sorted(exps):
        faults.append(f"{where}: sessions {sorted(by_sid)} != {sorted(exps)}")
    for sid, exp in exps.items():
        got_rows = by_sid.get(sid, [])
        got = [int(r[1]) for r in got_rows]
        want = feature_windows(exp, table)
        if got != want:
            faults.append(f"{where}: {sid} windows {got[:3]}..{got[-3:]} != "
                          f"{want[:3]}..{want[-3:]} ({len(got)} vs "
                          f"{len(want)})")
            continue
        for r in got_rows:
            n, nbytes = exp[table].get(int(r[1]), (0, 0))
            if float(r[3]) != n or float(r[2]) != nbytes:
                faults.append(f"{where}: {sid} second {r[1]} pkts/bytes "
                              f"{r[3]}/{r[2]} != {n}/{nbytes}")
    return faults


def check_predictions(pred_rows, feature_rows, where, numeric):
    """predict output: exactly one row per test feature row, same keys in
    the same order, each prediction a finite number or a class label."""
    want = [(r[0], r[1]) for r in feature_rows]
    got = [(r[0], r[1]) for r in pred_rows]
    if got != want:
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        return [f"{where}: {len(got)} rows for {len(want)} keys "
                f"(missing {missing}, extra {extra})"]
    faults = []
    for r in pred_rows:
        if numeric:
            try:
                ok = math.isfinite(float(r[2]))
            except ValueError:
                ok = False
        else:
            ok = r[2] != ""
        if not ok:
            faults.append(f"{where}: {r[0]} {r[1]} prediction {r[2]!r}")
            break
    return faults


def check_floors(quality, floors):
    """Quality figures below their floor, or missing."""
    faults = []
    for name, floor in floors.items():
        value = quality.get(name)
        if value is None or value < floor:
            faults.append(f"{name} {value} below its floor {floor}")
    return faults


# ---------------------------------------------------------------- scores

def score_heuristic(rows_by_sid, exps, tol=2.0):
    """Share of complete windows of the test calls where analyze --method
    ipudp fps is within tol of the frame log."""
    hits = total = 0
    for sid, rows in rows_by_sid.items():
        exp = exps[sid]
        for sec, fps, _kbps in complete_windows(rows, exp):
            total += 1
            hits += abs(fps - truth_at(exp, sec)[0]) <= tol
    return hits / total if total else 0.0


def score_fps(pred_rows, exps, tol=2.0):
    """Share of predicted windows within tol of the frame log's fps."""
    hits = sum(abs(float(r[2]) - truth_at(exps[r[0]], int(r[1]))[0]) <= tol
               for r in pred_rows)
    return hits / len(pred_rows) if pred_rows else 0.0


def score_resolution(pred_rows, exps):
    """Share of predicted windows, among those with frames, whose class is
    the frame height of the generator's bitrate tier."""
    hits = total = 0
    for r in pred_rows:
        height = truth_at(exps[r[0]], int(r[1]))[1]
        if height is None:
            continue
        total += 1
        hits += r[2] == str(height)
    return hits / total if total else 0.0
