"""Property tests: the columnar kernels against per-packet reference rules."""

import os
import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcaqoe.assembly import (IpUdpAssemblyParams, assemble_ipudp,
                             assemble_rtp, lookback_labels)
from vcaqoe.classify import (SizeThreshold, classify_by_payload_type,
                             classify_by_size)
from vcaqoe.features import (RTP_FEATURE_NAMES, SemanticParams,
                             session_feature_rows)
from vcaqoe.forest import (RandomForestClassifier, RandomForestRegressor,
                           _best_splits, _column_ranks)
from vcaqoe.heuristics import estimate_series
from vcaqoe.ingest import (read_packet_csv, read_pcap, write_packet_csv,
                           write_pcap)
from vcaqoe.pipeline import analyze_session
from vcaqoe.session import (MediaClass, PacketColumns, PacketRecord,
                            RtpError, RtpHeader, Session, parse_rtp_header)
from vcaqoe.synth import ImpairmentProfile, SenderProfile, generate, impair


def reference_labels(sizes, delta_size_max, n_max):
    """The README rule, one packet at a time: compared against up to n_max
    previous packets, most recent first; joins the frame of the first within
    delta_size_max, else opens a new frame."""
    labels = []
    next_id = 0
    for i, size in enumerate(sizes):
        for j in range(i - 1, max(-1, i - 1 - n_max), -1):
            if abs(sizes[j] - size) <= delta_size_max:
                labels.append(labels[j])
                break
        else:
            labels.append(next_id)
            next_id += 1
    return labels


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1000, 1012), max_size=80),
       delta_size_max=st.integers(0, 4), n_max=st.integers(1, 4))
@example(sizes=[], delta_size_max=2, n_max=2)
def test_lookback_labels_match_reference_loop(sizes, delta_size_max, n_max):
    got = lookback_labels(sizes, delta_size_max, n_max)
    assert got.tolist() == reference_labels(sizes, delta_size_max, n_max)


sender_profiles = st.builds(
    SenderProfile,
    fps=st.sampled_from([5.0, 12.0, 24.0, 30.0]),
    bitrate_kbps=st.floats(100.0, 1500.0),
    keyframe_interval=st.integers(0, 10),
    frame_size_jitter=st.floats(0.0, 0.2),
    separable=st.booleans())
impairments = st.builds(
    ImpairmentProfile,
    delay_jitter_ms=st.floats(0.0, 100.0),
    loss_prob=st.floats(0.0, 0.2),
    retransmit=st.booleans())


@settings(max_examples=40, deadline=None)
@given(profile=sender_profiles, impairment=impairments,
       seed=st.integers(0, 1000), w=st.sampled_from([1.0, 2.0, 0.5]),
       v_min=st.sampled_from([300, 500, 700]),
       delta_size_max=st.integers(0, 4), n_max=st.integers(1, 4))
def test_analyze_session_equals_object_path(profile, impairment, seed, w,
                                            v_min, delta_size_max, n_max):
    session, _truth, _log = generate(profile, 4.0, seed=seed)
    session = impair(session, impairment, seed=seed)
    span = (session.packets[0].arrival_us, session.packets[-1].arrival_us)
    params = IpUdpAssemblyParams(delta_size_max, n_max)
    threshold = SizeThreshold(v_min)

    video = classify_by_size(session, threshold).video_packets()
    expected = estimate_series(assemble_ipudp(video, params), w, span_us=span)
    got = analyze_session(session, "ipudp", params, threshold, w=w)
    assert got == expected

    video = classify_by_payload_type(session).video_packets()
    expected = estimate_series(assemble_rtp(video), w, span_us=span)
    assert analyze_session(session, "rtp", w=w) == expected


def without_rtp(session):
    """The session as sent without RTP headers: same sizes and times."""
    return Session(session.session_id, session.vca_label, [
        PacketRecord(p.arrival_us, p.src_ip, p.dst_ip, p.src_port,
                     p.dst_port, p.payload_len) for p in session.packets])


def random_session(profile, impairment, seed, rtp):
    session, _truth, _log = generate(profile, 4.0, seed=seed)
    session = impair(session, impairment, seed=seed)
    return session if rtp else without_rtp(session)


@settings(max_examples=25, deadline=None)
@given(profile=sender_profiles, impairment=impairments,
       seed=st.integers(0, 1000), rtp=st.booleans())
def test_readers_decode_the_written_packets(profile, impairment, seed, rtp):
    session = random_session(profile, impairment, seed, rtp)
    expected = PacketColumns.of(session.packets)
    with tempfile.TemporaryDirectory() as tmp:
        for write, read, name in ((write_pcap, read_pcap, "s.pcap"),
                                  (write_packet_csv, read_packet_csv,
                                   "s.packets.csv")):
            path = os.path.join(tmp, name)
            write(session, path)
            back = read(path)
            for f in fields(PacketColumns):
                assert np.array_equal(getattr(back.columns, f.name),
                                      getattr(expected, f.name)), f.name
            assert back.packets == session.packets


# --- feature rows, one packet at a time ------------------------------------

def five_stats(values):
    if not values:
        return [0.0] * 5
    a = np.asarray(values, dtype=np.float64)
    return [float(a.mean()), float(a.std()), float(np.median(a)),
            float(a.min()), float(a.max())]


def reference_flow(video, w):
    if not video:
        return [0.0] * 12
    sizes = [p.payload_len for p in video]
    out = [sum(sizes) / w, len(video) / w] + five_stats(sizes)
    if len(video) < 2:
        return out + [0.0] * 5
    iats = [(b.arrival_us - a.arrival_us) / 1_000_000
            for a, b in zip(video, video[1:])]
    return out + five_stats(iats)


def reference_semantic(video, params):
    if not video:
        return [0.0, 0.0]
    bursts = 1 + sum(b.arrival_us - a.arrival_us >= params.theta_iat_ms * 1000
                     for a, b in zip(video, video[1:]))
    return [float(len({p.payload_len for p in video})), float(bursts)]


def reference_rtp_frames(video):
    """(end_us, start_us, rtp_ts) per RTP timestamp, ended by the last
    marker packet or the last arrival, ordered by end then start."""
    groups = {}
    for p in video:
        groups.setdefault(p.rtp.timestamp, []).append(p)
    frames = []
    for ts, members in groups.items():
        marked = [p.arrival_us for p in members if p.rtp.marker]
        arrivals = [p.arrival_us for p in members]
        frames.append((marked[-1] if marked else max(arrivals),
                       min(arrivals), ts))
    return sorted(frames, key=lambda f: (f[0], f[1]))


def reference_lag(frame, origin, sampling_freq):
    end_us, _start, ts = frame
    delta = (ts - origin[1]) & 0xFFFFFFFF
    if delta >= 1 << 31:
        delta -= 1 << 32
    return (end_us - (origin[0] + delta * 1_000_000 / sampling_freq)) \
        / 1_000_000


def reference_rtp(media, lags):
    video = [p for p in media if p.media_class is MediaClass.VIDEO]
    retx = [p for p in media if p.media_class is MediaClass.VIDEO_RETX]
    ts_v = {p.rtp.timestamp for p in video}
    ts_r = {p.rtp.timestamp for p in retx}
    backward = sum((b.rtp.sequence - a.rtp.sequence) % 65536 >= 32768
                   for a, b in zip(video, video[1:]))
    return [float(len(ts_v)), float(len(ts_r)), float(len(ts_v & ts_r)),
            float(len(ts_v | ts_r)), float(sum(p.rtp.marker for p in video)),
            float(sum(p.rtp.marker for p in retx)),
            float(backward)] + five_stats(lags)


def reference_feature_rows(tagged, feature_set, w, params):
    wus = w * 1_000_000
    video = tagged.video_packets()
    keys = list(range(video[0].arrival_us // wus * w,
                      video[-1].arrival_us // wus * w + w, w))
    in_window = {k: [] for k in keys}
    for p in tagged.packets:
        k = p.arrival_us // wus * w
        if k in in_window and (p.media_class is MediaClass.VIDEO or (
                feature_set == "rtp"
                and p.media_class is MediaClass.VIDEO_RETX)):
            in_window[k].append(p)
    lags = {k: [] for k in keys}
    if feature_set == "rtp":
        frames = reference_rtp_frames(video)
        origin = (frames[0][0], frames[0][2])
        for f in frames:
            lags[f[0] // wus * w].append(
                reference_lag(f, origin, params.sampling_freq))
    rows = []
    for k in keys:
        vid = [p for p in in_window[k] if p.media_class is MediaClass.VIDEO]
        row = reference_flow(vid, float(w))
        if feature_set == "ipudp":
            row += reference_semantic(vid, params)
        else:
            row += reference_rtp(in_window[k], lags[k])
        rows.append(row)
    return keys, np.asarray(rows, dtype=np.float64)


@settings(max_examples=40, deadline=None)
@given(profile=sender_profiles, impairment=impairments,
       seed=st.integers(0, 1000), w=st.sampled_from([1, 2, 3]),
       v_min=st.sampled_from([300, 500, 700]),
       theta_iat_ms=st.sampled_from([0.05, 3.0, 20.0]))
def test_feature_rows_equal_per_packet_reference(profile, impairment, seed,
                                                 w, v_min, theta_iat_ms):
    session = random_session(profile, impairment, seed, rtp=True)
    params = SemanticParams(theta_iat_ms=theta_iat_ms)
    for feature_set, tagged in (
            ("ipudp", classify_by_size(session, SizeThreshold(v_min))),
            ("rtp", classify_by_payload_type(session))):
        keys, X = session_feature_rows(tagged, feature_set, w, params)
        if not tagged.video_packets():
            assert keys == [] and len(X) == 0
            continue
        ref_keys, ref_X = reference_feature_rows(tagged, feature_set, w,
                                                 params)
        assert keys == ref_keys
        assert np.array_equal(X, ref_X)


def edge_case_session():
    """Seconds 10-15 of a hand-built call, with the window shapes the
    segment kernel must get right."""
    def rtp(us, size, pt, seq, ts, marker=False):
        return PacketRecord(us, "10.0.0.1", "10.0.0.2", 5000, 6000, size,
                            RtpHeader(2, False, False, marker, 0, pt, seq,
                                      ts, 7))
    return Session("edges", "", [
        rtp(10_000_000, 1000, 102, 100, 0),
        rtp(10_001_000, 1000, 102, 102, 0),
        rtp(10_010_000, 1200, 102, 101, 0, True),    # back by one in second 10
        rtp(11_500_000, 900, 102, 103, 3000, True),  # one video packet
        rtp(12_400_000, 120, 111, 7, 0),             # audio only: a zero row
        rtp(13_200_000, 1000, 103, 1, 0),            # retransmissions only
        rtp(13_300_000, 900, 103, 2, 3000),
        rtp(14_100_000, 1000, 102, 101, 6000),       # back from 103 across
        rtp(14_600_000, 1000, 102, 104, 9000, True),  # windows; two packets
        rtp(15_000_000, 1100, 102, 105, 12000),
        rtp(15_020_000, 1100, 103, 3, 12000),
        rtp(15_040_000, 1100, 102, 106, 12000, True),
    ])


@pytest.mark.parametrize("w", [1, 2, 3])
def test_feature_rows_edge_cases_equal_reference(w):
    session = edge_case_session()
    params = SemanticParams()
    for feature_set, tagged in (
            ("ipudp", classify_by_size(session, SizeThreshold(500))),
            ("rtp", classify_by_payload_type(session))):
        keys, X = session_feature_rows(tagged, feature_set, w, params)
        ref_keys, ref_X = reference_feature_rows(tagged, feature_set, w,
                                                 params)
        assert keys == ref_keys
        assert np.array_equal(X, ref_X)
    if w == 1:
        rows = dict(zip(keys, X))
        column = {name: i for i, name in enumerate(RTP_FEATURE_NAMES)}
        assert not rows[12].any()
        assert rows[11][column["pkts_per_s"]] == 1.0
        assert rows[14][column["pkts_per_s"]] == 2.0
        assert not rows[13][:column["unique_rtp_ts_video"]].any()
        assert rows[13][column["unique_rtp_ts_retx"]] == 2.0
        assert rows[15][column["unique_rtp_ts_intersection"]] == 1.0
    # only the step back inside second 10 counts
    assert X[:, RTP_FEATURE_NAMES.index("ooo_count")].sum() == 1.0


# --- the columnar RTP rule of read_pcap against parse_rtp_header -----------

def rtp_bytes(version=2, csrc_count=0, extension=False, ext_words=0,
              ext_words_present=None, tail=0, padding=False):
    b0 = (version << 6) | (int(padding) << 5) | (int(extension) << 4) \
        | csrc_count
    out = struct.pack(">BBHII", b0, 0x80 | 102, 7, 3000, 0x1111)
    out += b"".join(struct.pack(">I", 100 + i) for i in range(csrc_count))
    if extension:
        present = ext_words if ext_words_present is None else ext_words_present
        out += struct.pack(">HH", 0xBEDE, ext_words) + bytes(4 * present)
    return out + bytes(tail)


def read_one_payload(payload, snap=None):
    """read_pcap's RTP header for one UDP packet carrying payload, of which
    the capture holds the first snap bytes of the frame."""
    udp = struct.pack(">HHHH", 1, 2, 8 + len(payload), 0) + payload
    ip = struct.pack(">BBHHHBBH", 0x45, 0, 20 + len(udp), 0, 0, 64, 17, 0)
    frame = b"\x02" * 12 + b"\x08\x00" + ip + bytes(8) + udp
    captured = frame if snap is None else frame[:snap]
    blob = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
    blob += struct.pack("<IIII", 1, 0, len(captured), len(frame)) + captured
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "one.pcap")
        with open(path, "wb") as fh:
            fh.write(blob)
        session = read_pcap(path)
    assert len(session.packets) == 1
    return session.packets[0].rtp, captured[42:]


def parsed_or_none(raw):
    try:
        return parse_rtp_header(raw)
    except RtpError:
        return None


@pytest.mark.parametrize("payload,snap", [
    (rtp_bytes(tail=100), 42 + 8),                        # snap-truncated
    (rtp_bytes(tail=100), 42 + 12),                       # header just fits
    (rtp_bytes(padding=True, tail=4), None),
    (rtp_bytes(csrc_count=3)[:12 + 8], None),             # CSRC overrun
    (rtp_bytes(csrc_count=2, extension=True, ext_words=1, tail=5), None),
    (rtp_bytes(extension=True, ext_words=5, ext_words_present=4), None),
    (rtp_bytes(extension=True)[:12 + 2], None),           # extension header
    (rtp_bytes(version=1, tail=20), None),
    (rtp_bytes(version=3, tail=20), None),
])
def test_read_pcap_rtp_rule_examples(payload, snap):
    got, captured = read_one_payload(payload, snap)
    assert got == parsed_or_none(captured)


@settings(max_examples=150, deadline=None)
@given(version=st.integers(0, 3), csrc_count=st.integers(0, 15),
       extension=st.booleans(), ext_words=st.integers(0, 6),
       ext_words_present=st.integers(0, 6), tail=st.integers(0, 30),
       padding=st.booleans(), cut=st.integers(0, 120),
       snap=st.none() | st.integers(42, 200))
def test_read_pcap_rtp_rule_matches_parse_rtp_header(
        version, csrc_count, extension, ext_words, ext_words_present, tail,
        padding, cut, snap):
    payload = rtp_bytes(version, csrc_count, extension, ext_words,
                        ext_words_present, tail, padding)[:cut]
    got, captured = read_one_payload(payload, snap)
    assert got == parsed_or_none(captured)


def reference_stats(y, task, n_classes):
    """Split statistics of a node's rows: the target less the node's mean
    rounded to an integer (variance), or one-hot labels (Gini)."""
    if task == "regression":
        return (y - np.round(np.mean(y)))[:, None]
    return y[:, None] == np.arange(n_classes)


def reference_cut_gains(stats):
    """Impurity gain of every cut of one sorted column, from running sums
    of each statistic: sum of L**2 / nl + R**2 / nr - T**2 / n, over n."""
    n = len(stats)
    nl = np.arange(1, n)
    nr = n - nl
    gain = 0.0
    for column in stats.T:
        cs = np.cumsum(column)
        left, total = cs[:-1], cs[-1]
        gain = (gain + left ** 2 / nl + (total - left) ** 2 / nr
                - total ** 2 / (nl + nr))
    return gain / (nl + nr)


def reference_best_split(X, y, min_leaf, task, n_classes):
    """Every cut of every column, one at a time: the first cut in (column,
    threshold) order whose gain is within 1e-9 of the highest wins."""
    n, m = X.shape
    cuts = []
    for col in range(m):
        order = np.argsort(X[:, col], kind="mergesort")
        xs = X[order, col]
        gains = reference_cut_gains(reference_stats(y, task, n_classes)[order])
        cuts += [(float(gains[j]), col, (xs[j] + xs[j + 1]) / 2.0)
                 for j in range(n - 1)
                 if xs[j + 1] > xs[j] and min(j + 1, n - j - 1) >= min_leaf]
    if not cuts:
        return None
    high = max(gain for gain, _, _ in cuts)
    return next(c for c in cuts if c[0] >= high - 1e-9 * abs(high))


@st.composite
def split_problems(draw):
    """A small integer matrix and labels, so that cuts tie within a column
    and across columns."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 4))
    n_classes = draw(st.integers(1, 4))
    X = draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                      min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n,
                           max_size=n))
    return X, labels


# both columns split the labels perfectly: the lower column wins although
# the higher one's cut comes first in its sorted order
LOWER_COLUMN_WINS = ([[3, 0], [2, 1], [1, 2], [0, 3]], [0, 1, 1, 1])


@settings(max_examples=300, deadline=None)
@given(problem=split_problems(), min_leaf=st.integers(1, 3),
       task=st.sampled_from(["regression", "classification"]))
@example(problem=LOWER_COLUMN_WINS, min_leaf=1, task="regression")
@example(problem=LOWER_COLUMN_WINS, min_leaf=1, task="classification")
def test_best_split_matches_per_column_scan(problem, min_leaf, task):
    X = np.array(problem[0], dtype=float)
    if task == "regression":
        model = RandomForestRegressor()
    else:
        model = RandomForestClassifier()
    y = model._encode_targets(problem[1])
    n_classes = len(np.unique(problem[1]))
    n, m = X.shape
    stats = model._node_stats(y, np.zeros(n, dtype=np.int64), 1)[2]
    gain, feature, threshold, n_left, rows = _best_splits(
        *_column_ranks(X), stats, np.arange(n), np.array([n]),
        np.arange(m)[None, :], min_leaf)
    want = reference_best_split(X, y, min_leaf, task, n_classes)
    if want is None:
        assert gain[0] == 0.0
        return
    assert (gain[0], feature[0], threshold[0]) == want
    goes_left = X[:, feature[0]] <= threshold[0]
    assert n_left[0] == goes_left.sum()
    assert sorted(rows[:n_left[0]]) == list(np.flatnonzero(goes_left))


@pytest.mark.parametrize("cls", [RandomForestRegressor,
                                 RandomForestClassifier])
def test_duplicated_feature_splits_on_the_lower_index(cls):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 8, (300, 4)).astype(float)
    X[:, 3] = X[:, 1]
    y = (X[:, 1] + rng.integers(0, 3, 300)) % 4
    model = cls(n_trees=5, max_features=4, min_samples_leaf=2,
                seed=4).fit(X, y)
    used = np.concatenate([tree.feature for tree in model.trees_])
    assert 1 in used
    assert 3 not in used


def reference_tree(X, y, depth, max_depth, min_leaf, task, n_classes):
    """Depth-first growth with the per-column scan: a leaf value, or
    (feature, threshold, left subtree, right subtree)."""
    if task == "regression":
        impurity, value = float(np.var(y)), float(np.mean(y))
    else:
        counts = np.bincount(y, minlength=n_classes)
        p = counts / len(y)
        impurity, value = 1.0 - float(np.dot(p, p)), float(np.argmax(counts))
    if depth >= max_depth or impurity <= 0.0 or len(y) < 2 * min_leaf:
        return value
    best = reference_best_split(X, y, min_leaf, task, n_classes)
    if best is None or best[0] <= 1e-12:
        return value
    _, f, thr = best
    go = X[:, f] <= thr
    return (f, thr,
            reference_tree(X[go], y[go], depth + 1, max_depth, min_leaf,
                           task, n_classes),
            reference_tree(X[~go], y[~go], depth + 1, max_depth, min_leaf,
                           task, n_classes))


def reference_nodes(tree):
    return 1 if not isinstance(tree, tuple) else (
        1 + reference_nodes(tree[2]) + reference_nodes(tree[3]))


def reference_predict(tree, x):
    while isinstance(tree, tuple):
        tree = tree[2] if x[tree[0]] <= tree[1] else tree[3]
    return tree


@settings(max_examples=150, deadline=None)
@given(problem=split_problems(), min_leaf=st.integers(1, 3),
       max_depth=st.integers(1, 6), bootstrap=st.booleans(),
       seed=st.integers(0, 2**16),
       task=st.sampled_from(["regression", "classification"]))
def test_level_wise_growth_matches_depth_first(problem, min_leaf, max_depth,
                                               bootstrap, seed, task):
    """With every feature drawn, growing a level of several trees at once
    gives each tree the nodes and predictions of depth-first growth."""
    X = np.array(problem[0], dtype=float)
    cls = (RandomForestRegressor if task == "regression"
           else RandomForestClassifier)
    model = cls(n_trees=3, max_depth=max_depth, min_samples_leaf=min_leaf,
                max_features=X.shape[1], bootstrap=bootstrap, seed=seed)
    model.fit(X, problem[1])
    y = model._encode_targets(problem[1])
    n_classes = len(np.unique(problem[1]))
    grid = np.vstack([X, X + 0.5, X - 0.5])
    for t, tree in enumerate(model.trees_):
        rows = np.arange(len(y))
        if bootstrap:
            rows = np.random.default_rng([seed, t]).integers(0, len(y),
                                                              len(y))
        ref = reference_tree(X[rows], y[rows], 0, max_depth, min_leaf, task,
                             n_classes)
        assert len(tree.feature) == reference_nodes(ref)
        assert list(tree.predict(grid)) == [reference_predict(ref, x)
                                            for x in grid]
