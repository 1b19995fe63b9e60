"""Property tests: the columnar kernels against per-packet reference rules."""

import math
import os
import struct
import tempfile
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vcaqoe import forest, ingest
from vcaqoe.assembly import (AssemblyDiagnostics, IpUdpAssemblyParams,
                             MissingRtp, assemble_ipudp, assemble_rtp,
                             diagnose, lookback_labels)
from vcaqoe.classify import (KEEPALIVE_LEN, PayloadTypeMap, SizeThreshold,
                             classify_by_payload_type, classify_by_size)
from vcaqoe.features import (RTP_FEATURE_NAMES, SemanticParams,
                             session_feature_rows)
from vcaqoe.forest import (RandomForestClassifier, RandomForestRegressor,
                           _best_splits, _column_ranks, _Tree)
from vcaqoe.heuristics import segment_stats, session_windows, window_series
from vcaqoe.ingest import (IngestError, read_ground_truth_csv,
                           read_packet_csv, read_pcap, write_ground_truth_csv,
                           write_packet_csv, write_pcap)
from vcaqoe.pipeline import analyze_session, paired_metric
from vcaqoe.session import (MEDIA_CODE, NO_CLASS, NO_HEIGHT, NO_RTP,
                            RTP_FIXED_HEADER_LEN, RTP_VIDEO_CLOCK_HZ,
                            MediaClass, PacketColumns, PacketRecord,
                            RecordFields, RtpHeader, Session, WindowTable)
from vcaqoe.synth import (AUDIO_SSRC, DST, INTRA_FRAME_GAP_US,
                          MIN_PACKET_MEDIA, SEPARATION_MARGIN, SRC,
                          VIDEO_SSRC, FrameLogEntry,
                          ImpairmentProfile, SenderProfile, _fragments,
                          generate, impair, truth_from_frame_log)

from reference import (RtpError, fragment_sizes, lookup, parse_rtp_header,
                       ref_pcap_bytes, ref_tcp_frame, ref_udp_frame,
                       serialize_rtp_header)


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
       seed=st.integers(0, 1000), w=st.sampled_from([1, 2]),
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
    t = assemble_ipudp(video, params)
    expected = window_series(t.end_us, t.size_bytes, w, span)
    got = analyze_session(session, "ipudp", params, threshold, w=w)
    assert_same_columns(got, expected)

    video = classify_by_payload_type(session).video_packets()
    t = assemble_rtp(video)
    expected = window_series(t.end_us, t.size_bytes, w, span)
    assert_same_columns(analyze_session(session, "rtp", w=w), expected)


def assert_same_columns(a, b):
    """Equal columns of two column tables, dtypes too; nan equals nan."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype, f.name
        np.testing.assert_array_equal(x, y, err_msg=f.name)


def without_rtp(session):
    """The session as sent without RTP headers: same sizes and times."""
    return Session(session.session_id, session.vca_label, [
        PacketRecord(p.arrival_us, p.src_ip, p.dst_ip, p.src_port,
                     p.dst_port, p.payload_len) for p in session.packets])


def random_session(profile, impairment, seed, rtp):
    session, _truth, _log = generate(profile, 4.0, seed=seed)
    session = impair(session, impairment, seed=seed)
    return session if rtp else without_rtp(session)


def reference_diagnose(table, truth_packets, params):
    """The failure-mode counts of diagnose, one packet and one frame at a
    time."""
    for p in truth_packets:
        if p.rtp is None:
            raise MissingRtp("truth packets must carry RTP timestamps")
    by_ts = {}
    for p in truth_packets:
        by_ts.setdefault(p.rtp.timestamp, []).append(p.payload_len)
    split_count = sum(
        1 for sizes in by_ts.values()
        if max(sizes) - min(sizes) > params.delta_size_max)
    coalesce_count = 0
    interleave_count = 0
    for lo, hi in zip(table.lo.tolist(), table.hi.tolist()):
        indices = table.members[lo:hi].tolist()
        if len({truth_packets[i].rtp.timestamp for i in indices}) > 1:
            coalesce_count += 1
        indices.sort()
        if indices[-1] - indices[0] != len(indices) - 1:
            interleave_count += 1
    return AssemblyDiagnostics(split_count, coalesce_count, interleave_count)


def rtp_video(sizes_and_stamps):
    """Video packets 1 ms apart with the given (size, RTP timestamp)."""
    return [PacketRecord(i * 1000, "1.1.1.1", "2.2.2.2", 10, 20, size,
                         RtpHeader(2, False, False, False, 0, 102, i, ts, 1))
            for i, (size, ts) in enumerate(sizes_and_stamps)]


@st.composite
def impaired_video(draw):
    """The size-classified video packets of an impaired session."""
    session = random_session(draw(sender_profiles), draw(impairments),
                             draw(st.integers(0, 1000)), rtp=True)
    return classify_by_size(session).video_packets()


@settings(max_examples=40, deadline=None)
@given(video=impaired_video(), delta_size_max=st.integers(0, 4),
       n_max=st.integers(1, 4))
# at delta 2 and lookback 2: frame {0, 2} straddles packet 1 (interleave),
# frame {3, 5} joins RTP timestamps 3000 and 9000 (coalesce), and
# timestamps 3000 and 6000 spread over 100 bytes (split)
@example(video=rtp_video([(1100, 0), (900, 3000), (1101, 0), (1021, 3000),
                          (1300, 6000), (1020, 9000), (1100, 6000)]),
         delta_size_max=2, n_max=2)
def test_diagnose_matches_reference_loop(video, delta_size_max, n_max):
    params = IpUdpAssemblyParams(delta_size_max, n_max)
    table = assemble_ipudp(video, params)
    assert diagnose(table, video, params) == reference_diagnose(
        table, video, params)


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


# --- segment statistics -----------------------------------------------------

STAT_CALLS = {"mean": np.mean, "std": np.std, "median": np.median,
              "min": np.min, "max": np.max}


# x + 0.0 turns -0.0 into 0.0: the sorted read-off of min, max and median
# may give either zero where numpy's reductions give the other
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6).map(lambda x: x + 0.0), max_size=40),
       st.lists(st.tuples(st.integers(0, 40), st.integers(0, 9)),
                max_size=12))
# an empty, a length-1, an odd and an even segment
@example([3.0, 1.0, 4.0, 1.5, 9.0], [(0, 0), (2, 1), (0, 3), (1, 4)])
def test_segment_stats_bits_match_per_segment_reductions(values, segments):
    values = np.array(values, dtype=np.float64)
    lo = np.array([min(a, len(values)) for a, _ in segments], dtype=np.int64)
    hi = np.minimum(lo + [n for _, n in segments], len(values))
    for stats, column in ((tuple(STAT_CALLS), values),
                          (("median", "std"), values),
                          (("std",), np.round(values).astype(np.int64))):
        expected = np.array(
            [[STAT_CALLS[name](column[a:b]) if b > a else 0.0
              for name in stats] for a, b in zip(lo.tolist(), hi.tolist())],
            dtype=np.float64).reshape(len(lo), len(stats))
        got = segment_stats(column, lo, hi, stats)
        assert got.tobytes() == expected.tobytes(), stats


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
                reference_lag(f, origin, RTP_VIDEO_CLOCK_HZ))
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

# --- read_pcap's result does not depend on its buffer size ----------------

@st.composite
def capture_records(draw):
    """(ts_sec, ts_frac, frame) records of every kind read_pcap reads or
    skips: UDP and RTP (with CSRCs) behind IPv4 options, TCP, later
    fragments and snap-truncated frames."""
    kind = draw(st.sampled_from(["udp", "rtp", "tcp", "fragment", "snap"]))
    if kind == "tcp":
        frame = ref_tcp_frame()
    else:
        payload = (rtp_bytes(csrc_count=draw(st.integers(0, 15)),
                             tail=draw(st.integers(0, 300)))
                   if kind == "rtp" else bytes(draw(st.integers(0, 300))))
        frame = ref_udp_frame(
            "10.0.0.1", "10.0.0.2", draw(st.integers(0, 0xFFFF)), 5000,
            payload, ip_options=bytes(4 * draw(st.integers(0, 10))),
            flags_frag=0x2000 | draw(st.integers(1, 0x1FFF))
            if kind == "fragment" else 0)
        if kind == "snap":
            frame = frame[:draw(st.integers(0, len(frame) - 1))]
    return draw(st.integers(0, 3)), draw(st.integers(0, 999_999)), frame


def read_outcome(path):
    """read_pcap's session as comparable values, or its error."""
    try:
        s = read_pcap(path)
    except IngestError as exc:
        return type(exc), str(exc)
    return s.skipped_count, [
        (f.name, getattr(rows, f.name).dtype, getattr(rows, f.name).tolist())
        for rows in (s.columns, s.fields) for f in fields(rows)]


@settings(max_examples=60, deadline=None)
@given(records=st.lists(capture_records(), max_size=30),
       magic=st.sampled_from([0xA1B2C3D4, 0xA1B23C4D]),
       endian=st.sampled_from("<>"),
       sizes=st.lists(st.integers(24, 2_000), min_size=1, max_size=4))
def test_read_pcap_is_the_same_for_every_buffer_size(records, magic, endian,
                                                     sizes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.pcap")
        with open(path, "wb") as fh:
            fh.write(ref_pcap_bytes(records, magic, endian))
        expected = read_outcome(path)
        for size in sizes:
            with mock.patch.object(ingest, "_CHUNK_BYTES", size):
                assert read_outcome(path) == expected, size


# --- the columnar RTP writer of write_pcap against serialize_rtp_header ----

rtp_rows = st.builds(
    lambda cc, padding, marker, pt, seq, ts, ssrc, csrcs: RtpHeader(
        2, padding, False, marker, cc, pt, seq, ts, ssrc, tuple(csrcs[:cc]),
        RTP_FIXED_HEADER_LEN + 4 * cc),
    cc=st.integers(0, 15), padding=st.booleans(), marker=st.booleans(),
    pt=st.integers(0, 127), seq=st.integers(0, 2**17),
    ts=st.integers(0, 2**33), ssrc=st.integers(0, 2**33),
    csrcs=st.lists(st.integers(0, 2**32 - 1), min_size=15, max_size=15))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.none() | rtp_rows, st.integers(0, 40)),
                     min_size=1, max_size=12))
def test_write_pcap_headers_match_serialize_rtp_header(rows):
    """seq, ts and ssrc range past their fields, so the writer must wrap
    them as the serializer does."""
    packets = [PacketRecord(i, "10.0.0.1", "10.0.0.2", 1, 2,
                            (rtp.header_len if rtp else 0) + extra, rtp)
               for i, (rtp, extra) in enumerate(rows)]
    session = Session("s", "", packets)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.pcap")
        write_pcap(session, path)
        with open(path, "rb") as fh:
            blob = fh.read()
    off = 24
    for p in session.packets:
        incl_len, = struct.unpack_from("<I", blob, off + 8)
        payload = blob[off + 16 + 42:off + 16 + incl_len]
        assert len(payload) == p.payload_len
        if p.rtp is not None:
            assert payload[:p.rtp.header_len] == serialize_rtp_header(p.rtp)
        off += 16 + incl_len
    assert off == len(blob)


# --- the columnar fragmentation and payload-type rules, one value at a time

@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 20_000), max_size=20),
       max_payload=st.integers(13, 2_000))
def test_fragments_match_fragment_sizes(sizes, max_payload):
    counts, index, media = _fragments(np.array(sizes, dtype=np.int64),
                                      max_payload)
    starts = np.cumsum(counts) - counts
    assert index.tolist() == [j for n in counts.tolist() for j in range(n)]
    assert [media[s:s + n].tolist() for s, n in zip(starts, counts)] == [
        fragment_sizes(size, max_payload) for size in sizes]


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from([NO_RTP, 96, 100, 101, 102, 103,
                                                111, 127]),
                               st.sampled_from([12, 303, 304, 305, 1200])),
                     max_size=30))
def test_payload_type_classify_matches_lookup(rows):
    """Per packet: no RTP header is other, else the map's class, except a
    retransmission of exactly the keep-alive length, which is other."""
    ptmap = PayloadTypeMap()
    expected = []
    for pt, length in rows:
        cls = MediaClass.OTHER if pt == NO_RTP else lookup(ptmap, pt)
        if cls is MediaClass.VIDEO_RETX and length == KEEPALIVE_LEN:
            cls = MediaClass.OTHER
        expected.append(MEDIA_CODE[cls])
    pt, length = np.array(rows, dtype=np.int64).reshape(-1, 2).T
    assert ptmap.classify(pt, length).tolist() == expected


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
    draws = np.ones(n, np.int64)
    stats = model._node_stats(y, np.zeros(n, dtype=np.int64), 1, draws)[2]
    gain, feature, threshold, n_left, rows = _best_splits(
        *_column_ranks(X), stats, np.arange(n), np.array([n]),
        np.arange(m)[None, :], min_leaf, draws)
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
    pred = model._predict_matrix(grid)
    for t, tree in enumerate(model.trees_):
        rows = np.arange(len(y))
        if bootstrap:
            rows = np.random.default_rng([seed, t]).integers(0, len(y),
                                                              len(y))
        ref = reference_tree(X[rows], y[rows], 0, max_depth, min_leaf, task,
                             n_classes)
        assert len(tree.feature) == reference_nodes(ref)
        assert list(pred[t]) == [reference_predict(ref, x) for x in grid]


@settings(max_examples=150, deadline=None)
@given(problem=split_problems(), min_leaf=st.integers(1, 3),
       max_depth=st.integers(1, 6), seed=st.integers(0, 2**16),
       task=st.sampled_from(["regression", "classification"]))
def test_a_row_drawn_k_times_weighs_as_k_copies(problem, min_leaf, max_depth,
                                                seed, task):
    """A bootstrap tree has the nodes of a tree grown without bootstrap on
    its sample's rows, each repeated as often as it was drawn."""
    X, y = np.array(problem[0], dtype=float), np.array(problem[1])
    n, d = X.shape
    cls = (RandomForestRegressor if task == "regression"
           else RandomForestClassifier)
    params = dict(n_trees=1, max_depth=max_depth, min_samples_leaf=min_leaf,
                  max_features=d, seed=seed)
    drawn = cls(bootstrap=True, **params).fit(X, y)
    rows = np.random.default_rng([seed, 0]).integers(0, n, n)
    copied = cls(bootstrap=False, **params).fit(X[rows], y[rows])
    assert np.array_equal(drawn._sizes, copied._sizes)
    for k in ("feature", "threshold"):
        assert np.array_equal(getattr(drawn._nodes, k),
                              getattr(copied._nodes, k)), k
    # a class index counts among the classes the fit saw; a leaf's label
    # must agree
    leaf = drawn._nodes.feature < 0
    labels = [m._nodes.value[leaf] if task == "regression" else
              m.classes_[m._nodes.value[leaf].astype(int)]
              for m in (drawn, copied)]
    assert np.array_equal(*labels)


def reference_of(tree, node=0):
    """A _Tree's subtree at node, in reference_tree's form: the split with
    k splits before it in the tree has children 2k + 1 and 2k + 2."""
    if tree.feature[node] < 0:
        return tree.value[node]
    k = np.count_nonzero(tree.feature[:node] >= 0)
    return (tree.feature[node], tree.threshold[node],
            reference_of(tree, 2 * k + 1), reference_of(tree, 2 * k + 2))


def tree_of(refs):
    """The node counts and node table of trees in reference_tree's form,
    each tree's nodes breadth-first."""
    sizes, nodes = [], []
    for ref in refs:
        order = [ref]
        for sub in order:   # visits the subtrees appended as it goes
            if isinstance(sub, tuple):
                order += sub[2:]
        sizes.append(len(order))
        nodes += [(sub[0], sub[1], 0.0) if isinstance(sub, tuple)
                  else (-1, 0.0, sub) for sub in order]
    return np.array(sizes), _Tree(*zip(*nodes))


# trees in reference_tree's form on three features, with half-integer
# thresholds that integer rows may equal
hand_trees = st.recursive(
    st.integers(-9, 9).map(float),
    lambda kids: st.tuples(st.integers(0, 2), st.integers(-7, 7).map(
        lambda v: v / 2), kids, kids), max_leaves=16)
CHAIN = (0, 0.5, (1, 1.0, (2, -1.0, (0, 0.0, (1, 2.5, 1.0, 2.0), 3.0), 4.0),
                  5.0), 6.0)


@settings(max_examples=150, deadline=None)
@given(refs=st.lists(hand_trees, min_size=1, max_size=6),
       rows=st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                     max_size=30),
       entries=st.integers(1, 40))
@example(refs=[CHAIN, 7.0, CHAIN[2]], rows=[[0, 1, -1], [1, 1, 2]],
         entries=1)
def test_flat_walk_matches_per_tree_reference_on_hand_built_trees(
        refs, rows, entries):
    """Trees of any depth, however deep the model's max_depth param says
    they are, with the rows split over blocks of at most entries."""
    model = RandomForestRegressor(max_depth=1)
    model._sizes, model._nodes = tree_of(refs)
    model.n_features_ = 3
    X = np.array(rows, dtype=float).reshape(-1, 3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "_LEVEL_ENTRIES", entries)
        got = model._predict_matrix(X)
    assert got.shape == (len(refs), len(X))
    for t, ref in enumerate(refs):
        assert list(got[t]) == [reference_predict(ref, x) for x in X]


@settings(max_examples=150, deadline=None)
@given(problem=split_problems(), max_depth=st.integers(1, 8),
       seed=st.integers(0, 2**16), entries=st.integers(1, 200),
       task=st.sampled_from(["regression", "classification"]))
@example(problem=([[0, 1], [2, 3], [1, 1]], [2, 2, 2]), max_depth=4,
         seed=0, entries=1, task="regression")
def test_flat_walk_matches_per_tree_reference(problem, max_depth, seed,
                                              entries, task):
    """Fitted regressors and classifiers, root-only trees of a constant
    target and bootstrap trees of mixed depth, over several blocks."""
    X = np.array(problem[0], dtype=float)
    cls = (RandomForestRegressor if task == "regression"
           else RandomForestClassifier)
    model = cls(n_trees=5, max_depth=max_depth, seed=seed).fit(X, problem[1])
    grid = np.vstack([X, X + 0.5, X - 0.5])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "_LEVEL_ENTRIES", entries)
        got = model._predict_matrix(grid)
    for t, tree in enumerate(model.trees_):
        ref = reference_of(tree)
        assert list(got[t]) == [reference_predict(ref, x) for x in grid]


def reference_walk_accepts(flags):
    """Whether a walk from the root, giving the split with k splits before
    it children 2k + 1 and 2k + 2, reaches every node of a tree of these
    split flags once, without revisiting one or stepping past the end."""
    seen, todo = set(), [0]
    while todo:
        node = todo.pop()
        if node in seen or node >= len(flags):
            return False
        seen.add(node)
        if flags[node]:
            k = sum(flags[:node])
            todo += [2 * k + 1, 2 * k + 2]
    return len(seen) == len(flags)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(trees=st.lists(st.lists(st.tuples(st.booleans(), finite), min_size=1,
                               max_size=9), min_size=1, max_size=3))
@example(trees=[[(False, 1.0), (True, 0.5), (False, 2.0)]])   # a self-loop
@example(trees=[[(True, 0.5), (False, 1.0)]])   # the counts do not fit
@example(trees=[[(True, 0.5), (False, 1.0), (True, -2.0), (False, 3.0),
                 (False, 4.0)], [(False, 5.0)]])
def test_load_accepts_the_split_flags_a_walk_accepts(trees):
    """load_forest takes a model file's trees exactly when a walk of every
    tree's split flags reaches each node once."""
    nodes = [node for tree in trees for node in tree]
    split = np.array([flag for flag, _ in nodes], dtype=bool)
    number = np.array([x for _, x in nodes])
    model = RandomForestRegressor()
    model._sizes = np.array([len(tree) for tree in trees])
    model._nodes = _Tree(np.where(split, 0, -1), np.where(split, number, 0.0),
                         np.where(split, 0.0, number))
    model.n_features_ = 1
    model.feature_importances_ = np.ones(1)
    want = all(reference_walk_accepts([flag for flag, _ in tree])
               for tree in trees)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        forest.save_forest(model, path, ["x"])
        try:
            back = forest.load_forest(path)
        except forest.ForestError as exc:
            assert not want, exc
            assert "before its children" in str(exc) or "twice" in str(exc)
            return
    assert want
    assert np.array_equal(back._predict_matrix(np.zeros((1, 1))),
                          model._predict_matrix(np.zeros((1, 1))))


def reference_generate(profile, duration_s, seed, session_id=None,
                       vca_label="synthetic"):
    """generate, one frame and one packet at a time: a frame's size from
    its own normal draw, the separability widening against the chunks of
    the frames before it, then one tuple per packet, split by the scalar
    fragmentation rule; audio draws after every frame's."""
    rng = np.random.default_rng([int(seed), 0xC0FFEE])
    ptmap = profile.ptmap()
    pt_video = ptmap.payload_type_for(MediaClass.VIDEO)
    pt_audio = ptmap.payload_type_for(MediaClass.AUDIO)
    start_us = int(round(profile.start_time_s * 1_000_000))
    n_frames = int(math.floor(duration_s * profile.fps))
    mean_media = profile.bitrate_kbps * 1000.0 / 8.0 / profile.fps

    # per packet: arrival_us, payload_len, rtp_pt, rtp_ts, rtp_marker,
    # rtp_seq, src_port and rtp_ssrc
    packets = []
    frame_log = []
    seq = 0
    recent_chunks = []
    for i in range(n_frames):
        emit_us = start_us + int(round(i * 1_000_000 / profile.fps))
        size = mean_media
        if (profile.keyframe_interval
                and i % profile.keyframe_interval == 0):
            size *= profile.keyframe_multiplier
        if profile.frame_size_jitter > 0:
            size *= math.exp(rng.normal(0.0, profile.frame_size_jitter))
        size = max(MIN_PACKET_MEDIA, int(round(size)))

        n_pkts = max(1, math.ceil(size / profile.max_payload))
        chunk = size // n_pkts
        if chunk < MIN_PACKET_MEDIA:
            size = MIN_PACKET_MEDIA * n_pkts
            chunk = MIN_PACKET_MEDIA
        if profile.separable:
            while any(abs(chunk - c) < SEPARATION_MARGIN
                      for c in recent_chunks[-profile.separable_depth:]):
                size += n_pkts
                chunk = size // n_pkts
        n_sent = max(1, math.ceil(size / profile.max_payload))
        base, rem = divmod(size, n_sent)
        chunks = [base + 1 if j < rem else base for j in range(n_sent)]
        recent_chunks.append(chunk)

        rtp_ts = int(round(i * profile.rtp_ts_increment)) & 0xFFFFFFFF
        for j, media in enumerate(chunks):
            packets.append((emit_us + j * INTRA_FRAME_GAP_US,
                            media + RTP_FIXED_HEADER_LEN, pt_video, rtp_ts,
                            j == n_pkts - 1, seq & 0xFFFF, SRC[1],
                            VIDEO_SSRC))
            seq += 1
        complete_us = emit_us + (n_pkts - 1) * INTRA_FRAME_GAP_US
        frame_log.append(FrameLogEntry(i, emit_us, complete_us, size, rtp_ts))

    if profile.audio_pps > 0 and pt_audio is not None:
        lo, hi = profile.audio_size_range
        n_audio = int(math.floor(duration_s * profile.audio_pps))
        for k in range(n_audio):
            t_us = (start_us + int(round(k * 1_000_000 / profile.audio_pps))
                    + 37)
            size = int(rng.integers(lo, hi + 1))
            packets.append((t_us, size, pt_audio,
                            int(k * 48000 / profile.audio_pps) & 0xFFFFFFFF,
                            True, k & 0xFFFF, SRC[1] + 2, AUDIO_SSRC))

    rows = np.array(packets, dtype=np.int64).reshape(-1, 8).T
    rows = rows[:, np.argsort(rows[0], kind="stable")]
    n = rows.shape[1]
    sid = session_id or f"synth-{seed}"
    session = Session(sid, vca_label, columns=PacketColumns(
        *rows[:6], np.full(n, NO_CLASS)), fields=RecordFields(
        np.full(n, SRC[0]), np.full(n, DST[0]), rows[6], np.full(n, DST[1]),
        rows[7], np.full(n, 0x80), np.full(n, RTP_FIXED_HEADER_LEN),
        np.empty(n, object)))
    truth = truth_from_frame_log(frame_log, first_us=int(rows[0, 0]),
                                 last_us=int(rows[0, -1]))
    return session, truth, frame_log


def assert_same_generated(got, expected):
    (session, truth, log), (ref_session, ref_truth, ref_log) = got, expected
    assert session.session_id == ref_session.session_id
    for name in ("columns", "fields"):
        a, b = getattr(session, name), getattr(ref_session, name)
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.dtype == y.dtype and x.tolist() == y.tolist(), f.name
    assert log == ref_log
    assert_same_columns(truth.rows, ref_truth.rows)


# every frame at 3600 bytes with 1200-byte packets: the widening takes
# chunks 1200 to 1204, 1208 and 1212, past n_pkts * max_payload, so those
# frames are sent as four packets with the marker on the third
WIDENED_PAST_MAX_PAYLOAD = SenderProfile(fps=30.0, bitrate_kbps=864.0,
                                         frame_size_jitter=0.0)
generator_profiles = st.builds(
    SenderProfile,
    fps=st.floats(1.0, 40.0),
    bitrate_kbps=st.floats(50.0, 2500.0),
    max_payload=st.integers(200, 1500),
    keyframe_interval=st.integers(0, 12),
    keyframe_multiplier=st.floats(1.0, 4.0),
    frame_size_jitter=st.sampled_from([0.0, 0.01, 0.05, 0.3]),
    audio_pps=st.sampled_from([0.0, 7.5, 50.0]),
    audio_size_range=st.sampled_from([(89, 385), (100, 100), (1, 1400)]),
    payload_type_map=st.sampled_from([
        None, {102: MediaClass.VIDEO},
        {96: MediaClass.VIDEO, 97: MediaClass.AUDIO}]),
    separable=st.booleans(),
    separable_depth=st.integers(1, 10),
    start_time_s=st.sampled_from([1_700_000_000.2, 0.0, 12.345678]))


@settings(max_examples=60, deadline=None)
@given(profile=generator_profiles, duration_s=st.floats(2.0, 5.0),
       seed=st.integers(0, 2**31 - 1))
@example(profile=WIDENED_PAST_MAX_PAYLOAD, duration_s=3.0, seed=1)
@example(profile=SenderProfile(keyframe_interval=5, max_payload=200,
                               bitrate_kbps=2500.0, fps=10.0),
         duration_s=4.0, seed=2)
# equal sizes widen in a cycle of separable_depth + 1 chunks: frame 9 must
# be kept apart from frame 0, 9 frames back and within the depth of 10
@example(profile=SenderProfile(frame_size_jitter=0.0, separable_depth=10),
         duration_s=2.0, seed=3)
def test_generate_equals_per_packet_reference(profile, duration_s, seed):
    assert_same_generated(generate(profile, duration_s, seed),
                          reference_generate(profile, duration_s, seed))


def test_reference_widens_frames_past_their_packet_count():
    """The example above reaches the widening branch that adds a packet:
    some frames have a packet after their marker."""
    session, _truth, log = reference_generate(WIDENED_PAST_MAX_PAYLOAD, 3.0,
                                              seed=1)
    cols = session.columns
    video = cols.rtp_pt == 102
    per_frame = np.unique(cols.rtp_ts[video], return_counts=True)[1]
    assert set(per_frame.tolist()) == {3, 4}
    assert cols.rtp_marker[video].sum() == len(log)


@settings(max_examples=40, deadline=None)
@given(profile=generator_profiles, duration_s=st.floats(2.0, 5.0),
       seed=st.integers(0, 2**31 - 1), impair_seed=st.integers(0, 1000))
def test_zero_impairment_is_the_identity(profile, duration_s, seed,
                                         impair_seed):
    session, truth, log = generate(profile, duration_s, seed)
    for zero in (ImpairmentProfile(), ImpairmentProfile(retransmit=True)):
        out = impair(session, zero, impair_seed, profile.ptmap())
        assert out.vca_label == session.vca_label
        assert_same_generated((out, truth, log), (session, truth, log))


# values that "%.6f" writes back unchanged, and nan
csv_floats = st.one_of(st.just(math.nan), st.integers(-10**9, 10**9).map(
    lambda n: float(f"{n / 1e6:.6f}")))


@st.composite
def window_tables(draw, starts=st.integers(-2**40, 2**40), max_size=20):
    """WindowTables with increasing starts; nan and NO_HEIGHT appear."""
    start = np.array(sorted(draw(st.sets(starts, max_size=max_size))),
                     dtype=np.int64)
    n = len(start)

    def floats():
        return np.array(draw(st.lists(csv_floats, min_size=n, max_size=n)),
                        dtype=np.float64)
    return WindowTable(start, floats(), floats(), floats(), np.array(
        draw(st.lists(st.one_of(st.just(NO_HEIGHT), st.integers(0, 4320)),
                      min_size=n, max_size=n)), dtype=np.int64))


@settings(max_examples=100, deadline=None)
@given(table=window_tables())
def test_truth_csv_round_trips(table):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = (os.path.join(tmp, name) for name in ("a.csv",
                                                              "b.csv"))
        write_ground_truth_csv(table, first)
        back = read_ground_truth_csv(first).rows
        assert_same_columns(back, table)
        write_ground_truth_csv(back, second)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


def reference_paired_metric(est, truth, metric, session=None, w=1):
    """paired_metric as a join of {window_start: row} dicts."""
    def by_start(table):
        return {k: getattr(table, metric)[i].item()
                for i, k in enumerate(table.window_start.tolist())}
    est, truth = by_start(est), by_start(truth)
    keys = sorted(set(est) & set(truth))
    if session is not None:
        windows = session_windows(session, w)
        keys = [k for k in keys if k in windows]
    return [est[k] for k in keys], [truth[k] for k in keys]


@settings(max_examples=200, deadline=None)
@given(est=window_tables(st.integers(0, 30)),
       truth=window_tables(st.integers(0, 30)),
       metric=st.sampled_from([f.name for f in fields(WindowTable)]),
       span_s=st.one_of(st.none(), st.tuples(st.floats(0.0, 30.0),
                                             st.floats(0.0, 10.0))),
       w=st.integers(1, 3))
def test_paired_metric_equals_dict_join(est, truth, metric, span_s, w):
    session = None
    if span_s is not None:
        first, length = span_s
        arrival_us = np.array([first, first + length]) * 1_000_000
        columns = [arrival_us.astype(np.int64)] + [np.zeros(2, np.int64)] * 6
        session = Session("call", "", columns=PacketColumns(*columns))
    got = paired_metric(est, truth, metric, session, w)
    expected = reference_paired_metric(est, truth, metric, session, w)
    assert all(isinstance(side, list) for side in got)
    np.testing.assert_equal(got, expected)
