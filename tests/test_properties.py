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
from vcaqoe.features import SemanticParams, session_feature_rows
from vcaqoe.heuristics import estimate_series
from vcaqoe.ingest import (read_packet_csv, read_pcap, write_packet_csv,
                           write_pcap)
from vcaqoe.pipeline import analyze_session
from vcaqoe.session import (MediaClass, PacketColumns, PacketRecord,
                            RtpError, Session, parse_rtp_header)
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
