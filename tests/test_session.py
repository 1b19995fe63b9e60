import struct

import numpy as np
import pytest

from vcaqoe.heuristics import window_segments
from vcaqoe.session import MediaClass, PacketRecord, Session

from reference import (RtpBadVersion, RtpTooShort, parse_rtp_header,
                       serialize_rtp_header)


def encode_rtp(version=2, padding=0, extension=0, cc=0, marker=0, pt=0,
               seq=0, ts=0, ssrc=0, csrcs=()):
    # independent hand-encoding of the RFC 3550 bit layout
    b0 = (version << 6) | (padding << 5) | (extension << 4) | cc
    b1 = (marker << 7) | pt
    out = struct.pack(">BBHII", b0, b1, seq, ts, ssrc)
    for c in csrcs:
        out += struct.pack(">I", c)
    return out


def test_parse_known_header():
    raw = bytes.fromhex("806600010000 0bb8 00000001".replace(" ", "")) + b"\x00" * 50
    h = parse_rtp_header(raw)
    assert h.version == 2
    assert not h.marker
    assert h.payload_type == 102
    assert h.sequence == 1
    assert h.timestamp == 3000
    assert h.ssrc == 1
    assert h.header_len == 12


def test_parse_too_short():
    with pytest.raises(RtpTooShort):
        parse_rtp_header(b"\x80" * 11)


def test_parse_bad_version():
    with pytest.raises(RtpBadVersion):
        parse_rtp_header(b"\x40" + b"\x00" * 11)


def test_parse_marker_and_fields():
    raw = encode_rtp(marker=1, pt=96, seq=65535, ts=0xFFFFFFFF, ssrc=0xDEADBEEF)
    h = parse_rtp_header(raw)
    assert h.marker and h.payload_type == 96
    assert h.sequence == 65535 and h.timestamp == 0xFFFFFFFF
    assert h.ssrc == 0xDEADBEEF


def test_parse_csrc_list():
    raw = encode_rtp(cc=2, csrcs=(7, 9))
    h = parse_rtp_header(raw)
    assert h.csrc_count == 2
    assert h.csrcs == (7, 9)
    assert h.header_len == 20


def test_parse_extension_counted_in_header_len():
    raw = encode_rtp(extension=1) + struct.pack(">HH", 0xBEDE, 2) + b"\x00" * 8
    h = parse_rtp_header(raw)
    assert h.extension
    assert h.header_len == 12 + 4 + 8


def test_serialize_roundtrip():
    for kwargs in ({}, {"marker": 1, "pt": 111, "seq": 1234, "ts": 99, "ssrc": 5},
                   {"cc": 3, "csrcs": (1, 2, 3)}, {"padding": 1}):
        raw = encode_rtp(**kwargs)
        h = parse_rtp_header(raw)
        assert serialize_rtp_header(h) == raw[:h.header_len]


def test_serialize_rejects_extension():
    h = parse_rtp_header(encode_rtp(extension=1) + struct.pack(">HH", 0, 0))
    with pytest.raises(ValueError):
        serialize_rtp_header(h)


def window_of(times_us):
    """The window key of each time, from window_segments."""
    times_us = np.asarray(times_us, dtype=np.int64)
    keys, lo, hi = window_segments(times_us, 1, (times_us[0], times_us[-1]))
    return np.repeat(keys, hi - lo).tolist()


def test_window_of():
    assert window_of([100_000_001, 100_999_999, 101_000_000]) == [100, 100,
                                                                  101]
    assert window_of([101_000_000]) == [101]


def test_window_of_monotone_over_session():
    packets = [PacketRecord(us, "1.1.1.1", "2.2.2.2", 1, 2, 100)
               for us in (0, 5, 999_999, 1_000_000, 2_500_000)]
    s = Session("s", "", packets)
    keys = window_of(s.columns.arrival_us)
    assert keys == sorted(keys)
    assert keys == [0, 0, 0, 1, 2]


def test_session_rejects_unsorted():
    packets = [PacketRecord(10, "1.1.1.1", "2.2.2.2", 1, 2, 100),
               PacketRecord(5, "1.1.1.1", "2.2.2.2", 1, 2, 100)]
    with pytest.raises(ValueError):
        Session("s", "", packets)


@pytest.mark.parametrize("address", ["1.2", "10.0.0.02", "10.0.0.1 ",
                                     "300.1.1.1"])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_session_rejects_an_address_the_readers_reject(address, side):
    """The writers take only addresses that read_pcap and read_packet_csv
    read back as written: strict dotted quads."""
    good = "192.0.2.1"
    src, dst = (address, good) if side == "src" else (good, address)
    with pytest.raises(ValueError, match=repr(address)):
        Session("s", "", [PacketRecord(1, src, dst, 1, 2, 100)])


def test_media_class_values():
    assert {c.value for c in MediaClass} == {"audio", "video", "video_retx",
                                            "other"}
