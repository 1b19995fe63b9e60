"""Per-packet references the tests compare the columnar code against.

Each is the one-value form of a rule the package applies to whole columns:
the RTP header rule of ingest._rtp_columns and write_pcap, the payload-type
rule of PayloadTypeMap.classify, and the fragmentation rule of
synth._fragments; and a pcap writer, built with struct alone, for the
captures the pcap reader is tested on.
"""

import math
import struct

from vcaqoe.session import RTP_FIXED_HEADER_LEN, MediaClass, RtpHeader


class RtpError(ValueError):
    """Base class for RTP parse failures."""


class RtpTooShort(RtpError):
    pass


class RtpBadVersion(RtpError):
    pass


def parse_rtp_header(raw: bytes) -> RtpHeader:
    """Parse the fixed RTP header (plus CSRC list) from a UDP payload.

    Extension blocks are not decoded but are counted in ``header_len`` so
    callers can compute the media payload size.
    """
    if len(raw) < RTP_FIXED_HEADER_LEN:
        raise RtpTooShort(f"need >= 12 bytes, got {len(raw)}")
    b0 = raw[0]
    version = b0 >> 6
    if version != 2:
        raise RtpBadVersion(f"RTP version {version} != 2")
    padding = bool(b0 & 0x20)
    extension = bool(b0 & 0x10)
    csrc_count = b0 & 0x0F
    b1 = raw[1]
    marker = bool(b1 & 0x80)
    payload_type = b1 & 0x7F
    sequence, = struct.unpack_from(">H", raw, 2)
    timestamp, ssrc = struct.unpack_from(">II", raw, 4)

    header_len = RTP_FIXED_HEADER_LEN + 4 * csrc_count
    if len(raw) < header_len:
        raise RtpTooShort(f"CSRC list overruns payload ({len(raw)} < {header_len})")
    csrcs = struct.unpack_from(f">{csrc_count}I", raw, 12) if csrc_count else ()
    if extension:
        if len(raw) < header_len + 4:
            raise RtpTooShort("extension header overruns payload")
        ext_words, = struct.unpack_from(">H", raw, header_len + 2)
        header_len += 4 + 4 * ext_words
        if len(raw) < header_len:
            raise RtpTooShort("extension block overruns payload")
    return RtpHeader(version, padding, extension, marker, csrc_count,
                     payload_type, sequence, timestamp, ssrc, csrcs, header_len)


def serialize_rtp_header(h: RtpHeader) -> bytes:
    """Inverse of parse_rtp_header for headers without an extension block."""
    if h.extension:
        raise ValueError("extension block serialization is unsupported")
    b0 = (h.version << 6) | (int(h.padding) << 5) | (h.csrc_count & 0x0F)
    b1 = (int(h.marker) << 7) | (h.payload_type & 0x7F)
    out = struct.pack(">BBHII", b0, b1, h.sequence & 0xFFFF,
                      h.timestamp & 0xFFFFFFFF, h.ssrc & 0xFFFFFFFF)
    if h.csrc_count:
        out += struct.pack(f">{h.csrc_count}I", *h.csrcs)
    return out


def lookup(ptmap, payload_type):
    """The media class a PayloadTypeMap gives one RTP payload type."""
    return ptmap.mapping.get(payload_type, MediaClass.OTHER)


def fragment_sizes(size, max_payload):
    """The chunk sizes one frame of `size` media bytes splits into:
    ceil(size / max_payload) chunks, at least one, of near-equal size, the
    remainder spread one byte each over the first chunks."""
    n = max(1, math.ceil(size / max_payload))
    base, rem = divmod(size, n)
    return [base + 1 if j < rem else base for j in range(n)]


# --- a pcap writer independent of the package's own ----------------------

def ref_udp_frame(src_ip, dst_ip, sport, dport, payload, flags_frag=0,
                  macs=b"\xaa" * 12, ip_options=b""):
    eth = macs + struct.pack(">H", 0x0800)
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    ihl = 5 + len(ip_options) // 4
    ip = (struct.pack(">BBHHHBBH", 0x40 | ihl, 0,
                      4 * ihl + len(udp), 0, flags_frag, 64, 17, 0)
          + bytes(int(x) for x in src_ip.split("."))
          + bytes(int(x) for x in dst_ip.split(".")) + ip_options)
    return eth + ip + udp


def ref_tcp_frame():
    eth = b"\xaa" * 12 + struct.pack(">H", 0x0800)
    ip = (struct.pack(">BBHHHBBH", 0x45, 0, 40, 0, 0, 64, 6, 0)
          + b"\x0a\x00\x00\x01" + b"\x0a\x00\x00\x02")
    return eth + ip + b"\x00" * 20


def ref_pcap_bytes(frames, magic=0xA1B2C3D4, endian="<"):
    """A capture of (ts_sec, ts_frac, frame) records, the fraction in the
    unit the magic names."""
    blob = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)
    for ts_sec, ts_frac, frame in frames:
        blob += struct.pack(endian + "IIII", ts_sec, ts_frac, len(frame),
                            len(frame))
        blob += frame
    return blob
