"""Frame assembly: packet-size lookback heuristic and RTP grouping.

Both assemblers deduct the 12-byte fixed RTP header from every packet when
accounting frame bytes, since that portion carries no media.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .session import NO_RTP, RTP_FIXED_HEADER_LEN, PacketColumns


class AssemblyError(Exception):
    pass


class MissingRtp(AssemblyError):
    pass


@dataclass(frozen=True)
class IpUdpAssemblyParams:
    delta_size_max: int = 2
    n_max: int = 2

    def __post_init__(self):
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.delta_size_max < 0 or self.n_max < 1:
            raise ValueError("delta_size_max >= 0 and n_max >= 1 required")


# Per-VCA lookback depths; unlabeled sessions use the default params above.
NMAX_PROFILES = {"meet": 3, "teams": 2, "webex": 1}


def params_for_vca(vca_label):
    n_max = NMAX_PROFILES.get(vca_label.lower(), 2) if vca_label else 2
    return IpUdpAssemblyParams(n_max=n_max)


def assemble_ipudp(video_packets, params=IpUdpAssemblyParams()):
    """Group video packets into frames by payload-size similarity.

    Each packet is compared against up to n_max previous packets, most
    recent first; it joins the frame of the first one whose size is within
    delta_size_max, otherwise it opens a new frame. Returns the
    ipudp_frame_table of the packets' columns.
    """
    return ipudp_frame_table(PacketColumns.of(video_packets), params)


def assemble_rtp(video_packets):
    """Group video packets into frames by RTP timestamp (order-independent).

    The marker-bit packet, when present, fixes the frame end time; otherwise
    the latest member arrival does. Returns the rtp_frame_table of the
    packets' columns.
    """
    return rtp_frame_table(PacketColumns.of(video_packets))


def lookback_labels(sizes, delta_size_max, n_max):
    """Frame label per packet under the size-similarity lookback rule.

    For k = 1..n_max in turn, a packet not yet attached takes packet i-k as
    its parent when their sizes differ by at most delta_size_max. Roots
    open frames; every packet gets its root's frame, found by pointer
    doubling. Labels are 0, 1, ... in order of first appearance.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(sizes)
    index = np.arange(n)
    parent = index.copy()
    is_root = np.ones(n, dtype=bool)
    for k in range(1, min(n_max, n - 1) + 1):
        hit = is_root[k:] & (np.abs(sizes[k:] - sizes[:-k]) <= delta_size_max)
        parent[k:][hit] = index[:-k][hit]
        is_root[k:] &= ~hit
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    return (np.cumsum(is_root) - 1)[parent]


def _first_appearance_labels(keys):
    """Dense labels for equal keys, numbered in order of first appearance."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inverse.reshape(-1)]


@dataclass(frozen=True)
class FrameTable:
    """Frames as columns, in (end_us, start_us) order with ties kept in
    label order. Frame f holds packets members[lo[f]:hi[f]], ascending."""
    members: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    start_us: np.ndarray
    end_us: np.ndarray
    size_bytes: np.ndarray

    def __len__(self):
        return len(self.lo)


def _frame_table(cols, labels, marker_ends=False):
    """Group packets by dense frame label.

    A frame spans its earliest to its latest member arrival; with
    marker_ends, the last marker-bit member in list order fixes the end
    instead. Frame bytes exclude the fixed RTP header of every member.
    """
    if len(labels) == 0:
        return FrameTable(*[np.zeros(0, dtype=np.int64)] * 6)
    members = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    lo = bounds[:-1]
    arrival = cols.arrival_us[members]
    start_us = np.minimum.reduceat(arrival, lo)
    end_us = np.maximum.reduceat(arrival, lo)
    size_bytes = np.add.reduceat(
        cols.payload_len[members] - RTP_FIXED_HEADER_LEN, lo)
    if marker_ends:
        marked = np.where(cols.rtp_marker[members] > 0,
                          np.arange(len(members)), -1)
        last = np.maximum.reduceat(marked, lo)
        has = last >= 0
        end_us[has] = arrival[last[has]]
    order = np.lexsort((start_us, end_us))
    return FrameTable(members, lo[order], bounds[1:][order], start_us[order],
                      end_us[order], size_bytes[order])


def ipudp_frame_table(cols, params):
    """Size-similarity frames over video packet columns."""
    labels = lookback_labels(cols.payload_len, params.delta_size_max,
                             params.n_max)
    return _frame_table(cols, labels)


def rtp_frame_table(cols):
    """RTP-timestamp frames over video packet columns."""
    if (cols.rtp_ts == NO_RTP).any():
        raise MissingRtp("all packets must carry RTP headers")
    return _frame_table(cols, _first_appearance_labels(cols.rtp_ts),
                       marker_ends=True)


@dataclass
class AssemblyDiagnostics:
    split_count: int
    coalesce_count: int
    interleave_count: int


def diagnose(table, truth_packets, params=IpUdpAssemblyParams()):
    """Count the heuristic's failure modes against RTP-derived truth.

    table is a FrameTable over truth_packets (a PacketRecord list). splits:
    true frames whose intra-frame size spread exceeds the size threshold;
    coalesces: estimated frames spanning more than one true RTP timestamp;
    interleaves: estimated frames whose members are not contiguous in
    arrival order.
    """
    cols = PacketColumns.of(truth_packets)
    if (cols.rtp_ts == NO_RTP).any():
        raise MissingRtp("truth packets must carry RTP timestamps")
    order = np.argsort(cols.rtp_ts, kind="stable")
    ts = cols.rtp_ts[order]
    true_lo = np.flatnonzero(np.diff(ts, prepend=-1))
    sizes = cols.payload_len[order]
    split_count = np.count_nonzero(
        np.maximum.reduceat(sizes, true_lo)
        - np.minimum.reduceat(sizes, true_lo) > params.delta_size_max)
    # reduceat needs ascending bounds: the frames in label order
    lo = np.sort(table.lo)
    stamps = cols.rtp_ts[table.members]
    coalesce_count = np.count_nonzero(np.minimum.reduceat(stamps, lo)
                                      != np.maximum.reduceat(stamps, lo))
    interleave_count = np.count_nonzero(
        table.members[table.hi - 1] - table.members[table.lo]
        != table.hi - table.lo - 1)
    return AssemblyDiagnostics(int(split_count), int(coalesce_count),
                               int(interleave_count))
