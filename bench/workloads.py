"""The benchmark's two workloads: which calls each one generates.

Every call parameter comes from ``numpy.random.default_rng`` seeded with the
run's ``--seed``, so one seed always yields the same inputs. The draws
follow a fixed design, so two seeds give corpora of the same make-up and the
figures of two runs can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

WORKLOADS = ("pcap-long-hd", "csv-short-impaired")

# Training parameters of the two models, those of acceptance criteria 05
# and 06; the same on both workloads.
FPS_MODEL = ["--trees", "40", "--depth", "14", "--min-leaf", "2"]
RESOLUTION_MODEL = ["--trees", "30", "--depth", "12"]

# How many times in a row an untraced round runs each command of a kind
# (others run once). A command's time is its fastest try, so commands that
# run once a round and last a fraction of a second get more tries.
REPEATS = {
    "pcap-long-hd": {"train_fps": 3, "train_resolution": 5,
                     "predict_fps": 10, "predict_resolution": 10},
    "csv-short-impaired": {"analyze_ipudp": 2, "analyze_rtp": 2,
                           "train_resolution": 3, "predict_fps": 5,
                           "predict_resolution": 5},
}


@dataclass(frozen=True)
class CallSpec:
    """One synthetic call: sender, network and file format."""
    name: str
    role: str            # "train" or "test"
    duration_s: float
    fps: float
    bitrate_kbps: float
    audio_pps: float
    gen_seed: int
    rtp: bool = True     # False: payloads carry no RTP header
    jitter_ms: float = 0.0
    loss: float = 0.0
    retransmit: bool = False
    fmt: str = "csv"     # "csv" or "pcap"

    @property
    def impaired(self):
        return self.jitter_ms > 0 or self.loss > 0


def _gen_seed(seed, index):
    return (int(seed) * 1009 + index) % (1 << 31)


# pcap-long-hd training calls: (resolution tier, carries RTP, bitrate range
# in kbps). Most calls sit in the top tier; one carries no RTP header. The
# ranges keep clear of the tier edges at 400 and 1000 kbps. Each test call
# is the twin of the training call named here: same sender, other random
# draws.
PCAP_TRAIN = (("top", True, (1300.0, 1500.0)),
              ("top", False, (1900.0, 2100.0)),
              ("mid", True, (600.0, 800.0)),
              ("low", True, (250.0, 320.0)))
PCAP_TEST_TWINS = (0, 1, 2)
PCAP_DURATION_S = 300.0
# frame rates, one per training call in a seeded order: every seed's calls
# then carry the same windows that straddle a frame boundary, and its
# forests grow about as deep
PCAP_FPS = (16.0, 20.0, 24.0, 28.0)


def pcap_long_hd(seed):
    """A few long clean calls written as pcap.

    The four training calls take four distinct frame rates and their own
    bitrates. With four training calls, a test call with an unseen frame
    rate and bitrate would be scored by whichever feature happened to
    separate the four, so each test call repeats a training call's sender
    profile with its own random draws.
    """
    rng = np.random.default_rng([int(seed), 1])
    fps = rng.permutation(PCAP_FPS)
    calls = []
    for i, (tier, rtp, kbps) in enumerate(PCAP_TRAIN):
        calls.append(CallSpec(
            name=f"train-{i:02d}-{tier}{'' if rtp else '-nortp'}",
            role="train", duration_s=PCAP_DURATION_S, fps=float(fps[i]),
            bitrate_kbps=float(rng.uniform(*kbps)),
            audio_pps=50.0, gen_seed=_gen_seed(seed, i), rtp=rtp,
            fmt="pcap"))
    for i, twin in enumerate(PCAP_TEST_TWINS, start=len(calls)):
        tier, rtp, _kbps = PCAP_TRAIN[twin]
        calls.append(replace(
            calls[twin], name=f"test-{i:02d}-{tier}{'' if rtp else '-nortp'}",
            role="test", gen_seed=_gen_seed(seed, i)))
    return calls


CSV_TRAIN_CALLS = 32
CSV_TEST_CALLS = 16
CSV_DURATION_S = 60.0
CSV_FPS = (10, 30)                  # integers, both ends included
# bitrate bands: each inside one resolution tier (edges at 400 and 1000
# kbps), so that no call's windows straddle a tier edge
CSV_KBPS_BANDS = (300.0, 400.0, 700.0, 1000.0, 1500.0)
CSV_JITTER_MS = (0.0, 100.0)
CSV_LOSS = (0.0, 0.05)
BANDS = 4


def csv_short_impaired(seed):
    """Many short impaired calls written as packet CSVs.

    A balanced design, so that every seed makes a corpus of the same
    difficulty. Each role has one call per (fps band, bitrate band) pair of
    a 4 x 4 grid, twice over (two replicas) for training. Delay jitter and
    loss bands follow Latin squares over the grid, so each fps band and
    each bitrate band sees every jitter band and every loss band once per
    replica. Inside its band a training value sits a quarter (replica 0) or
    three quarters (replica 1) in, moved by at most a 32nd of the band.
    A test call's sender (fps, bitrate) takes the point of one training
    replica, alternating over the grid, with its own draws; its jitter and
    loss sit mid-band, between the training replicas' points, so the models
    meet known senders on network conditions they were not trained on.
    Retransmission is on in half the calls of each role.
    """
    calls = []
    index = 0
    for r, (role, n) in enumerate((("train", CSV_TRAIN_CALLS),
                                   ("test", CSV_TEST_CALLS))):
        rng = np.random.default_rng([int(seed), 2, r])
        replicas = n // (BANDS * BANDS)
        for j in range(n):
            rep, cell = divmod(j, BANDS * BANDS)
            fps_band, kbps_band = divmod(cell, BANDS)
            net_point = (rep + 0.5) / replicas
            sender_point = net_point
            if role == "test":
                sender_point = (0.25, 0.75)[(fps_band + kbps_band) % 2]

            def in_band(band, bounds, point):
                lo, hi = bounds
                u = (band + point + rng.uniform(-1, 1) / 32) / BANDS
                return lo + u * (hi - lo)

            def in_kbps_band(band, point):
                lo, hi = CSV_KBPS_BANDS[band:band + 2]
                u = point + rng.uniform(-1, 1) / 32
                return lo + u * (hi - lo)

            lo, hi = CSV_FPS
            calls.append(CallSpec(
                name=f"{role}-{j:02d}", role=role,
                duration_s=CSV_DURATION_S,
                fps=float(np.floor(in_band(fps_band, (lo, hi + 1),
                                           sender_point))),
                bitrate_kbps=in_kbps_band(kbps_band, sender_point),
                audio_pps=10.0, gen_seed=_gen_seed(seed, index),
                jitter_ms=in_band((fps_band + kbps_band + 2 * rep) % BANDS,
                                  CSV_JITTER_MS, net_point),
                loss=in_band((fps_band + 3 * kbps_band + rep) % BANDS,
                             CSV_LOSS, net_point),
                retransmit=(kbps_band + rep) % 2 == 1))
            index += 1
    return calls


def calls_for(workload, seed):
    if workload == "pcap-long-hd":
        return pcap_long_hd(seed)
    if workload == "csv-short-impaired":
        return csv_short_impaired(seed)
    raise ValueError(f"unknown workload {workload!r}")
