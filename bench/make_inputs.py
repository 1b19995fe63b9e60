"""Set-up of one benchmark run, in a process of its own.

Generates the workload's calls with ``vcaqoe.synth``, writes them as input
files (pcap or packet CSV) with their truth CSVs, then computes the
benchmark's expectations from the generated packets and frame logs. It
writes ``manifest.json`` (the calls, when the inputs were complete, and the
set-up layers' timings) and ``expect.json`` into the work directory.

Run by ``run.py`` as ``python3 bench/make_inputs.py --workload W --seed N
--dir WORKDIR``. Its own process keeps its memory out of the timed
commands' peak.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from vcaqoe.ingest import (write_ground_truth_csv, write_packet_csv,  # noqa: E402
                           write_pcap)
from vcaqoe.session import MediaClass, PacketRecord, Session  # noqa: E402
from vcaqoe.synth import (ImpairmentProfile, SenderProfile, generate,  # noqa: E402
                          impair)

import checks  # noqa: E402
from workloads import calls_for  # noqa: E402

# analyze/features defaults the commands run with
V_MIN = 500
DELTA = 2
N_MAX = 2


class LayerClock:
    """CPU seconds and packets per set-up layer."""

    def __init__(self):
        self.totals = {}

    def add(self, name, t0, session):
        """Charge the time since t0 and the session's packets to name."""
        cell = self.totals.setdefault(name, [0.0, 0])
        cell[0] += time.process_time() - t0
        cell[1] += len(session.packets)


def _without_rtp(session):
    """The session as a VCA with its own RTP-like framing would send it:
    same sizes and times, no RTP header on the wire."""
    return Session(session.session_id, session.vca_label, [
        PacketRecord(p.arrival_us, p.src_ip, p.dst_ip, p.src_port,
                     p.dst_port, p.payload_len)
        for p in session.packets])


def _columns(session):
    out = []
    for p in session.packets:
        h = p.rtp
        out.append((p.arrival_us, p.payload_len, -1, -1, -1) if h is None
                   else (p.arrival_us, p.payload_len, h.payload_type,
                         h.timestamp, int(h.marker)))
    return out


def make(specs, workdir, clock):
    """Write every call's input files; return (manifest calls, generated
    sessions and frame logs)."""
    calls = []
    made = []
    for spec in specs:
        profile = SenderProfile(fps=spec.fps, bitrate_kbps=spec.bitrate_kbps,
                                audio_pps=spec.audio_pps)
        t0 = time.process_time()
        session, truth, frame_log = generate(
            profile, spec.duration_s, spec.gen_seed, session_id=spec.name)
        clock.add("synth.generate", t0, session)
        if spec.impaired:
            t0 = time.process_time()
            session = impair(session, ImpairmentProfile(
                delay_jitter_ms=spec.jitter_ms, loss_prob=spec.loss,
                retransmit=spec.retransmit), spec.gen_seed, profile.ptmap())
            clock.add("synth.impair", t0, session)
        generated = session
        if not spec.rtp:
            session = _without_rtp(session)
        folder = os.path.join("inputs", spec.role)
        os.makedirs(os.path.join(workdir, folder), exist_ok=True)
        stem = os.path.join(folder, spec.name)
        if spec.fmt == "pcap":
            path, sid, write = stem + ".pcap", spec.name + ".pcap", write_pcap
        else:
            path, sid, write = stem + ".packets.csv", spec.name, write_packet_csv
        t0 = time.process_time()
        write(session, os.path.join(workdir, path))
        clock.add(f"ingest.{write.__name__}", t0, session)
        write_ground_truth_csv(truth.rows,
                               os.path.join(workdir, stem + ".truth.csv"))
        calls.append({"name": spec.name, "sid": sid, "role": spec.role,
                      "fmt": spec.fmt, "rtp": spec.rtp, "path": path,
                      "truth": stem + ".truth.csv",
                      "pkts": len(session.packets)})
        made.append((sid, spec.rtp, generated, frame_log))
    return calls, made


def expectations(made):
    """The benchmark's expectations for each generated call, by session."""
    video_pt = SenderProfile().ptmap().payload_type_for(MediaClass.VIDEO)
    return {sid: checks.expect_call(
        _columns(session), [(f.complete_us, f.media_bytes)
                            for f in frame_log],
        has_rtp=has_rtp, v_min=V_MIN, video_pt=video_pt, delta=DELTA,
        n_max=N_MAX)
        for sid, has_rtp, session, frame_log in made}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)

    clock = LayerClock()
    calls, made = make(calls_for(args.workload, args.seed), args.dir, clock)
    inputs_done = time.monotonic()
    with open(os.path.join(args.dir, "expect.json"), "w") as fh:
        json.dump({sid: checks.to_json(exp)
                   for sid, exp in expectations(made).items()}, fh)
    with open(os.path.join(args.dir, "manifest.json"), "w") as fh:
        json.dump({"calls": calls, "inputs_done": inputs_done,
                   "layers": clock.totals}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
