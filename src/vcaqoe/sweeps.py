"""Concrete sensitivity-sweep runners over synthetic corpora.

Each runner regenerates a deterministic corpus per axis value (or reuses
one corpus where the axis is a pure analysis parameter) and reports the
frame-rate MAE of the packet-size heuristic.
"""

from __future__ import annotations

from .assembly import IpUdpAssemblyParams
from .evaluation import mae, sweep
from .pipeline import analyze_session, paired_metric
from .synth import ImpairmentProfile, SenderProfile, generate, impair, \
    truth_from_frame_log


def _corpus(profile, n_sessions, duration_s, seed,
            impairment=ImpairmentProfile()):
    out = []
    for i in range(n_sessions):
        session, truth, frame_log = generate(profile, duration_s, seed + i)
        session = impair(session, impairment, seed + i)
        out.append((session, truth, frame_log))
    return out


def _fps_mae(corpus, assembly_params=None, w=1):
    pred, truth = [], []
    for session, truth_series, frame_log in corpus:
        if w != 1:
            truth_series = truth_from_frame_log(frame_log, w=w)
        est = analyze_session(session, "ipudp", assembly_params, w=w)
        p, t = paired_metric(est, truth_series.rows, "fps", session, w=w)
        pred += p
        truth += t
    return mae(pred, truth)


def _impairment_sweep(values, impairment_of, n_sessions, duration_s, seeds):
    """Frame-rate MAE of the size heuristic at each axis value, averaged
    over seeds; each seed's corpus is impaired by impairment_of(value)."""
    def run(value):
        maes = [_fps_mae(_corpus(SenderProfile(), n_sessions, duration_s,
                                 1000 * (s + 1), impairment_of(value)))
                for s in seeds]
        return sum(maes) / len(maes)

    return sweep(run, list(values))


def loss_sweep(loss_values_pct, n_sessions=5, duration_s=30.0,
               seeds=(0, 1, 2, 3, 4)):
    """Frame-rate MAE of the size heuristic vs Bernoulli loss rate,
    averaged over seeds."""
    return _impairment_sweep(
        loss_values_pct, lambda loss_pct: ImpairmentProfile(
            delay_jitter_ms=5.0, loss_prob=loss_pct / 100.0),
        n_sessions, duration_s, seeds)


def jitter_sweep(jitter_values_ms, n_sessions=5, duration_s=30.0,
                 seeds=(0, 1, 2, 3, 4)):
    """Frame-rate MAE of the size heuristic vs delay jitter, averaged over
    seeds."""
    return _impairment_sweep(
        jitter_values_ms,
        lambda jitter_ms: ImpairmentProfile(delay_jitter_ms=jitter_ms),
        n_sessions, duration_s, seeds)


def window_sweep(window_sizes_s, n_sessions=5, duration_s=60.0, seed=0):
    """Frame-rate MAE vs prediction window size on one corpus with 30 ms
    delay jitter and 2 % loss; each size is a positive whole number of
    seconds."""
    corpus = _corpus(SenderProfile(), n_sessions, duration_s, seed,
                     ImpairmentProfile(delay_jitter_ms=30.0, loss_prob=0.02))
    return sweep(lambda w: _fps_mae(corpus, w=w), list(window_sizes_s))


# One packet per frame and adjacent-only size separation: a deep lookback
# wrongly merges alternating same-size frames.
LOW_RATE_SENDER = SenderProfile(bitrate_kbps=250.0, frame_size_jitter=0.0,
                                keyframe_interval=0, separable_depth=1)


def lookback_sweep(lookbacks, n_sessions=5, duration_s=30.0, seed=0):
    """Frame-rate MAE vs packet-lookback depth, each a positive integer,
    on one corpus of LOW_RATE_SENDER calls."""
    corpus = _corpus(LOW_RATE_SENDER, n_sessions, duration_s, seed)
    return sweep(lambda n_max: _fps_mae(
        corpus, IpUdpAssemblyParams(n_max=n_max)), list(lookbacks))
