import math

import pytest

from vcaqoe.evaluation import (AllExcluded, ConfusionMatrix,
                               EmptyAfterExclusion, EvalError,
                               ResolutionBinning, UnknownClass,
                               binning_for_heights, evaluate_metric, mae,
                               mrae, resolution_confusion, sweep,
                               within_tolerance)


def test_mae_hand_example():
    assert mae([30.0, 28.0, 25.0], [30.0, 30.0, 30.0]) == pytest.approx(7 / 3)


def test_mae_skips_missing_pairs():
    assert mae([10.0, None, 5.0, 4.0],
               [11.0, 7.0, float("nan"), 4.0]) == pytest.approx(0.5)


def test_mae_empty():
    with pytest.raises(EmptyAfterExclusion):
        mae([None], [1.0])
    with pytest.raises(EvalError):
        mae([1.0, 2.0], [1.0])


def test_mrae_excludes_zero_truth():
    value, excluded = mrae([110.0, 50.0, 5.0], [100.0, 50.0, 0.0])
    assert value == pytest.approx(0.05)
    assert excluded == 1


def test_mrae_all_zero_truth():
    with pytest.raises(AllExcluded):
        mrae([1.0, 2.0], [0.0, 0.0])


def test_within_tolerance():
    frac = within_tolerance([30, 27, 24, 30], [30, 30, 30, 28], tol=2.0)
    assert frac == pytest.approx(0.5)


def test_binning_edges():
    b = ResolutionBinning()
    assert b.classify(180) == "low"
    assert b.classify(240) == "low"
    assert b.classify(241) == "medium"
    assert b.classify(404) == "medium"
    assert b.classify(480) == "medium"
    assert b.classify(481) == "high"
    assert b.classify(1080) == "high"
    assert b.class_set() == ["low", "medium", "high"]


def test_binning_per_value():
    b = ResolutionBinning(mode="per_value")
    assert b.classify(720.0) == "720"
    assert b.class_set([360, 720, 180]) == ["180", "360", "720"]


def test_binning_for_heights_auto():
    assert binning_for_heights([180, 360, 720]).mode == "per_value"
    many = [144, 180, 240, 360, 480, 720, 1080]
    assert binning_for_heights(many).mode == "binned"


def test_confusion_identity():
    cm = resolution_confusion(["low", "medium", "high", "high"],
                              ["low", "medium", "high", "high"],
                              binning=ResolutionBinning())
    assert cm.accuracy() == 1.0
    assert cm.counts[2][2] == 2
    assert cm.row_percent[0][0] == 100.0


def test_confusion_off_diagonal():
    cm = resolution_confusion(["low", "low", "high"],
                              ["low", "medium", "high"],
                              binning=ResolutionBinning())
    assert cm.accuracy() == pytest.approx(2 / 3)
    assert cm.counts[1][0] == 1
    assert cm.row_totals == [1, 1, 1]


def test_within_tolerance_without_a_valid_pair():
    with pytest.raises(EmptyAfterExclusion):
        within_tolerance([float("nan")], [1.0], 2)


def test_confusion_accuracy_without_samples():
    cm = ConfusionMatrix(["low", "mid"], [[0, 0], [0, 0]],
                         [[0.0, 0.0], [0.0, 0.0]], [0, 0])
    assert cm.accuracy() == 0.0


def test_confusion_unknown_class():
    with pytest.raises(UnknownClass):
        resolution_confusion(["weird"], ["low"], binning=ResolutionBinning())


def test_confusion_zero_rows_percent():
    cm = resolution_confusion(["low"], ["low"], binning=ResolutionBinning())
    assert cm.row_percent[1] == [0.0, 0.0, 0.0]
    assert cm.row_totals == [1, 0, 0]


def test_evaluate_metric_report():
    r = evaluate_metric([30.0, 28.0, 0.0], [30.0, 30.0, 0.0], "fps",
                        tolerances=(1.0, 2.0))
    assert r.metric == "fps"
    assert r.mae == pytest.approx(2 / 3)
    assert r.mrae == pytest.approx((0 + 2 / 30) / 2)
    assert r.within_tolerance["1.0"] == pytest.approx(2 / 3)
    assert r.within_tolerance["2.0"] == 1.0
    assert r.n_pairs == 3 and r.n_excluded == 0
    d = r.to_dict()
    assert d["metric"] == "fps" and "residuals" not in d


def test_sweep_shape_and_order():
    out = sweep(lambda v: v * v, [3, 1, 2])
    assert out == [(3, 9), (1, 1), (2, 4)]
    with pytest.raises(EvalError):
        sweep(lambda v: v, [])


def test_mrae_value_is_relative():
    value, _ = mrae([220.0], [200.0])
    assert math.isclose(value, 0.1)


def test_evaluate_metric_has_no_mrae_when_all_truth_is_zero():
    r = evaluate_metric([1.0, 2.0], [0.0, 0.0], "fps", tolerances=(1.0,))
    assert r.mrae is None
    assert r.mae == pytest.approx(1.5)
    assert r.within_tolerance == {"1.0": 0.5}
