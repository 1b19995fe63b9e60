import json

import numpy as np
import pytest

from vcaqoe import forest
from vcaqoe.forest import (EmptyDataset, FeatureNameMismatch,
                           RandomForestClassifier, RandomForestRegressor,
                           TooFewGroups, kfold_by_session, load_forest,
                           save_forest)
from vcaqoe.validation import DimensionMismatch, NonFiniteInput, NotFitted


def make_linear(n=400, d=5, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, d))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + noise * rng.normal(size=n)
    return X, y


def test_regressor_constant_target():
    X = np.random.default_rng(0).normal(size=(50, 3))
    m = RandomForestRegressor(n_trees=5, seed=1).fit(X, np.full(50, 7.25))
    assert np.allclose(m.predict(X), 7.25)


def test_regressor_memorizes_training_set():
    X, y = make_linear(n=200, seed=1)
    m = RandomForestRegressor(n_trees=30, bootstrap=False, max_features=5,
                              seed=2).fit(X, y)
    assert np.abs(m.predict(X) - y).max() < 1e-9


def test_regressor_beats_mean_baseline():
    X, y = make_linear(n=600, noise=0.1, seed=3)
    Xt, yt = make_linear(n=200, noise=0.1, seed=4)
    m = RandomForestRegressor(n_trees=40, seed=5).fit(X, y)
    model_mse = float(np.mean((m.predict(Xt) - yt) ** 2))
    base_mse = float(np.mean((yt - y.mean()) ** 2))
    assert model_mse < 0.25 * base_mse


def test_regressor_single_split_threshold_is_midpoint():
    X = np.array([[1.0], [2.0], [5.0], [6.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    m = RandomForestRegressor(n_trees=1, bootstrap=False, max_features=1,
                              seed=0).fit(X, y)
    t = m.trees_[0]
    root = 0 if t.feature[0] >= 0 else int(np.argmax(t.feature >= 0))
    assert t.threshold[root] == pytest.approx(3.5)
    assert np.allclose(m.predict(np.array([[3.0], [4.0]])), [0.0, 10.0])


def test_classifier_separable_is_exact():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 4))
    y = np.where(X[:, 2] > 0.3, "high", "low")
    m = RandomForestClassifier(n_trees=15, seed=8).fit(X, y)
    assert (m.predict(X) == y).mean() == 1.0


def test_classifier_integer_labels_roundtrip():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
    m = RandomForestClassifier(n_trees=20, seed=10).fit(X, y)
    pred = m.predict(X)
    assert pred.dtype == y.dtype or set(pred) <= set(y)
    assert (pred == y).mean() > 0.98


def test_classifier_tie_breaks_to_lowest_label():
    # two identical rows with conflicting labels: leaf majority is tied,
    # argmax picks the lower class index
    X = np.array([[0.0], [0.0]])
    y = np.array([1, 0])
    m = RandomForestClassifier(n_trees=1, bootstrap=False, seed=0).fit(X, y)
    assert m.predict(np.array([[0.0]]))[0] == 0


def test_fit_is_deterministic():
    X, y = make_linear(n=300, noise=0.2, seed=11)
    a = RandomForestRegressor(n_trees=12, seed=13).fit(X, y).predict(X)
    b = RandomForestRegressor(n_trees=12, seed=13).fit(X, y).predict(X)
    c = RandomForestRegressor(n_trees=12, seed=14).fit(X, y).predict(X)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_importances_find_informative_feature():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(500, 6))
    y = 4.0 * X[:, 3] + 0.01 * rng.normal(size=500)
    m = RandomForestRegressor(n_trees=25, seed=16).fit(X, y)
    imp = m.feature_importances_
    assert imp.shape == (6,)
    assert imp.sum() == pytest.approx(1.0)
    assert np.all(imp >= 0)
    assert int(np.argmax(imp)) == 3
    assert imp[3] > 0.6


def test_importances_zero_for_constant_target():
    X = np.random.default_rng(0).normal(size=(40, 3))
    m = RandomForestRegressor(n_trees=4, seed=0).fit(X, np.zeros(40))
    assert np.allclose(m.feature_importances_, 0.0)


def test_validation_errors():
    m = RandomForestRegressor(n_trees=2)
    with pytest.raises(NotFitted):
        m.predict(np.zeros((1, 2)))
    with pytest.raises(EmptyDataset):
        m.fit(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(NonFiniteInput):
        m.fit(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError, match="X must be 2-D"):
        m.fit(np.zeros(5), np.zeros(5))
    with pytest.raises(DimensionMismatch, match="5 rows but y has 4"):
        m.fit(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(NonFiniteInput, match="y contains non-finite"):
        m.fit(np.zeros((5, 2)), np.array([0.0, 1.0, 2.0, 3.0, np.nan]))
    fitted = RandomForestRegressor(n_trees=2).fit(np.zeros((4, 3)),
                                                  np.arange(4.0))
    with pytest.raises(DimensionMismatch):
        fitted.predict(np.zeros((2, 5)))


def test_get_params():
    m = RandomForestRegressor(n_trees=7, max_depth=9, seed=3)
    p = m.get_params()
    assert p["n_trees"] == 7 and p["max_depth"] == 9 and p["seed"] == 3


def test_kfold_by_session_partitions_rows():
    groups = np.repeat([f"s{i}" for i in range(10)], [5, 9, 3, 7, 7, 5, 5,
                                                      4, 6, 8])
    folds = kfold_by_session(groups, k=4, seed=1)
    assert len(folds) == 4
    all_test = np.concatenate([t for _, t in folds])
    assert sorted(all_test) == list(range(len(groups)))
    for train, test in folds:
        assert set(groups[train]).isdisjoint(set(groups[test]))
        assert len(set(train) & set(test)) == 0
    sizes = [len(t) for _, t in folds]
    assert max(sizes) - min(sizes) <= 9  # roughly balanced by row count


def test_kfold_too_few_groups():
    with pytest.raises(TooFewGroups):
        kfold_by_session(["a", "a", "b"], k=3)


def test_save_load_roundtrip(tmp_path):
    X, y = make_linear(n=150, noise=0.1, seed=20)
    names = [f"f{i}" for i in range(X.shape[1])]
    m = RandomForestRegressor(n_trees=8, seed=21).fit(X, y)
    path = tmp_path / "model.json"
    save_forest(m, str(path), names)
    back = load_forest(str(path), expected_feature_names=names)
    assert np.array_equal(back.predict(X), m.predict(X))
    assert np.allclose(back.feature_importances_, m.feature_importances_)


def test_save_load_classifier_labels(tmp_path):
    X = np.random.default_rng(1).normal(size=(100, 3))
    y = np.where(X[:, 0] > 0, "high", "low")
    m = RandomForestClassifier(n_trees=6, seed=2).fit(X, y)
    path = tmp_path / "clf.json"
    save_forest(m, str(path), ["a", "b", "c"])
    back = load_forest(str(path))
    assert np.array_equal(back.predict(X), m.predict(X))
    assert set(back.classes_) == {"high", "low"}


@pytest.mark.parametrize("cls", [RandomForestRegressor,
                                 RandomForestClassifier])
def test_model_file_round_trip(tmp_path, cls):
    """save, load, save again writes the same bytes, and the loaded
    model's leaf values are the fitted model's to the bit."""
    X, y = make_linear(n=300, noise=0.2, seed=27)
    if cls is RandomForestClassifier:
        y = np.array(["low", "mid", "high"])[np.digitize(y, [-1.0, 1.0])]
    names = [f"f{i}" for i in range(X.shape[1])]
    m = cls(n_trees=7, seed=28).fit(X, y)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_forest(m, str(first), names)
    back = load_forest(str(first), expected_feature_names=names)
    save_forest(back, str(again), names)
    assert again.read_bytes() == first.read_bytes()
    assert "provenance" not in json.loads(first.read_text())
    got = back._predict_matrix(X)
    assert got.tobytes() == m._predict_matrix(X).tobytes()
    assert np.array_equal(back.predict(X), m.predict(X))


def test_load_rejects_wrong_feature_names(tmp_path):
    X, y = make_linear(n=60, seed=22)
    m = RandomForestRegressor(n_trees=3, seed=0).fit(X, y)
    path = tmp_path / "m.json"
    save_forest(m, str(path), [f"f{i}" for i in range(5)])
    with pytest.raises(FeatureNameMismatch):
        load_forest(str(path), expected_feature_names=["x0", "x1", "x2",
                                                       "x3", "x4"])
    with pytest.raises(FeatureNameMismatch):
        save_forest(m, str(path), ["only", "two"])


def _assert_same_nodes(a, b):
    """a and b, fitted forests, hold the same trees node for node."""
    assert np.array_equal(a._sizes, b._sizes)
    for k in forest._Tree.__slots__:
        assert np.array_equal(getattr(a._nodes, k), getattr(b._nodes, k)), k


@pytest.mark.parametrize("cls", [RandomForestRegressor,
                                 RandomForestClassifier])
def test_trees_do_not_depend_on_how_many_grow_together(monkeypatch, cls):
    X, y = make_linear(n=300, noise=0.2, seed=23)
    if cls is RandomForestClassifier:
        y = np.digitize(y, [-1.0, 1.0])
    together = cls(n_trees=6, seed=24).fit(X, y)
    monkeypatch.setattr(forest, "_LEVEL_ENTRIES", 1)
    alone = cls(n_trees=6, seed=24).fit(X, y)
    _assert_same_nodes(alone, together)
    assert np.allclose(alone.feature_importances_,
                       together.feature_importances_, rtol=1e-9, atol=0)


def test_tied_rows_do_not_depend_on_how_many_trees_grow_together(
        monkeypatch):
    # three values per feature, so nearly every cut moves tied rows, and
    # a float target whose leaf means round with the order of the rows
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, (400, 4)).astype(float)
    y = 1000.0 * rng.normal(size=400) + 0.1234567
    together = RandomForestRegressor(n_trees=8, seed=1).fit(X, y)
    monkeypatch.setattr(forest, "_LEVEL_ENTRIES", 1)
    alone = RandomForestRegressor(n_trees=8, seed=1).fit(X, y)
    _assert_same_nodes(alone, together)


@pytest.mark.parametrize("cls", [RandomForestRegressor,
                                 RandomForestClassifier])
def test_saved_forest_does_not_depend_on_how_many_trees_grow_together(
        monkeypatch, tmp_path, cls):
    X, y = make_linear(n=300, noise=0.2, seed=25)
    if cls is RandomForestClassifier:
        y = np.digitize(y, [-1.0, 1.0])
    names = [f"f{i}" for i in range(X.shape[1])]
    save_forest(cls(n_trees=12, seed=26).fit(X, y),
                str(tmp_path / "together.json"), names)
    monkeypatch.setattr(forest, "_LEVEL_ENTRIES", 1)
    save_forest(cls(n_trees=12, seed=26).fit(X, y),
                str(tmp_path / "alone.json"), names)
    assert ((tmp_path / "alone.json").read_bytes()
            == (tmp_path / "together.json").read_bytes())


@pytest.mark.parametrize("top", [7, 1 << 40, 1 << 62])
def test_stable_order_is_a_stable_argsort(top):
    rng = np.random.default_rng(top % 1000)
    key = rng.integers(0, min(top, 7), 2000) * (top // 7)
    assert forest._stable_order(key, top).tolist() == np.argsort(
        key, kind="stable").tolist()
