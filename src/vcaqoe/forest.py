"""Random forest regressor/classifier built from scratch on numpy.

Both estimators follow the sklearn fit/predict/get_params convention so
they compose with ecosystem tooling, but carry no external ML dependency.
Training is deterministic for a fixed seed: every tree draws its bootstrap
sample and per-node feature subsets from its own RNG stream derived from
(seed, tree index), so parallel scheduling cannot change the result.
"""

from __future__ import annotations

import inspect
import json
import math

import numpy as np

from .ingest import _atomic_write_bytes
from .validation import (DimensionMismatch, check_fitted, check_matrix,
                         check_X_y)

MODEL_FORMAT_VERSION = 1


class ForestError(Exception):
    pass


class EmptyDataset(ForestError):
    pass


class TooFewGroups(ForestError):
    pass


class FeatureNameMismatch(ForestError):
    pass


class _Tree:
    """Flat-array binary tree; leaves have feature == -1."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add(self, feature, threshold, value):
        """Append a node (a leaf when feature is -1); children come later."""
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
        return self

    def predict(self, X):
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.value[node]

    def to_dict(self):
        return {"feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "value": self.value.tolist()}

    @classmethod
    def from_dict(cls, d):
        t = cls()
        t.feature = d["feature"]
        t.threshold = d["threshold"]
        t.left = d["left"]
        t.right = d["right"]
        t.value = d["value"]
        return t.finalize()


def _variance_impurity(y):
    return float(np.var(y)) if len(y) else 0.0


def _gini_impurity(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - np.dot(p, p))


def _best_split(X, y, min_leaf, child_impurity):
    """Best (weighted child impurity, column, threshold) over X's columns.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values of a column. Ties go to the lowest column, then the lowest
    threshold. child_impurity(ys, nl, nr) scores every cut of the columns'
    sorted targets ys as nl * left impurity + nr * right impurity. None
    when no cut leaves min_leaf rows on each side.
    """
    n = len(y)
    order = np.argsort(X, axis=0, kind="mergesort")
    xs = np.take_along_axis(X, order, axis=0)
    nl = np.arange(1, n)[:, None]
    nr = n - nl
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    weighted = np.where(valid, child_impurity(y[order], nl, nr) / n, np.inf)
    col, j = divmod(int(np.argmin(weighted.T)), n - 1)
    return (float(weighted[j, col]), col,
            (xs[j, col] + xs[j + 1, col]) / 2.0)


class _BaseForest:
    """sklearn-style param handling shared by both forest estimators."""

    def __init__(self, n_trees=100, max_depth=20, min_samples_leaf=1,
                 max_features=None, bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def get_params(self, deep=True):
        names = inspect.signature(type(self).__init__).parameters
        return {k: getattr(self, k) for k in names if k != "self"}

    def set_params(self, **params):
        valid = self.get_params()
        for k, v in params.items():
            if k not in valid:
                raise ValueError(f"unknown parameter {k!r}")
            setattr(self, k, v)
        return self

    def _resolve_max_features(self, d):
        mf = self.max_features
        if mf is None:
            mf = self._default_max_features(d)
        return max(1, min(int(mf), d))

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        n, d = X.shape
        if n == 0:
            raise EmptyDataset("no training rows")
        y = self._encode_targets(y)
        mf = self._resolve_max_features(d)
        self.n_features_ = d
        importances = np.zeros(d)
        self.trees_ = []
        for t in range(int(self.n_trees)):
            rng = np.random.default_rng([int(self.seed), t])
            if self.bootstrap:
                idx = rng.integers(0, n, n)
            else:
                idx = np.arange(n)
            tree = _Tree()
            imp = np.zeros(d)
            self._grow(tree, X[idx], y[idx], 0, rng, mf, imp, len(idx))
            self.trees_.append(tree.finalize())
            s = imp.sum()
            if s > 0:
                importances += imp / s
        s = importances.sum()
        self.feature_importances_ = (importances / s if s > 0
                                     else np.zeros(d))
        return self

    def _grow(self, tree, X, y, depth, rng, mf, importances, n_root):
        n, d = X.shape
        impurity = self._impurity(y)
        if (depth >= int(self.max_depth) or impurity <= 0.0
                or n < 2 * int(self.min_samples_leaf)):
            return tree.add(-1, 0.0, self._leaf_value(y))
        feats = np.sort(rng.choice(d, size=mf, replace=False))
        best = _best_split(X[:, feats], y, int(self.min_samples_leaf),
                           self._child_impurity)
        if best is None or impurity - best[0] <= 1e-12:
            return tree.add(-1, 0.0, self._leaf_value(y))
        weighted, col, thr = best
        f = int(feats[col])
        importances[f] += (n / n_root) * (impurity - weighted)
        node = tree.add(f, thr, 0.0)
        mask = X[:, f] <= thr
        tree.left[node] = self._grow(tree, X[mask], y[mask], depth + 1,
                                     rng, mf, importances, n_root)
        tree.right[node] = self._grow(tree, X[~mask], y[~mask], depth + 1,
                                      rng, mf, importances, n_root)
        return node

    def _predict_matrix(self, X):
        check_fitted(self)
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise DimensionMismatch(
                f"model expects {self.n_features_} features, got {X.shape[1]}")
        return np.stack([t.predict(X) for t in self.trees_])


class RandomForestRegressor(_BaseForest):
    task = "regression"

    def _default_max_features(self, d):
        return math.ceil(d / 3)

    def _encode_targets(self, y):
        return np.asarray(y, dtype=np.float64)

    def _impurity(self, y):
        return _variance_impurity(y)

    def _leaf_value(self, y):
        return float(np.mean(y))

    def _child_impurity(self, ys, nl, nr):
        cs = np.cumsum(ys, axis=0)
        css = np.cumsum(ys * ys, axis=0)
        sl = cs[:-1]
        ssl = css[:-1]
        var_l = np.maximum(ssl / nl - (sl / nl) ** 2, 0.0)
        var_r = np.maximum((css[-1] - ssl) / nr - ((cs[-1] - sl) / nr) ** 2,
                           0.0)
        return nl * var_l + nr * var_r

    def predict(self, X):
        return self._predict_matrix(X).mean(axis=0)


class RandomForestClassifier(_BaseForest):
    task = "classification"

    def _default_max_features(self, d):
        return max(1, int(math.sqrt(d)))

    def _encode_targets(self, y):
        self.classes_, codes = np.unique(np.asarray(y), return_inverse=True)
        self._n_classes = len(self.classes_)
        return codes.astype(np.int64)

    def _impurity(self, codes):
        counts = np.bincount(codes, minlength=self._n_classes).astype(float)
        return _gini_impurity(counts)

    def _leaf_value(self, codes):
        # majority class; ties break to the lowest label index
        counts = np.bincount(codes, minlength=self._n_classes)
        return float(np.argmax(counts))

    def _child_impurity(self, codes, nl, nr):
        cum = np.cumsum(codes[..., None] == np.arange(self._n_classes),
                        axis=0)
        left = cum[:-1]
        right = cum[-1] - left
        gini_l = 1.0 - ((left / nl[..., None]) ** 2).sum(axis=2)
        gini_r = 1.0 - ((right / nr[..., None]) ** 2).sum(axis=2)
        return nl * gini_l + nr * gini_r

    def predict(self, X):
        # first-max vote, so ties break to the lowest label
        votes = self._predict_matrix(X).astype(np.int64)
        counts = (votes[..., None] == np.arange(len(self.classes_))).sum(0)
        return self.classes_[counts.argmax(axis=1)]


def kfold_by_session(groups, k=5, seed=0):
    """Session-grouped k-fold split over row-level group labels.

    Whole sessions are assigned to folds, greedily balancing fold row
    counts. Returns [(train_idx, test_idx)] with every session in exactly
    one test fold.
    """
    groups = np.asarray(groups)
    uniq, counts = np.unique(groups, return_counts=True)
    if len(uniq) < k:
        raise TooFewGroups(f"{len(uniq)} sessions < k={k}")
    rng = np.random.default_rng(int(seed))
    perm = rng.permutation(len(uniq))
    order = perm[np.argsort(-counts[perm], kind="mergesort")]
    fold_of = {}
    fold_sizes = [0] * k
    for gi in order:
        f = int(np.argmin(fold_sizes))
        fold_of[uniq[gi]] = f
        fold_sizes[f] += int(counts[gi])
    row_fold = np.array([fold_of[g] for g in groups])
    folds = []
    for f in range(k):
        test = np.nonzero(row_fold == f)[0]
        train = np.nonzero(row_fold != f)[0]
        folds.append((train, test))
    return folds


def save_forest(model, path, feature_names):
    """Serialize a fitted forest to a versioned, self-describing JSON file."""
    check_fitted(model)
    if len(feature_names) != model.n_features_:
        raise FeatureNameMismatch(
            f"{len(feature_names)} names for {model.n_features_} features")
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "task": model.task,
        "params": model.get_params(),
        "feature_names": list(feature_names),
        "feature_importances": model.feature_importances_.tolist(),
        "trees": [t.to_dict() for t in model.trees_],
    }
    if model.task == "classification":
        doc["classes"] = model.classes_.tolist()
    _atomic_write_bytes(path, json.dumps(doc, sort_keys=True).encode())


def load_forest(path, expected_feature_names=None):
    """Load a serialized forest; feature names must match when given."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ForestError(
            f"unsupported model format {doc.get('format_version')}")
    names = doc["feature_names"]
    if (expected_feature_names is not None
            and list(expected_feature_names) != names):
        raise FeatureNameMismatch(
            f"model was trained on {names}, got {list(expected_feature_names)}")
    cls = (RandomForestRegressor if doc["task"] == "regression"
           else RandomForestClassifier)
    model = cls(**doc["params"])
    model.trees_ = [_Tree.from_dict(t) for t in doc["trees"]]
    model.n_features_ = len(names)
    model.feature_names_ = names
    model.feature_importances_ = np.asarray(doc["feature_importances"])
    if doc["task"] == "classification":
        model.classes_ = np.asarray(doc["classes"])
    return model
