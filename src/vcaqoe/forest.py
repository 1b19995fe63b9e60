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

    def add_leaf(self, value):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def add_split(self, feature, threshold):
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
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


def _best_split_regression(Xf, y, min_leaf):
    """Best (threshold, weighted child impurity) for one feature column.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values; the first (lowest-threshold) minimizer wins ties.
    """
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    ys = y[order]
    n = len(ys)
    cs = np.cumsum(ys)
    css = np.cumsum(ys * ys)
    nl = np.arange(1, n)
    nr = n - nl
    sl = cs[:-1]
    ssl = css[:-1]
    var_l = np.maximum(ssl / nl - (sl / nl) ** 2, 0.0)
    var_r = np.maximum((css[-1] - ssl) / nr - ((cs[-1] - sl) / nr) ** 2, 0.0)
    weighted = (nl * var_l + nr * var_r) / n
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    weighted = np.where(valid, weighted, np.inf)
    j = int(np.argmin(weighted))
    return (xs[j] + xs[j + 1]) / 2.0, float(weighted[j])


def _best_split_classification(Xf, y_codes, n_classes, min_leaf):
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    onehot = np.zeros((len(xs), n_classes), dtype=np.float64)
    onehot[np.arange(len(xs)), y_codes[order]] = 1.0
    cum = np.cumsum(onehot, axis=0)
    n = len(xs)
    total = cum[-1]
    left = cum[:-1]
    right = total - left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    gini_l = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / nr[:, None]) ** 2).sum(axis=1)
    weighted = (nl * gini_l + nr * gini_r) / n
    valid = (xs[1:] > xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    if not valid.any():
        return None
    weighted = np.where(valid, weighted, np.inf)
    j = int(np.argmin(weighted))
    return (xs[j] + xs[j + 1]) / 2.0, float(weighted[j])


class _BaseForest:
    """sklearn-style param handling shared by both forest estimators."""

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

    def fit(self, X, y, bootstrap_indices=None):
        """Fit the forest. bootstrap_indices (one index array per tree)
        overrides the internal bootstrap draw; used to pin resampling in
        tests."""
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
            if bootstrap_indices is not None:
                idx = np.asarray(bootstrap_indices[t], dtype=np.int64)
            elif self.bootstrap:
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
            return tree.add_leaf(self._leaf_value(y))
        feats = rng.choice(d, size=mf, replace=False)
        best = None  # (weighted_impurity, feature, threshold)
        for f in sorted(feats):
            res = self._best_split(X[:, f], y, int(self.min_samples_leaf))
            if res is None:
                continue
            thr, weighted = res
            if best is None or weighted < best[0]:
                best = (weighted, int(f), thr)
        if best is None or impurity - best[0] <= 1e-12:
            return tree.add_leaf(self._leaf_value(y))
        weighted, f, thr = best
        importances[f] += (n / n_root) * (impurity - weighted)
        node = tree.add_split(f, thr)
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

    def __init__(self, n_trees=100, max_depth=20, min_samples_leaf=1,
                 max_features=None, bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

    def _default_max_features(self, d):
        return math.ceil(d / 3)

    def _encode_targets(self, y):
        return np.asarray(y, dtype=np.float64)

    def _impurity(self, y):
        return _variance_impurity(y)

    def _leaf_value(self, y):
        return float(np.mean(y))

    def _best_split(self, Xf, y, min_leaf):
        return _best_split_regression(Xf, y, min_leaf)

    def predict(self, X):
        return self._predict_matrix(X).mean(axis=0)


class RandomForestClassifier(_BaseForest):
    task = "classification"

    def __init__(self, n_trees=100, max_depth=20, min_samples_leaf=1,
                 max_features=None, bootstrap=True, seed=0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed

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

    def _best_split(self, Xf, codes, min_leaf):
        return _best_split_classification(Xf, codes, self._n_classes,
                                          min_leaf)

    def predict(self, X):
        votes = self._predict_matrix(X).astype(np.int64)
        n_classes = len(self.classes_)
        out = np.empty(votes.shape[1], dtype=np.int64)
        for i in range(votes.shape[1]):
            out[i] = np.argmax(np.bincount(votes[:, i],
                                           minlength=n_classes))
        return self.classes_[out]


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
