"""Random forest regressor/classifier built from scratch on numpy.

Both estimators follow the sklearn fit/predict convention, with
get_params giving the constructor arguments that save_forest records, but
carry no external ML dependency.
Training is deterministic for a fixed seed: every tree draws its bootstrap
sample and per-node feature subsets from its own RNG stream derived from
(seed, tree index), so how many trees grow together cannot change the
result.
"""

from __future__ import annotations

import base64
import inspect
import json
import math

import numpy as np

from .ingest import _atomic_write_bytes
from .validation import (DimensionMismatch, check_fitted, check_matrix,
                         check_X_y)

MODEL_FORMAT_VERSION = 3


class ForestError(Exception):
    pass


class EmptyDataset(ForestError):
    pass


class TooFewGroups(ForestError):
    pass


class FeatureNameMismatch(ForestError):
    pass


def _indices(a):
    """a as int64; TypeError unless every entry is an integer."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise TypeError(f"node indices of type {a.dtype}, not integers")
    return a.astype(np.int64, copy=False)


# the fields of a model file's node table, and the dtype of each one's
# array: a split's threshold and a leaf's value share the float field
_FILE_DTYPES = {"feature": "<i4", "threshold_or_value": "<f8"}


class _Tree:
    """Flat-array binary tree, nodes breadth-first: leaves have feature -1
    and threshold 0, splits value 0, and the k-th split (from 0) has the
    tree's nodes 2k + 1 and 2k + 2 as children. A forest keeps all its
    trees end to end in one _Tree, its node table."""

    __slots__ = ("feature", "threshold", "value")

    def __init__(self, feature, threshold, value):
        self.feature = _indices(feature)
        self.threshold, self.value = (
            np.asarray(a, dtype=np.float64) for a in (threshold, value))


def _split_ranks(sizes, split):
    """For each node of trees of sizes nodes each, end to end, how many of
    split's nodes come before it in its tree: the rank k that gives a split
    its children 2k + 1 and 2k + 2."""
    k = np.cumsum(split) - split
    return k - np.repeat(k[np.cumsum(sizes) - sizes], sizes)


# (row, drawn feature) entries one level of a group of trees sorts at once,
# and (tree, row) entries one predict step moves: bounds a level's memory,
# and lets shallow trees share a level's overhead.
_LEVEL_ENTRIES = 1 << 15


def _node_table(sizes, nodes):
    """The walk's form of a node table (nodes: a _Tree of trees of sizes
    nodes each, end to end). Node i, numbered from the table's start, owns
    slots 2 i and 2 i + 1, which both hold its feature, threshold and
    value; slot 2 i leads left and 2 i + 1 right, and child[s] is the
    first slot of the node that slot s leads to. A leaf leads to itself
    both ways and reads feature 0, so a walk steps past it unchanged. Also
    returns each tree's first slot and the most splits on any root-to-leaf
    path, found over the split nodes alone (children follow their parent,
    so this ends)."""
    roots = np.cumsum(sizes) - sizes
    feature = nodes.feature
    split = feature >= 0
    kids = (2 * _split_ranks(sizes, split) + np.repeat(roots, sizes)
            + np.array([[1], [2]]))
    child = np.where(split, kids, np.arange(len(feature))).T.ravel()
    depth, frontier = 0, roots[split[roots]]
    reached = np.zeros(len(feature), dtype=bool)
    while len(frontier):
        reached[:] = False
        reached[child[2 * frontier[:, None] + [0, 1]]] = True
        frontier = np.flatnonzero(reached & split)
        depth += 1
    return (*(np.repeat(a, 2) for a in (np.where(split, feature, 0),
                                        nodes.threshold, nodes.value)),
            2 * child, 2 * roots, depth)


def _ranges(starts, lengths):
    """Concatenation of the ranges [starts[i], starts[i] + lengths[i])."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _column_ranks(X):
    """Every column's sorted distinct values, laid end to end, and the
    index of each X[row, f] among them as ranks[f, row]."""
    values, ranks = zip(*(np.unique(c, return_inverse=True) for c in X.T))
    offsets = np.cumsum([0] + [len(v) for v in values[:-1]])[:, None]
    return np.stack(ranks) + offsets, np.concatenate(values)


def _stable_order(key, top):
    """np.argsort(key, kind="stable") of int64 keys below top: one np.sort
    of packed (key, position) values when those fit in int64."""
    n = len(key)
    if top * n <= 1 << 63:
        return np.sort(key * n + np.arange(n)) % n
    return np.argsort(key, kind="stable")


def _best_splits(ranks, values, stats, rows, counts, feats, min_leaf, draws):
    """Best cut of each node of a level over its drawn features.

    Node j owns the next counts[j] entries of rows, with split statistics
    in the same entries of stats, and may cut on the ascending features
    feats[j] (ranks, values: see _column_ranks). Entry i stands for
    draws[i] draws of its row, and its stats are their sums. A cut's gain,
    the node's impurity less its children's weighted impurity, is the sum
    over the columns of stats of (L**2 / nl + R**2 / nr - T**2 / n) / n,
    with L, R and T the column's left, right and node sums and nl, nr and
    n their draws. A threshold is the midpoint of two consecutive distinct
    values in the node. Cuts within 1e-9 (relative) of the best gain tie
    with it, so rounding never picks among equal cuts; ties go to the
    lowest feature, then the lowest threshold. Returns per node the gain
    (0 where no cut leaves min_leaf draws a side), feature, threshold and
    left entries, and rows sorted on each node's feature.
    """
    m, mf = feats.shape
    n_pair = np.repeat(counts, mf)
    pair_end = np.cumsum(n_pair)
    pair_start = pair_end - n_pair
    at = _ranges(np.repeat(np.cumsum(counts) - counts, mf), n_pair)
    stride = np.int64(len(values))
    # one sort orders every pair's rows: pair-major, then by value
    key = np.repeat(np.arange(m * mf) * stride, n_pair) + ranks.ravel()[
        np.repeat(feats.ravel() * ranks.shape[1], n_pair) + rows[at]]
    # stable: tied rows keep their node's order whatever the level holds
    order = _stable_order(key, m * mf * int(stride))
    key, at = key[order], at[order]
    del order
    cut = np.flatnonzero(key[1:] > key[:-1])
    pair = key[cut] // stride

    def sums(column):
        """Each cut's left sum of column, and each pair's total."""
        cs = np.cumsum(column[at])
        end = cs[pair_end - 1]
        base = np.concatenate([[0], end[:-1]])
        return cs[cut] - base[pair], end - base

    nl, n = sums(draws)
    nr = n[pair] - nl
    keep = (nl >= min_leaf) & (nr >= min_leaf)
    cut, pair, nl, nr = cut[keep], pair[keep], nl[keep], nr[keep]
    gain = 0.0
    for column in stats.T:
        left, total = sums(column)
        gain = (gain + left ** 2 / nl + (total[pair] - left) ** 2 / nr
                - (total ** 2 / n)[pair])
    gain = gain / n[pair]
    node = pair // mf
    first = np.flatnonzero(np.diff(node, prepend=-1))
    high = np.maximum.reduceat(gain, first)
    high = np.repeat(high, np.diff(first, append=len(cut)))
    hit = np.flatnonzero(gain >= high - 1e-9 * np.abs(high))
    win = hit[np.diff(node[hit], prepend=-1) != 0]   # each node's first
    j, offset = node[win], pair[win] * stride
    best, best_pair = np.zeros(m), np.arange(m) * mf
    threshold, n_left = np.zeros(m), np.zeros(m, dtype=np.int64)
    best[j], best_pair[j] = gain[win], pair[win]
    n_left[j] = cut[win] - pair_start[pair[win]] + 1
    threshold[j] = (values[key[cut[win]] - offset]
                    + values[key[cut[win] + 1] - offset]) / 2.0
    return (best, feats.ravel()[best_pair], threshold, n_left,
            rows[at[_ranges(pair_start[best_pair], counts)]])


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

    @property
    def trees_(self):
        """The trees, as a list of _Tree views of the model's node table."""
        bounds = np.cumsum(self._sizes)[:-1]
        return [_Tree(*fields) for fields in zip(*(
            np.split(getattr(self._nodes, k), bounds)
            for k in _Tree.__slots__))]

    def get_params(self):
        names = inspect.signature(type(self).__init__).parameters
        return {k: getattr(self, k) for k in names if k != "self"}

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
        ranks, values = _column_ranks(X)
        per_group = max(1, _LEVEL_ENTRIES // (n * mf))
        n_trees = int(self.n_trees)
        per_tree = np.zeros((n_trees, d))
        tables = []
        for first in range(0, n_trees, per_group):
            group = range(first, min(first + per_group, n_trees))
            *table, per_tree[first:first + len(group)] = self._grow(
                ranks, values, y, group, mf)
            tables.append(table)
        self._sizes, *fields = (np.concatenate(a) for a in zip(*tables))
        self._nodes = _Tree(*fields)
        # the trees' normalised rows are summed once, in tree order, so no
        # bit of the sum depends on how many trees grew together
        totals = per_tree.sum(axis=1, keepdims=True)
        importances = (per_tree / np.where(totals > 0, totals, 1)).sum(axis=0)
        s = importances.sum()
        self.feature_importances_ = (importances / s if s > 0
                                     else np.zeros(d))
        return self

    def _grow(self, ranks, values, y, group, mf):
        """Grow the trees of group breadth-first, one level of all of them
        at a time; returns their node counts, their node table's fields and
        their per-tree importances."""
        n, d, g = len(y), len(ranks), len(group)
        min_leaf = int(self.min_samples_leaf)
        rngs = [np.random.default_rng([int(self.seed), t]) for t in group]
        # a tree grows on the distinct rows its sample drew, each standing
        # for its copies[tree, row] draws
        copies = np.array([np.bincount(rng.integers(0, n, n), minlength=n)
                           if self.bootstrap else np.ones(n, np.int64)
                           for rng in rngs])
        rows = np.nonzero(copies)[1]
        counts = np.count_nonzero(copies, axis=1)
        tree = np.arange(g)     # a level's nodes, ordered by tree
        importances = np.zeros((g, d))
        levels = []
        depth = 0
        while len(counts):
            m = len(counts)
            draws = copies[np.repeat(tree, counts), rows]
            impurity, value, stats, weight = self._node_stats(
                y[rows], np.repeat(np.arange(m), counts), m, draws)
            weighted = weight * impurity
            if depth:
                # a split's impurity decrease, from its own node's and its
                # children's rows only, whatever else grows in the level
                np.add.at(importances, (tree[::2], cut_on), (
                    parent - weighted[::2] - weighted[1::2]) / n)
            feature, threshold = np.full(m, -1), np.zeros(m)
            levels.append((tree, feature, threshold, value))
            split = np.flatnonzero((impurity > 0.0)
                                   & (weight >= 2 * min_leaf))
            if depth >= int(self.max_depth) or not len(split):
                break
            drawn = np.bincount(tree[split], minlength=g)
            feats = np.concatenate([
                np.sort(np.argsort(rng.random((c, d)), axis=1)[:, :mf],
                        axis=1) for rng, c in zip(rngs, drawn) if c])
            size = counts[split]
            pick = _ranges((np.cumsum(counts) - counts)[split], size)
            gain, f, thr, n_left, rows = _best_splits(
                ranks, values, stats[pick], rows[pick], size, feats, min_leaf,
                draws[pick])
            ok = gain > 1e-12
            done = split[ok]
            feature[done], threshold[done], value[done] = f[ok], thr[ok], 0.0
            parent, cut_on = weighted[done], f[ok]
            rows = rows[_ranges((np.cumsum(size) - size)[ok], size[ok])]
            counts = np.column_stack([n_left[ok],
                                      size[ok] - n_left[ok]]).ravel()
            tree = np.repeat(tree[done], 2)
            depth += 1
        tree, *arrays = (np.concatenate(a) for a in zip(*levels))
        order = np.argsort(tree, kind="stable")
        f, thr, v = (a[order] for a in arrays)
        # breadth-first, so each split's children follow from its rank
        return np.bincount(tree, minlength=g), f, thr, v, importances

    def _predict_matrix(self, X):
        """Each tree's leaf value for each row of X, as an (n_trees, n_rows)
        matrix, from one walk over every tree at once."""
        check_fitted(self)
        X = check_matrix(X)
        if X.shape[1] != self.n_features_:
            raise DimensionMismatch(
                f"model expects {self.n_features_} features, got {X.shape[1]}")
        feature, threshold, value, child, first, depth = _node_table(
            self._sizes, self._nodes)
        n = len(X)
        out = np.empty((len(first), n))
        # equal blocks of rows, as few as keep a block's (tree, row) entries
        # within _LEVEL_ENTRIES; each step moves every entry one level down.
        # X and the thresholds are finite, so > is "not <=": the right slot
        blocks = max(1, math.ceil(n / max(1, _LEVEL_ENTRIES // len(first))))
        step = max(1, math.ceil(n / blocks))
        for start in range(0, n, step):
            block = X[start:start + step]
            b, Xt = len(block), block.T.ravel()
            at, row = feature * b, np.tile(np.arange(b), len(first))
            slot = np.repeat(first, b)
            for _ in range(depth):
                slot = child[slot + (Xt[at[slot] + row] > threshold[slot])]
            out[:, start:start + b] = value[slot].reshape(-1, b)
        return out


class RandomForestRegressor(_BaseForest):
    task = "regression"

    def _default_max_features(self, d):
        return math.ceil(d / 3)

    def _encode_targets(self, y):
        return np.asarray(y, dtype=np.float64)

    def _node_stats(self, y, node, m, w):
        """Per node variance, mean and draws (w per row); per row the split
        statistic, its draws times the target less the node's mean rounded
        to an integer. Integer targets keep exact sums, and a level's
        running sums stay small, so a node's cuts keep their precision
        wherever it lies in the level."""
        n = np.bincount(node, w, m)
        mean = np.bincount(node, w * y, m) / n
        return (np.bincount(node, w * (y - mean[node]) ** 2, m) / n, mean,
                (w * (y - np.round(mean)[node]))[:, None], n)

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

    def _node_stats(self, codes, node, m, w):
        k = self._n_classes
        counts = np.bincount(node * k + codes, w, m * k).reshape(m, k)
        n = counts.sum(axis=1)
        p = counts / n[:, None]
        # majority class, ties to the lowest label; one-hot split statistics
        # summed over each row's draws
        return (1.0 - (p * p).sum(axis=1), np.argmax(counts, axis=1) * 1.0,
                (codes[:, None] == np.arange(k)) * w[:, None], n)

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


def save_forest(model, path, feature_names, provenance=None):
    """Serialize a fitted forest to a versioned, self-describing JSON file:
    each tree's node count under "trees", and the node table under
    "nodes", one base64 little-endian array per field of _FILE_DTYPES.
    provenance, a JSON object saying what the model was trained on, is
    recorded when given."""
    check_fitted(model)
    if len(feature_names) != model.n_features_:
        raise FeatureNameMismatch(
            f"{len(feature_names)} names for {model.n_features_} features")
    nodes = model._nodes
    fields = (nodes.feature, np.where(nodes.feature >= 0, nodes.threshold,
                                      nodes.value))
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "task": model.task,
        "params": model.get_params(),
        "feature_names": list(feature_names),
        "feature_importances": model.feature_importances_.tolist(),
        "trees": model._sizes.tolist(),
        "nodes": {k: {"dtype": dtype, "data": base64.b64encode(
            a.astype(dtype).tobytes()).decode()}
            for (k, dtype), a in zip(_FILE_DTYPES.items(), fields)},
    }
    if model.task == "classification":
        doc["classes"] = model.classes_.tolist()
    if provenance is not None:
        doc["provenance"] = provenance
    _atomic_write_bytes(path, json.dumps(doc, sort_keys=True).encode())


def _decode(name, entry):
    """One field of a model file's node table, as the array it encodes;
    TypeError unless it has the dtype save_forest writes for the field,
    ValueError unless its bytes are a whole number of items."""
    want = _FILE_DTYPES[name]
    if entry["dtype"] != want:
        kind = "floats" if want[1] == "f" else "integers"
        raise TypeError(f"{name} array of type {entry['dtype']}, not {kind}")
    dtype = np.dtype(want)
    data = base64.b64decode(entry["data"], validate=True)
    if len(data) % dtype.itemsize:
        raise ValueError(f"{name} array of {len(data)} bytes is not a whole "
                         f"number of {dtype.itemsize}-byte items")
    return np.frombuffer(data, dtype)


def _check_trees(sizes, f, mixed, n_features, n_classes=None):
    """ForestError unless there are trees, each of at least one node; f
    and mixed, a file's two node fields, have one length, which the tree
    sizes sum to; each split names a known feature; each tree has one node
    more than twice its splits and its k-th split comes before node
    2k + 1, so every node but the root is the child of one split before
    it; every threshold and value is finite and, for a classifier of
    n_classes classes, every leaf value is a class index."""
    if not len(sizes):
        raise ForestError("no trees")
    n = len(f)
    if (sizes <= 0).any() or len(mixed) != n:
        raise ForestError("tree arrays are empty or differ in length")
    if sizes.ndim != 1 or (sizes > n).any() or sizes.sum() != n:
        raise ForestError(f"tree node counts do not sum to the {n} nodes of "
                          f"the arrays")
    if ((f < -1) | (f >= n_features)).any():
        raise ForestError("a tree splits on an unknown feature")
    split = f >= 0
    roots = np.cumsum(sizes) - sizes
    if (sizes != 2 * np.add.reduceat(split, roots) + 1).any():
        raise ForestError("a tree's node count is not one more than twice "
                          "its splits")
    node = np.arange(n) - np.repeat(roots, sizes)
    if (split & (node > 2 * _split_ranks(sizes, split))).any():
        raise ForestError("a split does not come before its children")
    if not np.isfinite(mixed).all():
        raise ForestError("a threshold or node value is not finite")
    if n_classes is not None:
        if not n_classes:
            raise ForestError("a classifier with no classes")
        leaf = mixed[~split]
        if ((leaf % 1 != 0) | (leaf < 0) | (leaf >= n_classes)).any():
            raise ForestError(f"a leaf value is not a class index below "
                              f"{n_classes}")


def load_forest(path, expected_feature_names=None):
    """Load a serialized forest; feature names must match when given."""
    with open(path, "rb") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ForestError(f"{path}: not a model (no JSON object)")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ForestError(
            f"{path}: unsupported model format {version}; this version "
            f"reads format {MODEL_FORMAT_VERSION}, so train the model again")
    try:
        names = list(doc["feature_names"])
        cls = {"regression": RandomForestRegressor,
               "classification": RandomForestClassifier}[doc["task"]]
        model = cls(**doc["params"])
        sizes = _indices(doc["trees"])
        f, mixed = (_decode(k, doc["nodes"][k]) for k in _FILE_DTYPES)
        model.feature_importances_ = np.asarray(doc["feature_importances"],
                                                dtype=np.float64)
        n_classes = None
        if cls is RandomForestClassifier:
            model.classes_ = np.asarray(doc["classes"])
            n_classes = len(model.classes_)
        _check_trees(sizes, f, mixed, len(names), n_classes)
    except (KeyError, TypeError, ValueError, ForestError) as exc:
        raise ForestError(f"{path}: malformed model "
                          f"({type(exc).__name__}: {exc})") from exc
    if (expected_feature_names is not None
            and list(expected_feature_names) != names):
        raise FeatureNameMismatch(
            f"model was trained on {names}, got {list(expected_feature_names)}")
    split = f >= 0
    model._sizes, model._nodes = sizes, _Tree(
        f, np.where(split, mixed, 0.0), np.where(split, 0.0, mixed))
    model.n_features_ = len(names)
    return model
