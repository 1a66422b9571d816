"""From-scratch baseline classifiers over feature vectors, and the table of
every model kind the package trains.

All five baselines share one trained-model envelope and a uniform
train/predict contract: labels are plain strings, ties resolve to the first
label in canonical (sorted) order, and every stochastic step takes an
explicit seed. MODEL_KINDS holds DFAM and the five baselines; adding a
model kind means adding one entry there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dfam
from .errors import ConfigError, ParseError, TrainingError
from .features import FeatureVector, Schema
from .signals import read_utf8

_VAR_FLOOR = 1e-9
# cap on the (row, feature) cells one batch of _search_splits holds at once
_SPLIT_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class FeatureDataset:
    X: np.ndarray
    labels: tuple[str, ...]
    schema: Schema

    def __post_init__(self):
        X = np.array(self.X, dtype=np.float64)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        if X.ndim != 2 or X.shape[0] != len(self.labels):
            raise TrainingError("feature matrix and labels disagree")
        if X.shape[0] == 0:
            raise TrainingError("empty training dataset")
        if X.shape[1] != len(self.schema):
            raise TrainingError("feature matrix does not match schema")
        if not np.isfinite(X).all():
            raise TrainingError("feature matrix holds a non-finite value")

    @classmethod
    def from_vectors(cls, pairs: Sequence[tuple[str, FeatureVector]]) -> "FeatureDataset":
        if not pairs:
            raise TrainingError("empty training dataset")
        schema = pairs[0][1].schema
        for _, v in pairs:
            if v.schema != schema:
                raise TrainingError("feature vectors have differing schemas")
        X = np.stack([v.values for _, v in pairs])
        return cls(X, tuple(str(lbl) for lbl, _ in pairs), schema)


@dataclass(frozen=True, eq=False)
class FeatureModel:
    kind: str
    labels: tuple[str, ...]  # canonical sorted order
    schema: Schema
    params: dict


def _canonical_labels(labels: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set(labels)))


def _label_indices(labels: Sequence[str], canonical: tuple[str, ...]) -> np.ndarray:
    pos = {lbl: i for i, lbl in enumerate(canonical)}
    return np.array([pos[lbl] for lbl in labels], dtype=np.int64)


def _fit_scaler(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)  # constant features carry no distance
    return mean, std


# ---------------------------------------------------------------- naive bayes

def train_nb(dataset: FeatureDataset) -> FeatureModel:
    """Gaussian naive Bayes: class priors from counts, per-feature
    per-class mean and variance (floored)."""
    canonical = _canonical_labels(dataset.labels)
    y = _label_indices(dataset.labels, canonical)
    n, f = dataset.X.shape
    means = np.empty((len(canonical), f))
    variances = np.empty((len(canonical), f))
    priors = np.empty(len(canonical))
    for i in range(len(canonical)):
        rows = dataset.X[y == i]
        if len(rows) == 0:
            raise TrainingError(f"class {canonical[i]!r} has no instances")
        means[i] = rows.mean(axis=0)
        variances[i] = np.maximum(rows.var(axis=0), _VAR_FLOOR)
        priors[i] = len(rows) / n
    return FeatureModel(
        "naive_bayes",
        canonical,
        dataset.schema,
        {"log_prior": np.log(priors), "mean": means, "var": variances},
    )


def nb_log_posterior(model: FeatureModel, x: np.ndarray) -> np.ndarray:
    mean, var = model.params["mean"], model.params["var"]
    loglik = -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var).sum(axis=1)
    return model.params["log_prior"] + loglik


# ------------------------------------------------------------------------ knn

def train_knn(dataset: FeatureDataset, k: int) -> FeatureModel:
    """k nearest neighbours on z-score standardized features."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k > len(dataset.labels):
        raise ConfigError(f"k={k} exceeds dataset size {len(dataset.labels)}")
    mean, std = _fit_scaler(dataset.X)
    return FeatureModel(
        "knn",
        _canonical_labels(dataset.labels),
        dataset.schema,
        {
            "k": k,
            "mean": mean,
            "std": std,
            "X": (dataset.X - mean) / std,
            "row_labels": list(dataset.labels),
        },
    )


def _knn_predict(model: FeatureModel, x: np.ndarray) -> str:
    z = (x - model.params["mean"]) / model.params["std"]
    d = np.sqrt(((model.params["X"] - z) ** 2).sum(axis=1))
    order = np.argsort(d, kind="stable")[: model.params["k"]]
    votes: dict[str, int] = {}
    first_dist: dict[str, float] = {}
    for idx in order:
        lbl = model.params["row_labels"][idx]
        votes[lbl] = votes.get(lbl, 0) + 1
        if lbl not in first_dist:
            first_dist[lbl] = float(d[idx])
    top = max(votes.values())
    tied = [lbl for lbl, v in votes.items() if v == top]
    # vote ties go to the label with the nearer first neighbour, then canonical order
    return min(tied, key=lambda lbl: (first_dist[lbl], lbl))


# -------------------------------------------------------------- decision tree

def _presort(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X's columns as contiguous rows, and each value's rank within its
    column (ties in any order: a split never falls between equal values)."""
    XT = np.ascontiguousarray(X.T)
    rank = np.empty(XT.shape, dtype=np.int64)
    rank[np.arange(len(XT))[:, None], np.argsort(XT, axis=1)] = np.arange(XT.shape[1])
    return XT, rank


def _search_splits(XT, rank, y, nodes):
    """Best (gain, feature, midpoint threshold) by Gini gain of each node,
    or None; nodes holds (rows of X, their label counts, feature ids).

    Candidates are midpoints between consecutive distinct values of a
    node's rows. The (node, feature) groups are searched in batches of at
    most _SPLIT_BLOCK_CELLS row cells (one group may exceed it alone); ties
    keep the first candidate in (feature, threshold) order, and a split
    needs a gain above 1e-12.
    """
    sizes = np.array([len(rows) for rows, _, _ in nodes])
    counts = np.array([c for _, c, _ in nodes])
    n_rows, n_labels = XT.shape[1], counts.shape[1]
    p = counts / sizes[:, None]
    parent = 1.0 - (p * p).sum(axis=1)  # each node's Gini impurity
    gnode = np.repeat(np.arange(len(nodes)), [len(f) for _, _, f in nodes])
    gfeat = np.concatenate([f for _, _, f in nodes])
    best = np.full(len(nodes), 1e-12), np.full(len(nodes), -1), np.zeros(len(nodes))
    starts, cells = [0], 0  # of the batches, in groups
    for k, size in enumerate(sizes[gnode].tolist()):
        if cells + size > _SPLIT_BLOCK_CELLS and k > starts[-1]:
            starts, cells = starts + [k], 0
        cells += size
    for batch in map(slice, starts, starts[1:] + [len(gnode)]):
        gsize = sizes[gnode[batch]]
        first = np.cumsum(gsize) - gsize  # each group's first position
        gid = np.repeat(np.arange(len(gsize)), gsize)
        column = np.repeat(gfeat[batch] * n_rows, gsize)  # where each cell's feature starts in XT.flat
        rows = np.concatenate([nodes[j][0] for j in gnode[batch].tolist()])
        rows = rows[np.argsort(gid * n_rows + rank.take(column + rows))]
        val = XT.take(column + rows)
        split = np.flatnonzero((val[1:] != val[:-1]) & (gid[1:] == gid[:-1]))  # after these
        if not len(split):
            continue
        # Screen in exact integers. With S_l = sum(left_l**2), S_r likewise,
        # gini gain = parent - 1 + (S_l/nl + S_r/nr)/n: the score below plus
        # a per-node constant. A row of label l joining the left raises S_l
        # by 2*left_l + 1: S_l sums 2*(earlier rows of l in the group) + 1.
        bucket = gid * n_labels + y[rows]
        cross = np.concatenate(([0], np.cumsum(counts[gnode[batch]].take(bucket))))  # sum(total_l*left_l)
        # stable, so that a bucket's positions ascend (a radix sort when narrow)
        by_bucket = np.argsort(bucket.astype(np.min_scalar_type(len(gsize) * n_labels)), kind="stable")
        bucket = bucket[by_bucket]
        in_bucket = np.bincount(bucket, minlength=len(gsize) * n_labels)
        earlier = np.empty_like(by_bucket)
        earlier[by_bucket] = np.arange(len(gid)) - np.repeat(np.cumsum(in_bucket) - in_bucket, in_bucket)
        sq = np.concatenate(([0], np.cumsum(2 * earlier + 1)))
        g = gid[split]
        lo, hi = first[g], split + 1
        nl, n, node = hi - lo, gsize[g], gnode[batch][g]
        s_l = sq[hi] - sq[lo]
        s_r = (counts**2).sum(axis=1)[node] - 2 * (cross[hi] - cross[lo]) + s_l
        score = (s_l / nl + s_r / (n - nl)) / n
        # Keep the candidates within 1e-9 of their node's top score. In units
        # of 2**-53, the score is within 4 of its real value (exact integers,
        # four roundings, value at most 1) and each float gain below within
        # 2L + 10 of the real gain for L labels, about 25 ulp of 1 at L = 20
        # (L squared ratios 3 units off, summed, five roundings, also in the
        # parent). So the float argmax and its ties score within 4L + 28 of
        # the top: below 1e-9 for any L under two million.
        top = np.full(len(nodes), -np.inf)
        np.maximum.at(top, node, score)
        keep = score >= top[node] - 1e-9
        at, g, nl, n, node = split[keep], g[keep], nl[keep], n[keep], node[keep]
        key = bucket * len(gid) + by_bucket  # ascending
        buckets = ((g * n_labels)[:, None] + np.arange(n_labels)) * len(gid)
        left = np.searchsorted(key, buckets + at[:, None], "right") - np.searchsorted(key, buckets)
        # the gain formula of the one-feature oracle, on exact counts
        left = left.astype(np.float64)
        nl = nl.astype(np.float64)
        nr = n - nl
        total = counts[node].astype(np.float64)
        gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - (((total - left) / nr[:, None]) ** 2).sum(axis=1)
        gains = parent[node] - (nl * gl + nr * gr) / n
        i = np.lexsort((-gains, node))  # by node, gain down, then position
        i = i[np.concatenate(([True], node[i][1:] != node[i][:-1]))]
        i = i[gains[i] > best[0][node[i]]]  # above 1e-12 and what earlier batches found
        best[0][node[i]], best[1][node[i]] = gains[i], gfeat[batch][g[i]]
        best[2][node[i]] = (val[at[i]] + val[at[i] + 1]) / 2.0
    return [None if f < 0 else (float(g), int(f), float(t)) for g, f, t in zip(*best)]


def _grow_trees(X, y, canonical, row_sets, max_depth, min_leaf, n_feats, rngs):
    """One CART tree per row set of X (repeats allowed): a node is a leaf
    when pure, at max_depth, under min_leaf rows or without a split, else
    it splits on the best of n_feats features drawn from its tree's rng
    (all features if None). The trees grow in lockstep: each step searches
    every tree's next node that needs a search, taken depth-first and
    left-first, so each tree is the one it would be if grown alone.
    """
    F = X.shape[1]
    XT, rank = _presort(X)
    subsample = n_feats is not None and n_feats < F
    trees = [None] * len(row_sets)
    stacks = [[(rows, 0, trees, t)] for t, rows in enumerate(row_sets)]
    while True:
        pending = []  # ((rows, counts, feature ids), (tree, depth, holder, key)) to search
        for t, stack in enumerate(stacks):
            while stack:
                rows, depth, holder, key = stack.pop()
                counts = np.bincount(y[rows], minlength=len(canonical))
                if np.count_nonzero(counts) == 1 or depth == max_depth or len(rows) < min_leaf:
                    holder[key] = {"leaf": canonical[int(np.argmax(counts))]}
                    continue
                ids = np.sort(rngs[t].choice(F, n_feats, replace=False)) if subsample else np.arange(F)
                pending.append(((rows, counts, ids), (t, depth, holder, key)))
                break
        if not pending:
            return trees
        splits = _search_splits(XT, rank, y, [p for p, _ in pending])
        for ((rows, counts, _), (t, depth, holder, key)), split in zip(pending, splits):
            if split is None:
                holder[key] = {"leaf": canonical[int(np.argmax(counts))]}
                continue
            _, f, thr = split
            node = holder[key] = {"feature": f, "threshold": thr, "left": None, "right": None}
            left = XT[f, rows] <= thr
            stacks[t] += [(rows[~left], depth + 1, node, "right"), (rows[left], depth + 1, node, "left")]


def train_dt(
    dataset: FeatureDataset,
    max_depth: int = 10,
    min_leaf: int = 1,
    feature_subsample: int | None = None,
    rng: np.random.Generator | None = None,
) -> FeatureModel:
    """CART-style binary tree: greedy best Gini split, leaf on purity,
    depth limit, node size below min_leaf, or no improving split.

    feature_subsample and rng exist for random-forest parity and are not
    normally passed directly.
    """
    canonical = _canonical_labels(dataset.labels)
    y = _label_indices(dataset.labels, canonical)
    (tree,) = _grow_trees(
        dataset.X, y, canonical, [np.arange(len(y))], max_depth, min_leaf, feature_subsample, [rng]
    )
    return FeatureModel("decision_tree", canonical, dataset.schema, {"tree": tree})


def _tree_predict(tree: dict, x: np.ndarray) -> str:
    while "leaf" not in tree:
        tree = tree["left"] if x[tree["feature"]] <= tree["threshold"] else tree["right"]
    return tree["leaf"]


# -------------------------------------------------------------- random forest

def train_rf(
    dataset: FeatureDataset,
    n_trees: int = 25,
    max_depth: int = 10,
    seed: int = 0,
    min_leaf: int = 1,
    bootstrap: bool = True,
) -> FeatureModel:
    """Bagged CART trees with sqrt(F) feature subsampling per split;
    prediction is a majority vote. Out-of-bag accuracy is recorded when
    bootstrapping is enabled; disabling the bootstrap also disables feature
    subsampling, forcing all trees identical."""
    if n_trees < 1:
        raise ConfigError(f"n_trees must be >= 1, got {n_trees}")
    canonical = _canonical_labels(dataset.labels)
    y = _label_indices(dataset.labels, canonical)
    n, f = dataset.X.shape
    n_feats = max(1, int(math.sqrt(f))) if bootstrap else None
    rngs = [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_trees)]
    # each tree's bootstrap is its rng's first draw
    boots = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    trees = _grow_trees(dataset.X, y, canonical, boots, max_depth, min_leaf, n_feats, rngs)
    oob_votes = np.zeros((n, len(canonical)), dtype=np.int64)
    for tree, idx in zip(trees, boots if bootstrap else ()):
        mask = np.ones(n, dtype=bool)
        mask[idx] = False
        for row in np.nonzero(mask)[0]:
            pred = _tree_predict(tree, dataset.X[row])
            oob_votes[row, canonical.index(pred)] += 1
    oob_accuracy = None
    if bootstrap:
        covered = oob_votes.sum(axis=1) > 0
        if covered.any():
            oob_pred = np.argmax(oob_votes[covered], axis=1)
            oob_accuracy = float(np.mean(oob_pred == y[covered]))
    return FeatureModel(
        "random_forest",
        canonical,
        dataset.schema,
        {"trees": trees, "n_features_per_split": n_feats, "oob_accuracy": oob_accuracy},
    )


def _rf_predict(model: FeatureModel, x: np.ndarray) -> str:
    votes = np.zeros(len(model.labels), dtype=np.int64)
    for tree in model.params["trees"]:
        votes[model.labels.index(_tree_predict(tree, x))] += 1
    return model.labels[int(np.argmax(votes))]


# ------------------------------------------------------------------------ svm

def train_svm(
    dataset: FeatureDataset,
    lam: float = 1e-4,
    epochs: int = 100,
    seed: int = 0,
) -> FeatureModel:
    """Linear one-vs-rest SVM via regularized hinge-loss subgradient descent
    (Pegasos schedule) on z-score standardized features."""
    canonical = _canonical_labels(dataset.labels)
    if len(canonical) < 2:
        raise TrainingError("svm needs at least two labels")
    if lam <= 0 or epochs < 1:
        raise ConfigError("lam must be > 0 and epochs >= 1")
    y = _label_indices(dataset.labels, canonical)
    mean, std = _fit_scaler(dataset.X)
    Xs = (dataset.X - mean) / std
    n, f = Xs.shape
    L = len(canonical)
    targets = np.where(y[None, :] == np.arange(L)[:, None], 1.0, -1.0)  # (L, n)
    W = np.zeros((L, f))
    b = np.zeros(L)
    rng = np.random.default_rng(seed)
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            t += 1
            eta = 1.0 / (lam * t)
            x = Xs[i]
            margins = targets[:, i] * (W @ x + b)
            active = margins < 1.0
            W *= 1.0 - eta * lam
            if active.any():
                W[active] += eta * targets[active, i, None] * x
                b[active] += eta * targets[active, i]
    return FeatureModel(
        "svm", canonical, dataset.schema, {"mean": mean, "std": std, "W": W, "b": b}
    )


def svm_decision_values(model: FeatureModel, x: np.ndarray) -> np.ndarray:
    z = (x - model.params["mean"]) / model.params["std"]
    return model.params["W"] @ z + model.params["b"]


# ----------------------------------------------------------------- uniform api

def predict(model: FeatureModel, vector: FeatureVector) -> str:
    """Predict a label; rejects vectors whose schema differs from training."""
    if vector.schema != model.schema:
        raise ConfigError("feature vector schema does not match the trained model")
    kind = _BY_STORED.get(model.kind)
    if kind is None or kind.signature:
        raise ConfigError(f"unknown model kind {model.kind!r}")
    return kind.decide(model, vector.values)


# -------------------------------------------------------------- serialization

def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def dumps_feature_model(model: FeatureModel) -> str:
    body = {
        "labels": list(model.labels),
        "schema": [list(pair) for pair in model.schema],
        "params": _to_jsonable(model.params),
    }
    return f"MODEL v1 kind={model.kind}\n" + json.dumps(body, sort_keys=True) + "\n"


def loads_feature_model(text: str, path=None) -> FeatureModel:
    """Parse dumps_feature_model's text; path, if given, is named in every ParseError."""
    lines = text.split("\n", 1)
    header = lines[0].split()
    if header[:2] != ["MODEL", "v1"] or len(header) != 3 or not header[2].startswith("kind="):
        raise ParseError(f"bad model header {lines[0]!r}", 1, path)
    stored = header[2][len("kind=") :]
    kind = _BY_STORED.get(stored)
    if kind is None or kind.signature:
        raise ParseError(f"unknown model kind {stored!r}", 1, path)
    try:
        body = json.loads(lines[1])
    except (IndexError, ValueError, RecursionError):  # ValueError: also an int past 4300 digits
        raise ParseError("bad model body", 2, path) from None
    fields = (("labels", list), ("schema", list), ("params", dict))
    if not isinstance(body, dict) or any(not isinstance(body.get(f), t) for f, t in fields):
        raise ParseError(
            "model body needs a labels list, a schema list and a params object", 2, path
        )
    params = body["params"]
    try:
        for key, _ in kind.array_params:
            params[key] = np.asarray(params[key], dtype=np.float64)
        schema = tuple((name, key) for name, key in body["schema"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError("bad model params or schema", 2, path) from None
    labels = tuple(body["labels"])
    misfit = _misfit(kind, params, labels, len(schema))
    if misfit:
        raise ParseError(misfit, 2, path)
    return FeatureModel(kind.stored, labels, schema, params)


def _misfit(kind, params, labels, n_features) -> str | None:
    """What in a loaded model's params does not fit its labels and schema, or None."""
    if not labels or not all(isinstance(lbl, str) for lbl in labels):
        return "model labels must be one or more strings"
    # the windowing _feature_windowing reads, when the model was stamped with it
    w, fs = params.get("window_size"), params.get("sample_rate_hz")
    if w is not None and (type(w) is not int or w < 2):
        return f"param window_size must be an integer >= 2, got {w!r}"
    if fs is not None and (type(fs) not in (int, float) or not 0.0 < fs < math.inf):
        return f"param sample_rate_hz must be a positive finite number, got {fs!r}"
    sizes = {"F": n_features, "L": len(labels)}
    for key, dims in kind.array_params:
        shape = params[key].shape
        want = "x".join(str(sizes.get(d, d)) for d in dims)
        if len(shape) != len(dims) or any(sizes.setdefault(d, n) != n for d, n in zip(dims, shape)):
            return f"param {key} has shape {'x'.join(map(str, shape)) or 'scalar'}, expected {want}"
    return kind.misfit(params, labels, sizes) if kind.misfit else None


def _knn_misfit(params, labels, sizes):
    n, k, rows = sizes["n"], params.get("k"), params.get("row_labels")
    if not isinstance(rows, list) or len(rows) != n or not all(r in labels for r in rows):
        return f"param row_labels must be {n} of the model's labels, one per row of X"
    if type(k) is not int or not 1 <= k <= n:
        return f"param k must be an integer from 1 to {n}"
    return None


def _trees_misfit(trees, labels, n_features):
    """Unless every node of trees is a leaf holding one of labels or a split
    on one of n_features, what does not fit."""
    if not isinstance(trees, list) or not trees:
        return "param trees must be a non-empty list"
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, dict) and "leaf" in node:
            if node["leaf"] in labels:
                continue
        elif isinstance(node, dict):
            f, thr = node.get("feature"), node.get("threshold")
            if type(f) is int and 0 <= f < n_features and type(thr) in (int, float):
                stack += [node.get("left"), node.get("right")]
                continue
        return "tree nodes must be leaves holding a model label or splits on a schema feature"
    return None


def save_feature_model(model: FeatureModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_feature_model(model))


def load_feature_model(path) -> FeatureModel:
    return loads_feature_model(read_utf8(path), path)


# ----------------------------------------------------------------- model table

@dataclass(frozen=True)
class ModelKind:
    """One model kind: how --model spells it, the kind its files record,
    what a window becomes for it, and how it trains, predicts and saves.

    train(pairs, layout, window_size, seed, k, channels) fits (label, payload)
    pairs read from the given channels (None: not recorded);
    predict(model, payload) returns (label, score or None); windowing(model,
    W, fs) gives the window size, sample rate, bin layout and channels (None:
    those --sensors selects) a stored model reads recordings with, the W and
    fs arguments filling what it lacks.
    """

    name: str  # --model spelling
    stored: str  # kind recorded in model files
    k: int | None  # default k for kinds whose spelling takes a numeric suffix
    signature: bool  # windows become DFAM signatures, else feature vectors
    train: Callable
    predict: Callable
    save: Callable
    windowing: Callable
    decide: Callable | None = None  # (FeatureModel, values) -> label
    # (param, shape) of the params stored as float arrays; a shape spells its
    # axes F (schema features), L (labels) or n (training rows)
    array_params: tuple[tuple[str, str], ...] = ()
    # (params, labels, sizes) -> what else in a loaded model's params does not
    # fit, or None; sizes maps each axis letter of array_params to its length
    misfit: Callable | None = None


def _dfam_predict(model, sig):
    result = dfam.classify(sig, model)
    return result.label, result.scores[result.label]


def _feature_predict(model, vector):
    return predict(model, vector), None


def _feature_windowing(model, window_size, sample_rate_hz):
    params = model.params
    return (
        window_size or params.get("window_size"),
        params.get("sample_rate_hz", sample_rate_hz),
        None,
        None,
    )


def _baseline(name, stored, fit, decide, array_params=(), misfit=None, k=None) -> ModelKind:
    """Row of a feature-vector classifier; fit(dataset, seed, k) -> FeatureModel."""

    def train(pairs, layout, window_size, seed, k, channels):
        # the schema already names each feature's channel
        model = fit(FeatureDataset.from_vectors(pairs), seed, k)
        # stamp the windowing config so classify can run from the file alone
        params = {**model.params, "window_size": window_size, "sample_rate_hz": layout.sample_rate_hz}
        return FeatureModel(model.kind, model.labels, model.schema, params)

    return ModelKind(
        name, stored, k, False, train, _feature_predict, save_feature_model,
        _feature_windowing, decide, array_params, misfit,
    )


# Traced functions (train_*, predict, dfam.*) are called through lambdas so
# that a wrapper installed on the module attribute sees every call.
MODEL_KINDS = (
    ModelKind(
        "dfam", "dfam", None, True,
        lambda pairs, layout, w, seed, k, channels: dfam.train_from_signatures(
            pairs, layout, w, seed, channels
        ),
        _dfam_predict,
        dfam.save_model,
        lambda m, w, fs: (m.window_size, m.layout.sample_rate_hz, m.layout, m.channels),
    ),
    _baseline(
        "nb", "naive_bayes", lambda d, seed, k: train_nb(d),
        lambda m, x: m.labels[int(np.argmax(nb_log_posterior(m, x)))],
        (("log_prior", "L"), ("mean", "LF"), ("var", "LF")),
    ),
    _baseline(
        "knn", "knn", lambda d, seed, k: train_knn(d, k), _knn_predict,
        (("mean", "F"), ("std", "F"), ("X", "nF")), _knn_misfit, k=3,
    ),
    _baseline(
        "dt", "decision_tree", lambda d, seed, k: train_dt(d),
        lambda m, x: _tree_predict(m.params["tree"], x),
        misfit=lambda params, labels, sizes: _trees_misfit([params.get("tree")], labels, sizes["F"]),
    ),
    _baseline(
        "rf", "random_forest", lambda d, seed, k: train_rf(d, seed=seed), _rf_predict,
        misfit=lambda params, labels, sizes: _trees_misfit(params.get("trees"), labels, sizes["F"]),
    ),
    _baseline(
        "svm", "svm", lambda d, seed, k: train_svm(d, epochs=60, seed=seed),
        lambda m, x: m.labels[int(np.argmax(svm_decision_values(m, x)))],
        (("mean", "F"), ("std", "F"), ("W", "LF"), ("b", "L")),
    ),
)

_BY_STORED = {kind.stored: kind for kind in MODEL_KINDS}


def kind_of(model) -> ModelKind:
    """The table row of a trained DfamModel or FeatureModel."""
    return _BY_STORED[model.kind]
