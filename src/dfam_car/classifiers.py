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
# cap on the (features, rows, labels) prefix-count cells _best_split holds at once
_SPLIT_BLOCK_CELLS = 1 << 18


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


def nb_posterior(model: FeatureModel, x: np.ndarray) -> np.ndarray:
    """Normalized posterior over labels (sums to 1)."""
    logp = nb_log_posterior(model, x)
    logp = logp - logp.max()
    p = np.exp(logp)
    return p / p.sum()


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

def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _majority(y: np.ndarray, n_labels: int) -> int:
    return int(np.argmax(np.bincount(y, minlength=n_labels)))


def _best_split(X, y, n_labels, feature_ids):
    """Best (feature, midpoint threshold) by Gini gain.

    Candidates are midpoints between consecutive distinct sorted values,
    evaluated with prefix class counts in one sweep over a block of
    features at a time; ties keep the first candidate in (feature,
    threshold) order.
    """
    n = len(y)
    total = np.bincount(y, minlength=n_labels).astype(np.float64)
    parent = _gini(total)
    best = None  # (gain, feature, threshold)
    step = max(1, _SPLIT_BLOCK_CELLS // (n * n_labels))
    for start in range(0, len(feature_ids), step):
        ids = feature_ids[start : start + step]
        cols = X[:, ids]
        order = np.argsort(cols, axis=0, kind="stable")
        sv = np.take_along_axis(cols, order, axis=0)
        # split after row r of feature f, feature-major
        f, r = np.nonzero((sv[1:] != sv[:-1]).T)
        if len(r) == 0:
            continue
        onehot = np.zeros((len(ids), n, n_labels))
        onehot[np.arange(len(ids))[:, None], np.arange(n), y[order.T]] = 1.0
        left = np.cumsum(onehot, axis=1)[f, r]
        nl = r + 1.0
        nr = n - nl
        gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - (((total - left) / nr[:, None]) ** 2).sum(axis=1)
        gains = parent - (nl * gl + nr * gr) / n
        i = int(np.argmax(gains))
        if gains[i] > 1e-12 and (best is None or gains[i] > best[0]):
            thr = (sv[r[i], f[i]] + sv[r[i] + 1, f[i]]) / 2.0
            best = (float(gains[i]), int(ids[f[i]]), float(thr))
    return best


def _build_tree(X, y, canonical, depth, max_depth, min_leaf, n_feats, rng):
    counts = np.bincount(y, minlength=len(canonical))
    if (
        np.count_nonzero(counts) == 1
        or depth == max_depth
        or len(y) < min_leaf
    ):
        return {"leaf": canonical[_majority(y, len(canonical))]}
    if n_feats is not None and n_feats < X.shape[1]:
        feature_ids = np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
    else:
        feature_ids = np.arange(X.shape[1])
    split = _best_split(X, y, len(canonical), feature_ids)
    if split is None:
        return {"leaf": canonical[_majority(y, len(canonical))]}
    _, f, thr = split
    left = X[:, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _build_tree(X[left], y[left], canonical, depth + 1, max_depth, min_leaf, n_feats, rng),
        "right": _build_tree(X[~left], y[~left], canonical, depth + 1, max_depth, min_leaf, n_feats, rng),
    }


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
    tree = _build_tree(
        dataset.X, y, canonical, 0, max_depth, min_leaf, feature_subsample, rng
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
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    oob_votes = np.zeros((n, len(canonical)), dtype=np.int64)
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
        else:
            idx = np.arange(n)
        tree = _build_tree(
            dataset.X[idx], y[idx], canonical, 0, max_depth, min_leaf, n_feats, rng
        )
        trees.append(tree)
        if bootstrap:
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
