import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfam_car import classifiers
from dfam_car.classifiers import (
    FeatureDataset,
    dumps_feature_model,
    load_feature_model,
    loads_feature_model,
    nb_log_posterior,
    predict,
    save_feature_model,
    svm_decision_values,
    train_dt,
    train_knn,
    train_nb,
    train_rf,
    train_svm,
    _presort,
    _search_splits,
)
from dfam_car.errors import ConfigError, ParseError, TrainingError
from dfam_car.features import FeatureVector


def make_schema(n):
    return tuple(("f", f"c{i}") for i in range(n))


def dataset(X, labels):
    X = np.asarray(X, dtype=np.float64)
    return FeatureDataset(X, tuple(labels), make_schema(X.shape[1]))


def vec(x, n=None):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return FeatureVector(x, make_schema(n or len(x)))


def blobs(rng, centers, per_class=40, std=1.0):
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(rng.normal(c, std, (per_class, len(c))))
        y += [f"class{i}"] * per_class
    X = np.vstack(X)
    perm = rng.permutation(len(y))
    return dataset(X[perm], [y[i] for i in perm])


# ------------------------------------------------------------------ naive bayes

def test_nb_well_separated():
    ds = dataset([[0.0], [0.1], [-0.1], [10.0], [10.1], [9.9]], ["A", "A", "A", "B", "B", "B"])
    model = train_nb(ds)
    assert predict(model, vec([0.05])) == "A"
    assert predict(model, vec([9.95])) == "B"


def test_nb_prior_decides_equal_likelihoods():
    ds = dataset([[1.0]] * 9 + [[1.0]], ["A"] * 9 + ["B"])
    model = train_nb(ds)
    assert predict(model, vec([1.0])) == "A"


def test_nb_matches_direct_bayes_rule():
    rng = np.random.default_rng(31)
    ds = blobs(rng, [[0, 0, 0], [3, 3, 3]], per_class=50)
    model = train_nb(ds)
    y = np.array(ds.labels)
    for x in rng.normal(1.5, 2.0, (100, 3)):
        # direct evaluation: posterior ~ prior * product of gaussian densities
        post = []
        for lbl in model.labels:
            rows = ds.X[y == lbl]
            mu, var = rows.mean(axis=0), np.maximum(rows.var(axis=0), 1e-9)
            dens = np.prod(np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
            post.append(len(rows) / len(y) * dens)
        assert predict(model, vec(x)) == model.labels[int(np.argmax(post))]


def test_nb_posterior_sums_to_one():
    rng = np.random.default_rng(32)
    ds = blobs(rng, [[0, 0], [2, 2], [0, 4]], per_class=30)
    model = train_nb(ds)
    y = np.array(ds.labels)
    for x in rng.normal(1, 2, (20, 2)):
        logp = nb_log_posterior(model, x)
        p = np.exp(logp - logp.max())
        p /= p.sum()
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # prior x Gaussian density per class, normalized by hand
        brute = []
        for lbl in model.labels:
            rows = ds.X[y == lbl]
            mu, var = rows.mean(axis=0), np.maximum(rows.var(axis=0), 1e-9)
            dens = np.prod(np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
            brute.append(len(rows) / len(y) * dens)
        assert p == pytest.approx(np.array(brute) / sum(brute), rel=1e-9, abs=1e-12)


def test_nb_empty_dataset():
    with pytest.raises(TrainingError):
        FeatureDataset(np.zeros((0, 2)), (), make_schema(2))


# ------------------------------------------------------------------------- knn

def test_knn_self_neighbor():
    rng = np.random.default_rng(33)
    ds = blobs(rng, [[0, 0], [5, 5]], per_class=20)
    model = train_knn(ds, k=1)
    for x, lbl in zip(ds.X, ds.labels):
        assert predict(model, vec(x)) == lbl


def test_knn_vote_tie_goes_to_nearest():
    ds = dataset([[0.0], [1.0], [10.0]], ["A", "B", "B"])
    model = train_knn(ds, k=2)
    # query near A: neighbours are A (closer) and B -> 1-1 split -> A
    assert predict(model, vec([0.2])) == "A"


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(34)
    ds = blobs(rng, [[0, 0, 0], [2, 2, 0], [0, 4, 1]], per_class=25)
    model = train_knn(ds, k=3)
    mean, std = ds.X.mean(axis=0), ds.X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    Xs = (ds.X - mean) / std
    for x in rng.normal(1, 2, (50, 3)):
        z = (x - mean) / std
        d = np.sqrt(((Xs - z) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:3]
        votes = {}
        first = {}
        for idx in order:
            lbl = ds.labels[idx]
            votes[lbl] = votes.get(lbl, 0) + 1
            first.setdefault(lbl, float(d[idx]))
        top = max(votes.values())
        expected = min(
            (lbl for lbl, v in votes.items() if v == top),
            key=lambda lbl: (first[lbl], lbl),
        )
        assert predict(model, vec(x)) == expected


def test_knn_k_bounds():
    ds = dataset([[0.0], [1.0]], ["A", "B"])
    with pytest.raises(ConfigError):
        train_knn(ds, k=3)
    with pytest.raises(ConfigError):
        train_knn(ds, k=0)


# --------------------------------------------------------------- decision tree

def test_dt_single_split_pure_children():
    ds = dataset([[-2.0], [-1.5], [-0.2], [1.2], [1.7], [2.5]], ["A"] * 3 + ["B"] * 3)
    model = train_dt(ds)
    tree = model.params["tree"]
    assert "feature" in tree and "leaf" in tree["left"] and "leaf" in tree["right"]
    for x, lbl in zip(ds.X, ds.labels):
        assert predict(model, vec(x)) == lbl


def test_dt_degenerate_identical_features():
    ds = dataset([[1.0], [1.0], [1.0]], ["A", "A", "B"])
    model = train_dt(ds)
    assert model.params["tree"] == {"leaf": "A"}


def test_dt_blobs_accuracy():
    rng = np.random.default_rng(7)
    ds = blobs(rng, [[0, 0], [4, 3], [0, 4]], per_class=60, std=0.8)
    model = train_dt(ds, max_depth=4)
    acc = np.mean([predict(model, vec(x)) == lbl for x, lbl in zip(ds.X, ds.labels)])
    assert acc >= 0.95


def test_dt_training_accuracy_non_decreasing_in_depth():
    rng = np.random.default_rng(35)
    ds = blobs(rng, [[0, 0], [1.5, 1.5], [0, 3]], per_class=30, std=1.0)
    prev = 0.0
    for depth in range(0, 7):
        model = train_dt(ds, max_depth=depth, min_leaf=1)
        acc = np.mean([predict(model, vec(x)) == lbl for x, lbl in zip(ds.X, ds.labels)])
        assert acc >= prev - 1e-12
        prev = acc


def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def per_feature_best_split(X, y, n_labels, feature_ids):
    """The split search one feature at a time: the oracle of _search_splits."""
    n = len(y)
    total = np.bincount(y, minlength=n_labels).astype(np.float64)
    parent = _gini(total)
    best = None  # (gain, feature, threshold)
    for f in feature_ids:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sv = col[order]
        boundary = np.nonzero(sv[1:] != sv[:-1])[0]  # split after these rows
        if len(boundary) == 0:
            continue
        onehot = np.zeros((n, n_labels))
        onehot[np.arange(n), y[order]] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        left = prefix[boundary]
        nl = (boundary + 1).astype(np.float64)
        nr = n - nl
        gl = 1.0 - ((left / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - (((total - left) / nr[:, None]) ** 2).sum(axis=1)
        gains = parent - (nl * gl + nr * gr) / n
        i = int(np.argmax(gains))
        if gains[i] > 1e-12 and (best is None or gains[i] > best[0]):
            thr = (sv[boundary[i]] + sv[boundary[i] + 1]) / 2.0
            best = (float(gains[i]), int(f), float(thr))
    return best


def recursive_build_tree(X, y, canonical, depth, max_depth, min_leaf, n_feats, rng):
    """One tree grown by recursion on copies of X's rows, each split found
    by per_feature_best_split: the oracle of _grow_trees."""
    counts = np.bincount(y, minlength=len(canonical))
    majority = {"leaf": canonical[int(np.argmax(counts))]}
    if np.count_nonzero(counts) == 1 or depth == max_depth or len(y) < min_leaf:
        return majority
    if n_feats is not None and n_feats < X.shape[1]:
        feature_ids = np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
    else:
        feature_ids = np.arange(X.shape[1])
    split = per_feature_best_split(X, y, len(canonical), feature_ids)
    if split is None:
        return majority
    _, f, thr = split
    left = X[:, f] <= thr
    args = (canonical, depth + 1, max_depth, min_leaf, n_feats, rng)
    return {
        "feature": f,
        "threshold": thr,
        "left": recursive_build_tree(X[left], y[left], *args),
        "right": recursive_build_tree(X[~left], y[~left], *args),
    }


def recursive_grow_trees(X, y, canonical, row_sets, max_depth, min_leaf, n_feats, rngs):
    """_grow_trees' contract, one tree after the other."""
    return [
        recursive_build_tree(X[rows], y[rows], canonical, 0, max_depth, min_leaf, n_feats, rng)
        for rows, rng in zip(row_sets, rngs)
    ]


@st.composite
def split_problems(draw):
    """A node's rows: few distinct values (so duplicates and ties are common),
    some constant columns, 1-20 labels, and a sorted feature subset."""
    n = draw(st.integers(1, 60))
    n_features = draw(st.integers(1, 8))
    n_labels = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 12))
    X = rng.integers(0, levels, size=(n, n_features)) * draw(st.sampled_from([1.0, 0.1, -3.5]))
    for f in draw(st.lists(st.integers(0, n_features - 1), max_size=3)):
        X[:, f] = X[0, f]
    y = rng.integers(0, n_labels, size=n)
    subset = draw(st.lists(st.integers(0, n_features - 1), min_size=1, unique=True))
    return X, y, n_labels, np.array(sorted(subset))


def search_node(rows, y, n_labels, feature_ids):
    return rows, np.bincount(y[rows], minlength=n_labels), feature_ids


# Two splits of one float gain, the first on feature 0, whose integer
# scores round apart the other way: a screen with no margin keeps only the
# second.
TIED_GAINS = (
    np.array([[1, 1, 0, 4, 0, 2, 6, 4, 6, 5, 7, 5, 7, 5, 6, 3],
              [1, 1, 5, 1, 1, 3, 4, 4, 6, 0, 6, 3, 2, 4, 3, 7]], dtype=np.float64).T,
    np.array([0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0]),
    2,
    np.array([0, 1]),
)


@settings(max_examples=300, deadline=None)
@given(split_problems(), st.sampled_from([1, 50, classifiers._SPLIT_BLOCK_CELLS]))
@example(TIED_GAINS, classifiers._SPLIT_BLOCK_CELLS)
def test_best_split_matches_per_feature_oracle(problem, block_cells):
    X, y, n_labels, feature_ids = problem
    # the node of all rows, searched next to a bootstrap node of the same X
    rows = np.arange(len(y))
    boot = np.random.default_rng(len(y)).integers(0, len(y), size=len(y))
    nodes = [search_node(rows, y, n_labels, feature_ids), search_node(boot, y, n_labels, feature_ids[-2:])]
    # small batches split one node's features over several searches
    with mock.patch.object(classifiers, "_SPLIT_BLOCK_CELLS", block_cells):
        found = _search_splits(*_presort(X), y, nodes)
    assert found == [per_feature_best_split(X[r], y[r], n_labels, f) for r, _, f in nodes]


def test_trees_equal_those_of_oracle_split(monkeypatch):
    rng = np.random.default_rng(47)
    ds = blobs(rng, [[0, 0, 0, 0], [1, 2, 0, 1], [2, 0, 1, 2], [0, 1, 2, 2]], per_class=40)
    ds = dataset(np.round(ds.X, 1), ds.labels)  # duplicated values
    fast = [train_rf(ds, seed=0), train_dt(ds)]
    monkeypatch.setattr(classifiers, "_grow_trees", recursive_grow_trees)
    slow = [train_rf(ds, seed=0), train_dt(ds)]
    for a, b in zip(fast, slow):
        assert a.params == b.params


@st.composite
def tree_problems(draw):
    """A dataset of few-level, constant and duplicated columns."""
    X, y, _, _ = draw(split_problems())
    if draw(st.booleans()):
        X = np.hstack([X, X[:, :1]])  # a duplicated column
    return dataset(X, [f"L{i:02d}" for i in y])


@settings(max_examples=120, deadline=None)
@given(
    tree_problems(),
    st.booleans(),
    st.integers(1, 8),
    st.integers(1, 10),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from([1, 50, classifiers._SPLIT_BLOCK_CELLS]),
)
def test_lockstep_trees_equal_recursive_oracle(ds, bootstrap, n_trees, depth, min_leaf, seed, block_cells):
    with mock.patch.object(classifiers, "_SPLIT_BLOCK_CELLS", block_cells):
        fast = [
            train_rf(ds, n_trees=n_trees, max_depth=depth, seed=seed, min_leaf=min_leaf, bootstrap=bootstrap),
            train_dt(ds, max_depth=depth, min_leaf=min_leaf),
        ]
    with mock.patch.object(classifiers, "_grow_trees", recursive_grow_trees):
        slow = [
            train_rf(ds, n_trees=n_trees, max_depth=depth, seed=seed, min_leaf=min_leaf, bootstrap=bootstrap),
            train_dt(ds, max_depth=depth, min_leaf=min_leaf),
        ]
    for a, b in zip(fast, slow):
        assert a.params == b.params


def test_tree_training_memory_within_recursive_builder_peak():
    # a dataset of the LOSO fold's shape: 880 rows, 112 features, 20 labels
    rng = np.random.default_rng(6)
    y = np.arange(880) % 20
    X = rng.normal(size=(880, 112)) + 0.5 * rng.normal(size=(20, 112))[y]
    ds = dataset(np.round(X, 2), [f"a{i:02d}" for i in y])
    # The bounds are the tracemalloc peaks of the recursive builder with the
    # one-hot block search, which copied X at every node, on this dataset
    # (numpy 2.4.6). The lockstep builder measured 5,283,644 bytes (rf) and
    # 4,549,070 (dt): two (112, 880) presort tables plus one batch of
    # _SPLIT_BLOCK_CELLS cells. Doubling that cap takes rf to about 7.3 MB,
    # past its bound.
    for train, bound in ((lambda: train_rf(ds, seed=0), 6_306_077), (lambda: train_dt(ds), 9_747_218)):
        tracemalloc.start()
        try:
            train()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


# --------------------------------------------------------------- random forest

def test_rf_single_tree_equals_dt_on_same_bootstrap():
    rng = np.random.default_rng(36)
    ds = blobs(rng, [[0, 0, 0], [3, 3, 1]], per_class=30)
    seed = 5
    forest = train_rf(ds, n_trees=1, max_depth=6, seed=seed)
    # replicate the forest's per-tree stream: bootstrap draw, then splits
    child = np.random.SeedSequence(seed).spawn(1)[0]
    tree_rng = np.random.default_rng(child)
    idx = tree_rng.integers(0, len(ds.labels), size=len(ds.labels))
    boot = dataset(ds.X[idx], [ds.labels[i] for i in idx])
    solo = train_dt(boot, max_depth=6, feature_subsample=1, rng=tree_rng)
    for x in rng.normal(1.5, 2, (40, 3)):
        assert predict(forest, vec(x)) == predict(solo, vec(x))


def test_rf_no_bootstrap_equals_single_tree():
    rng = np.random.default_rng(37)
    ds = blobs(rng, [[0, 0], [3, 3]], per_class=25)
    forest = train_rf(ds, n_trees=7, seed=1, bootstrap=False)
    tree = train_dt(ds, max_depth=10)
    for x in rng.normal(1.5, 2, (40, 2)):
        assert predict(forest, vec(x)) == predict(tree, vec(x))
    assert forest.params["oob_accuracy"] is None


def test_rf_oob_close_to_dt_test_accuracy():
    rng = np.random.default_rng(42)
    centers = rng.normal(0, 4.0, (3, 5))
    X, y = [], []
    for i in range(3):
        X.append(rng.normal(centers[i], 1.0, (80, 5)))
        y += [f"class{i}"] * 80
    X = np.vstack(X)
    perm = rng.permutation(len(y))
    X, y = X[perm], [y[i] for i in perm]
    train = dataset(X[:180], y[:180])
    dt_model = train_dt(train, max_depth=10)
    dt_acc = np.mean([predict(dt_model, vec(x)) == t for x, t in zip(X[180:], y[180:])])
    forest = train_rf(train, n_trees=25, max_depth=10, seed=0)
    oob = forest.params["oob_accuracy"]
    # regression values recorded from this seeded configuration
    assert dt_acc == pytest.approx(59 / 60, abs=1e-12)
    assert oob == pytest.approx(1.0, abs=1e-12)
    assert abs(oob - dt_acc) <= 0.1


def test_rf_deterministic():
    rng = np.random.default_rng(38)
    ds = blobs(rng, [[0, 0], [2, 2]], per_class=20)
    a = train_rf(ds, n_trees=5, seed=9)
    b = train_rf(ds, n_trees=5, seed=9)
    pts = rng.normal(1, 2, (30, 2))
    assert [predict(a, vec(x)) for x in pts] == [predict(b, vec(x)) for x in pts]


# ------------------------------------------------------------------------- svm

def test_svm_separable_blobs():
    rng = np.random.default_rng(39)
    ds = blobs(rng, [[0, 0], [6, 6]], per_class=30, std=0.5)
    model = train_svm(ds, lam=1e-3, epochs=200, seed=0)
    acc = np.mean([predict(model, vec(x)) == lbl for x, lbl in zip(ds.X, ds.labels)])
    assert acc == 1.0


def test_svm_scale_invariance():
    rng = np.random.default_rng(40)
    ds = blobs(rng, [[0, 0, 0], [3, 1, 2]], per_class=25)
    scaled = dataset(ds.X * 17.0, ds.labels)
    a = train_svm(ds, epochs=50, seed=4)
    b = train_svm(scaled, epochs=50, seed=4)
    for x in rng.normal(1, 2, (40, 3)):
        assert predict(a, vec(x)) == predict(b, vec(x * 17.0))


def test_svm_decision_values_match_serialized_model():
    import json

    rng = np.random.default_rng(41)
    ds = blobs(rng, [[0, 0], [4, 0], [0, 4]], per_class=25)
    model = train_svm(ds, epochs=60, seed=2)
    body = json.loads(dumps_feature_model(model).split("\n", 1)[1])
    W = np.asarray(body["params"]["W"])
    b = np.asarray(body["params"]["b"])
    mean = np.asarray(body["params"]["mean"])
    std = np.asarray(body["params"]["std"])
    for x in rng.normal(1, 2, (20, 2)):
        by_hand = W @ ((x - mean) / std) + b
        assert np.array_equal(by_hand, svm_decision_values(model, x))


def test_svm_single_label_rejected():
    ds = dataset([[0.0], [1.0]], ["A", "A"])
    with pytest.raises(TrainingError):
        train_svm(ds)


# ------------------------------------------------------------------ uniform api

def _all_models(rng):
    ds = blobs(rng, [[0, 0, 0], [3, 3, 0], [0, 5, 2]], per_class=20)
    return ds, [
        train_nb(ds),
        train_knn(ds, 3),
        train_dt(ds, max_depth=6),
        train_rf(ds, n_trees=9, seed=3),
        train_svm(ds, epochs=40, seed=3),
    ]


def test_predict_rejects_schema_mismatch():
    rng = np.random.default_rng(43)
    _, models = _all_models(rng)
    wrong = FeatureVector(np.zeros(3), tuple(("g", f"c{i}") for i in range(3)))
    for model in models:
        with pytest.raises(ConfigError):
            predict(model, wrong)


def test_predict_deterministic():
    rng = np.random.default_rng(44)
    _, models = _all_models(rng)
    x = vec(rng.normal(1, 2, 3))
    for model in models:
        assert predict(model, x) == predict(model, x)


def test_serialization_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(45)
    _, models = _all_models(rng)
    pts = rng.normal(1, 2, (25, 3))
    for model in models:
        path = tmp_path / f"{model.kind}.model"
        save_feature_model(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith(f"MODEL v1 kind={model.kind}\n")
        back = load_feature_model(path)
        assert back.labels == model.labels
        assert back.schema == model.schema
        for x in pts:
            assert predict(back, vec(x)) == predict(model, vec(x))
        if model.kind == "naive_bayes":
            for x in pts:
                assert np.array_equal(nb_log_posterior(back, x), nb_log_posterior(model, x))
        if model.kind == "svm":
            for x in pts:
                assert np.array_equal(svm_decision_values(back, x), svm_decision_values(model, x))


def test_loads_feature_model_errors():
    with pytest.raises(ParseError):
        loads_feature_model("garbage\n{}")
    with pytest.raises(ParseError):
        loads_feature_model("MODEL v1 kind=perceptron\n{}")
    with pytest.raises(ParseError):
        loads_feature_model("MODEL v1 kind=knn\nnot-json")
    for body in ("{}", '{"labels": [], "schema": [], "params": []}', "[]"):
        with pytest.raises(ParseError) as e:
            loads_feature_model("MODEL v1 kind=knn\n" + body)
        assert e.value.line == 2


def _refit(model, **changes):
    """model's text with some of its body (labels, schema) or params replaced."""
    body = json.loads(dumps_feature_model(model).split("\n", 1)[1])
    for key, value in changes.items():
        (body if key in ("labels", "schema") else body["params"])[key] = value
    return f"MODEL v1 kind={model.kind}\n" + json.dumps(body)


def _misfits():
    """(model text, what the ParseError says) for params that do not fit
    the model's schema of 3 features and its 3 labels."""
    ds, (nb, knn, dt, rf, svm) = _all_models(np.random.default_rng(48))
    n = len(ds.labels)
    return [
        (_refit(knn, X=[[1.0, 2.0]]), "param X has shape 1x2, expected nx3"),
        (_refit(knn, mean=[0.0, 0.0]), "param mean has shape 2, expected 3"),
        (_refit(knn, std=5.0), "param std has shape scalar, expected 3"),
        (_refit(knn, row_labels=knn.params["row_labels"][:-1]), "row_labels"),
        (_refit(knn, row_labels=["nope"] * n), "row_labels"),
        (_refit(knn, k=0), "param k"),
        (_refit(knn, k=n + 1), "param k"),
        (_refit(knn, k=3.0), "param k"),
        (_refit(knn, schema=[["f", "c0"]]), "param mean has shape 3, expected 1"),
        (_refit(nb, log_prior=[0.0]), "param log_prior has shape 1, expected 3"),
        (_refit(nb, mean=[[0.0, 0.0, 0.0]]), "param mean has shape 1x3, expected 3x3"),
        (_refit(nb, var=[[1.0, 1.0], [1.0, 1.0]]), "param var has shape 2x2, expected 3x3"),
        (_refit(nb, labels=["a", "b", "c", "d"]), "param log_prior has shape 3, expected 4"),
        (_refit(nb, labels=[]), "labels"),
        (_refit(nb, labels=[1, 2]), "labels"),
        (_refit(svm, W=[[0.0, 0.0, 0.0]]), "param W has shape 1x3, expected 3x3"),
        (_refit(svm, b=[0.0, 0.0]), "param b has shape 2, expected 3"),
        (_refit(svm, mean=[[0.0, 0.0, 0.0]]), "param mean has shape 1x3, expected 3"),
        (_refit(dt, tree={}), "tree nodes"),
        (_refit(dt, tree={"leaf": "nope"}), "tree nodes"),
        (_refit(dt, tree={"feature": 3, "threshold": 0.0, "left": {"leaf": "class0"},
                          "right": {"leaf": "class1"}}), "tree nodes"),
        (_refit(dt, tree={"feature": 0, "threshold": "0", "left": {"leaf": "class0"},
                          "right": {"leaf": "class1"}}), "tree nodes"),
        (_refit(dt, tree={"feature": 0, "threshold": 0.0, "left": {"leaf": "class0"}}),
         "tree nodes"),
        (_refit(rf, trees=[]), "param trees"),
        (_refit(svm, window_size=6.5), "param window_size"),
        (_refit(svm, window_size="64"), "param window_size"),
        (_refit(svm, window_size=1), "param window_size"),
        (_refit(svm, sample_rate_hz=0.0), "param sample_rate_hz"),
        (_refit(svm, sample_rate_hz="50"), "param sample_rate_hz"),
        (_refit(rf, trees=[{"leaf": "class0"}, [1]]), "tree nodes"),
    ]


def test_loads_feature_model_rejects_misfit_params():
    for text, message in _misfits():
        with pytest.raises(ParseError) as e:
            loads_feature_model(text, "m.model")
        assert e.value.line == 2
        assert str(e.value).startswith("m.model: line 2: ")
        assert message in str(e.value)


def test_one_nn_self_test_accuracy():
    rng = np.random.default_rng(46)
    ds = blobs(rng, [[0, 0], [1, 3], [4, 1]], per_class=30)
    model = train_knn(ds, k=1)
    acc = np.mean([predict(model, vec(x)) == lbl for x, lbl in zip(ds.X, ds.labels)])
    assert acc == 1.0
