from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfam_car.errors import ConfigError
from dfam_car.evaluate import (
    AVERAGES,
    ConfusionMatrix,
    Instance,
    kfold,
    loocv_blocks,
    loso,
    metrics,
)


def lookup_train(instances):
    """Stub model: exact payload lookup with a canonical fallback."""
    table = {inst.payload: inst.label for inst in instances}
    fallback = min(table.values())
    return table, fallback


def lookup_predict(model, inst):
    table, fallback = model
    return table.get(inst.payload, fallback)


def test_metrics_perfect_diagonal():
    report = metrics(ConfusionMatrix(("a", "b", "c"), np.eye(3, dtype=int) * 4))
    assert report.accuracy == 1.0
    for avg in report.averages.values():
        assert avg.precision == avg.recall == avg.f1 == 1.0
    for m in report.per_class.values():
        assert m.precision == m.recall == m.f1 == 1.0


def test_metrics_two_class_hand_values():
    report = metrics(ConfusionMatrix(("a", "b"), np.array([[8, 2], [3, 7]])))
    assert report.accuracy == pytest.approx(0.75)
    assert report.per_class["a"].precision == pytest.approx(8 / 11)
    assert report.per_class["a"].recall == pytest.approx(0.8)
    assert report.averages["micro"].f1 == pytest.approx(report.accuracy, abs=1e-12)
    assert report.averages["weighted"].recall == pytest.approx(report.accuracy, abs=1e-12)


def test_metrics_single_class():
    report = metrics(ConfusionMatrix(("only",), np.array([[5]])))
    assert report.accuracy == 1.0
    for avg in report.averages.values():
        assert avg.precision == avg.recall == avg.f1 == 1.0


def test_metrics_zero_denominator_convention():
    # class b never occurs and is never predicted: contributes 0, still
    # counted in the macro denominator
    report = metrics(ConfusionMatrix(("a", "b"), np.array([[4, 0], [0, 0]])))
    assert report.per_class["b"].precision == 0.0
    assert report.per_class["b"].recall == 0.0
    assert report.averages["macro"].recall == pytest.approx(0.5)
    assert report.averages["weighted"].recall == pytest.approx(1.0)


def test_metrics_identities_random_matrices():
    rng = np.random.default_rng(50)
    for _ in range(100):
        n = rng.integers(2, 6)
        counts = rng.integers(0, 9, size=(n, n))
        if counts.sum() == 0:
            counts[0, 0] = 1
        report = metrics(ConfusionMatrix(tuple(f"l{i}" for i in range(n)), counts))
        acc = report.accuracy
        micro = report.averages["micro"]
        assert abs(micro.precision - acc) < 1e-12
        assert abs(micro.recall - acc) < 1e-12
        assert abs(micro.f1 - acc) < 1e-12
        assert abs(report.averages["weighted"].recall - acc) < 1e-12
        for m in report.per_class.values():
            assert 0.0 <= m.precision <= 1.0 and 0.0 <= m.recall <= 1.0


def test_metrics_empty_matrix():
    with pytest.raises(ConfigError):
        metrics(ConfusionMatrix(("a",), np.array([[0]])))
    with pytest.raises(ConfigError):
        ConfusionMatrix(("a", "b"), np.array([[1]]))


def test_loocv_identical_blocks():
    instances = [
        Instance("a", 1, block=b) for b in ("b1", "b2")
    ] + [Instance("b", 2, block=b) for b in ("b1", "b2")]
    report = loocv_blocks(instances, lookup_train, lookup_predict)
    assert report.accuracy == 1.0
    assert report.confusion.total == 4


def test_loocv_swapped_labels():
    instances = [
        Instance("a", 1, block="b1"),
        Instance("b", 2, block="b1"),
        Instance("b", 1, block="b2"),
        Instance("a", 2, block="b2"),
    ]
    report = loocv_blocks(instances, lookup_train, lookup_predict)
    assert report.accuracy == 0.0


def test_loocv_pooled_total_and_errors():
    rng = np.random.default_rng(51)
    instances = [
        Instance(f"l{rng.integers(2)}", int(i), block=f"b{i % 5}") for i in range(40)
    ]
    report = loocv_blocks(instances, lookup_train, lookup_predict)
    assert report.confusion.total == 40
    with pytest.raises(ConfigError):
        loocv_blocks([Instance("a", 1, block="only")], lookup_train, lookup_predict)
    with pytest.raises(ConfigError):
        loocv_blocks([Instance("a", 1), Instance("b", 2)], lookup_train, lookup_predict)


def test_kfold_every_instance_tested_once():
    instances = [Instance(f"l{i % 10}", i) for i in range(100)]
    tested = []

    def spy_predict(model, inst):
        tested.append(inst.payload)
        return lookup_predict(model, inst)

    sizes = []

    def spy_train(train_set):
        sizes.append(len(train_set))
        return lookup_train(train_set)

    report = kfold(instances, spy_train, spy_predict, k=10, seed=0)
    assert sorted(tested) == list(range(100))
    assert sizes == [90] * 10  # every fold holds exactly 10 instances
    assert report.confusion.total == 100


def test_kfold_deterministic_and_order_invariant():
    rng = np.random.default_rng(52)
    instances = [Instance(f"l{i % 3}", i) for i in range(30)]
    a = kfold(instances, lookup_train, lookup_predict, k=5, seed=7)
    b = kfold(instances, lookup_train, lookup_predict, k=5, seed=7)
    shuffled = list(instances)
    rng.shuffle(shuffled)
    c = kfold(shuffled, lookup_train, lookup_predict, k=5, seed=7)
    assert np.array_equal(a.confusion.counts, b.confusion.counts)
    assert np.array_equal(a.confusion.counts, c.confusion.counts)
    d = kfold(instances, lookup_train, lookup_predict, k=5, seed=8)
    assert d.confusion.total == 30


def test_kfold_k_equals_n_matches_instance_loocv():
    rng = np.random.default_rng(53)
    from dfam_car.classifiers import FeatureDataset, train_knn, predict as clf_predict
    from dfam_car.features import FeatureVector

    schema = (("f", "c0"), ("f", "c1"))
    instances = [
        Instance(
            f"l{i % 3}",
            FeatureVector(rng.normal(i % 3, 1.0, 2), schema),
            block=f"inst{i:02d}",
        )
        for i in range(12)
    ]

    def train_fn(train_set):
        return train_knn(
            FeatureDataset.from_vectors([(inst.label, inst.payload) for inst in train_set]),
            k=1,
        )

    def predict_fn(model, inst):
        return clf_predict(model, inst.payload)

    via_kfold = kfold(instances, train_fn, predict_fn, k=12, seed=0)
    via_loocv = loocv_blocks(instances, train_fn, predict_fn)
    assert via_kfold.confusion.labels == via_loocv.confusion.labels
    assert np.array_equal(via_kfold.confusion.counts, via_loocv.confusion.counts)


def test_kfold_size_errors():
    instances = [Instance("a", i) for i in range(3)]
    with pytest.raises(ConfigError):
        kfold(instances, lookup_train, lookup_predict, k=10)
    with pytest.raises(ConfigError):
        kfold(instances, lookup_train, lookup_predict, k=1)


def test_loso_identical_participants():
    instances = [
        Instance(lbl, payload, participant=p)
        for p in ("p0", "p1")
        for lbl, payload in (("a", 1), ("b", 2))
    ]
    report = loso(instances, lookup_train, lookup_predict)
    assert report.pooled.accuracy == 1.0
    assert set(report.per_participant) == {"p0", "p1"}


def test_loso_unseen_label_counts_as_error():
    instances = [
        Instance("a", 1, participant="p0"),
        Instance("b", 2, participant="p0"),
        Instance("c", 3, participant="p1"),  # label c never trained for p1's round
        Instance("a", 1, participant="p1"),
    ]
    report = loso(instances, lookup_train, lookup_predict)
    assert "c" in report.pooled.confusion.labels
    assert report.per_participant["p1"].accuracy == pytest.approx(0.5)


def test_loso_mean_accuracy_identity():
    rng = np.random.default_rng(54)
    instances = [
        Instance(f"l{rng.integers(3)}", int(rng.integers(5)), participant=f"p{i % 5}")
        for i in range(60)
    ]
    report = loso(instances, lookup_train, lookup_predict)
    mean = np.mean([r.accuracy for r in report.per_participant.values()])
    assert report.mean_accuracy == pytest.approx(mean, abs=1e-12)
    assert report.pooled.confusion.total == 60


def test_loso_errors():
    with pytest.raises(ConfigError):
        loso([Instance("a", 1, participant="p0")], lookup_train, lookup_predict)
    with pytest.raises(ConfigError):
        loso([Instance("a", 1), Instance("b", 2)], lookup_train, lookup_predict)


def test_report_to_dict():
    report = metrics(ConfusionMatrix(("a", "b"), np.array([[3, 1], [0, 4]])))
    d = report.to_dict()
    assert d["labels"] == ["a", "b"]
    assert d["confusion"] == [[3, 1], [0, 4]]
    assert set(d["averages"]) == {"weighted", "micro", "macro"}
    assert set(d) == {"labels", "confusion", "accuracy", "per_class", "averages"}
    assert list(d["per_class"]) == ["a", "b"]
    for entry in d["per_class"].values():
        assert set(entry) == {"precision", "recall", "f1", "support"}
    for entry in d["averages"].values():
        assert set(entry) == {"precision", "recall", "f1"}
    assert d["accuracy"] == 7 / 8
    assert d["per_class"]["b"]["support"] == 4 and d["per_class"]["b"]["precision"] == 0.8


def metrics_oracle(confusion):
    """The per-class loop metrics once ran, kept as its oracle: (accuracy,
    label -> (precision, recall, f1, support), average -> (precision,
    recall, f1)), micro from its own tp/fp/fn sums."""

    def safe_div(num, den):
        return float(num / den) if den > 0 else 0.0

    def f1(p, r):
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0

    counts = confusion.counts
    total = confusion.total
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    per_class = {}
    precisions, recalls, f1s = [], [], []
    for i, lbl in enumerate(confusion.labels):
        p = safe_div(tp[i], predicted[i])
        r = safe_div(tp[i], support[i])
        f = f1(p, r)
        per_class[lbl] = (p, r, f, int(support[i]))
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    precisions, recalls, f1s = np.array(precisions), np.array(recalls), np.array(f1s)
    weights = support / total
    micro_tp = tp.sum()
    micro_p = safe_div(micro_tp, micro_tp + (predicted.sum() - micro_tp))
    micro_r = safe_div(micro_tp, micro_tp + (support.sum() - micro_tp))
    averages = {
        "weighted": (float(weights @ precisions), float(weights @ recalls),
                     float(weights @ f1s)),
        "micro": (micro_p, micro_r, f1(micro_p, micro_r)),
        "macro": (float(precisions.mean()), float(recalls.mean()), float(f1s.mean())),
    }
    return float(np.trace(counts) / total), per_class, averages


def bits(values):
    """Each value's type and exact bits: a float and np.float64 of equal
    value differ here, as their repr in the report CSV does."""
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


@st.composite
def confusion_matrices(draw):
    """Non-empty confusion matrices with some rows (classes never true)
    and columns (classes never predicted) wholly zero."""
    n = draw(st.integers(1, 7))
    counts = np.array(draw(st.lists(st.integers(0, 60), min_size=n * n, max_size=n * n)),
                      dtype=np.int64).reshape(n, n)
    counts[draw(st.lists(st.integers(0, n - 1), max_size=n)), :] = 0
    counts[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0
    assume(counts.sum() > 0)
    return ConfusionMatrix(tuple(f"l{i}" for i in range(n)), counts)


@settings(max_examples=300, deadline=None)
@given(confusion_matrices())
def test_metrics_matches_the_per_class_loop_bit_for_bit(confusion):
    accuracy, per_class, averages = metrics_oracle(confusion)
    report = metrics(confusion)
    assert bits([report.accuracy]) == bits([accuracy])
    assert list(report.per_class) == list(per_class)
    for lbl, m in report.per_class.items():
        assert bits(astuple(m)) == bits(per_class[lbl])
    assert list(report.averages) == list(AVERAGES) == list(averages)
    for name, avg in report.averages.items():
        assert bits(astuple(avg)) == bits(averages[name])


def nearest_spy():
    """A train/predict pair that records every training list it is given.

    The model is the training list itself; a prediction is the label of the
    first training instance nearest in payload, so it depends on row order
    as random forest and kNN do."""
    calls = []

    def train_fn(instances):
        calls.append(list(instances))
        return calls[-1]

    def predict_fn(model, inst):
        return min(model, key=lambda m: abs(m.payload - inst.payload)).label

    return calls, train_fn, predict_fn


PROTOCOLS = {
    "kfold": lambda inst, t, p: kfold(inst, t, p, k=3, seed=5),
    "loocv": loocv_blocks,
    "loso": lambda inst, t, p: loso(inst, t, p).pooled,
}

instance_lists = st.lists(
    st.builds(
        Instance,
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 20),
        st.sampled_from(["p0", "p1", "p2"]),
        st.sampled_from(["b0", "b1", "b2", "b3"]),
    ),
    min_size=3,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(instance_lists, st.data())
def test_protocols_train_on_the_same_rows_in_the_same_order(instances, data):
    assume(len({i.participant for i in instances}) > 1 and len({i.block for i in instances}) > 1)
    shuffled = data.draw(st.permutations(instances))
    for protocol in PROTOCOLS.values():
        calls, train_fn, predict_fn = nearest_spy()
        report = protocol(instances, train_fn, predict_fn)
        shuffled_calls, train_fn, predict_fn = nearest_spy()
        shuffled_report = protocol(shuffled, train_fn, predict_fn)
        assert shuffled_calls == calls
        assert np.array_equal(shuffled_report.confusion.counts, report.confusion.counts)
        assert report.confusion.total == len(instances)


@settings(max_examples=100, deadline=None)
@given(instance_lists)
def test_loso_pools_like_loocv_over_participant_blocks(instances):
    assume(len({i.participant for i in instances}) > 1)
    _, train_fn, predict_fn = nearest_spy()
    pooled = loso(instances, train_fn, predict_fn).pooled.confusion
    by_participant = [replace(i, block=i.participant) for i in instances]
    _, train_fn, predict_fn = nearest_spy()
    blocks = loocv_blocks(by_participant, train_fn, predict_fn).confusion
    assert pooled.labels == blocks.labels
    assert np.array_equal(pooled.counts, blocks.counts)
