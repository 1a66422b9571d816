from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dfam_car.errors import ConfigError
from dfam_car.evaluate import (
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
