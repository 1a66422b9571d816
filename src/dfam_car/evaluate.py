"""Cross-validation protocols and multi-averaging classification metrics.

Protocol runners are generic over the model: they take a train function
(instances -> model) and a predict function (model, instance -> label).
Instances are put into a canonical order before splitting, so reports are
invariant to input ordering for a fixed seed. A protocol only gives every
instance a group (a fold, a block or a participant); one held-out loop then
tests each group against a model trained on all the others.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError

TrainFn = Callable[[Sequence["Instance"]], Any]
PredictFn = Callable[[Any, "Instance"], str]


@dataclass(frozen=True)
class Instance:
    label: str
    payload: Any
    participant: str | None = None
    block: str | None = None


def _payload_key(payload):
    axes = getattr(payload, "axes", None)
    if axes is not None:
        return ("sig", axes)
    values = getattr(payload, "values", None)
    if values is not None:
        return ("vec", tuple(float(v) for v in values))
    return ("raw", repr(payload))


def _canonical(instances: Iterable[Instance]) -> list[Instance]:
    return sorted(
        instances,
        key=lambda i: (i.label, i.participant or "", i.block or "", _payload_key(i.payload)),
    )


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Rows are truth, columns are predictions."""

    labels: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        L = len(self.labels)
        if counts.shape != (L, L):
            raise ConfigError(f"counts must be {L}x{L}, got {counts.shape}")
        if (counts < 0).any():
            raise ConfigError("confusion counts must be non-negative")

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[str, str]], labels: Sequence[str] | None = None
    ) -> "ConfusionMatrix":
        if labels is None:
            labels = sorted({t for t, _ in pairs} | {p for _, p in pairs})
        labels = tuple(labels)
        pos = {lbl: i for i, lbl in enumerate(labels)}
        counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for truth, pred in pairs:
            counts[pos[truth], pos[pred]] += 1
        return cls(labels, counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)


AVERAGES = ("weighted", "micro", "macro")


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class Averages:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    confusion: ConfusionMatrix
    per_class: dict[str, ClassMetrics]
    averages: dict[str, Averages]

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy

    def to_dict(self) -> dict:
        return {
            "labels": list(self.confusion.labels),
            "confusion": self.confusion.counts.tolist(),
            "accuracy": self.accuracy,
            "per_class": {lbl: asdict(m) for lbl, m in self.per_class.items()},
            "averages": {name: asdict(a) for name, a in self.averages.items()},
        }


def _ratio(num, den):
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(num)), where=den > 0)


def _f1(p, r):
    return _ratio(2.0 * p * r, p + r)


def metrics(confusion: ConfusionMatrix) -> EvaluationReport:
    """Per-class precision/recall/F1 plus the AVERAGES of each.

    Classes with a zero denominator contribute 0 and still count in the
    macro denominator. Micro precision and recall are the accuracy: both are
    the diagonal's sum over the total, and integer counts sum exactly.
    """
    total = confusion.total
    if total < 1:
        raise ConfigError("cannot compute metrics for an empty confusion matrix")
    counts = confusion.counts
    tp = np.diag(counts)
    support = counts.sum(axis=1)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, support)
    measures = (precision, recall, _f1(precision, recall))
    per_class = dict(zip(confusion.labels,
                         map(ClassMetrics, *(m.tolist() for m in measures), support.tolist())))
    weights = support / total
    acc = confusion.accuracy
    averages = dict(zip(AVERAGES, (
        Averages(*(float(weights @ m) for m in measures)),
        Averages(acc, acc, float(_f1(acc, acc))),
        Averages(*(float(m.mean()) for m in measures)),
    )))
    return EvaluationReport(confusion, per_class, averages)


def _held_out(
    ordered: Sequence[Instance], groups: Sequence, train_fn: TrainFn, predict_fn: PredictFn
) -> dict:
    """The one protocol loop. groups[j] is the group of ordered[j]; for each group
    in sorted order, train on every other group's instances (in canonical order)
    and predict the group's. Returns group -> (truth, prediction) pairs."""
    rounds = {}
    for held in sorted(set(groups)):
        model = train_fn([inst for inst, g in zip(ordered, groups) if g != held])
        test = [inst for inst, g in zip(ordered, groups) if g == held]
        rounds[held] = [(inst.label, predict_fn(model, inst)) for inst in test]
    return rounds


def _report(ordered: Sequence[Instance], *rounds) -> EvaluationReport:
    """metrics over the pooled (truth, prediction) pairs of the given rounds."""
    pooled = [pair for group in rounds for pair in group]
    return metrics(ConfusionMatrix.from_pairs(pooled, sorted({i.label for i in ordered})))


def _id_groups(ordered: Sequence[Instance], field: str, runner: str, protocol: str) -> list:
    groups = [getattr(i, field) for i in ordered]
    if None in groups:
        raise ConfigError(f"{runner} requires every instance to carry a {field} id")
    if len(set(groups)) < 2:
        raise ConfigError(f"{protocol} needs at least 2 {field}s, got {len(set(groups))}")
    return groups


def loocv_blocks(
    instances: Sequence[Instance], train_fn: TrainFn, predict_fn: PredictFn
) -> EvaluationReport:
    """Leave-one-block-out: each block is tested once against a model
    trained on all other blocks; one pooled confusion matrix."""
    ordered = _canonical(instances)
    groups = _id_groups(ordered, "block", "loocv_blocks", "loocv")
    return _report(ordered, *_held_out(ordered, groups, train_fn, predict_fn).values())


def kfold_assignments(n_per_label: dict[str, int], k: int, seed: int) -> dict[str, list[int]]:
    """Stratified fold assignment: per (sorted) label, positions are shuffled
    and dealt round-robin continuing a global counter."""
    rng = np.random.default_rng(seed)
    out = {}
    counter = 0
    for label in sorted(n_per_label):
        perm = rng.permutation(n_per_label[label])
        assigned = [0] * n_per_label[label]
        for pos in perm:
            assigned[pos] = counter % k
            counter += 1
        out[label] = assigned
    return out


def kfold(
    instances: Sequence[Instance],
    train_fn: TrainFn,
    predict_fn: PredictFn,
    k: int = 10,
    seed: int = 0,
) -> EvaluationReport:
    """Seeded stratified k-fold; every instance is tested exactly once."""
    ordered = _canonical(instances)
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if len(ordered) < k:
        raise ConfigError(f"dataset of size {len(ordered)} is smaller than k={k}")
    assignment = kfold_assignments(Counter(i.label for i in ordered), k, seed)
    # canonical order sorts by label first, so each label's instances are one
    # run, in label order; with len >= k the round-robin deal fills all k folds
    folds = [fold for label in sorted(assignment) for fold in assignment[label]]
    return _report(ordered, *_held_out(ordered, folds, train_fn, predict_fn).values())


@dataclass(frozen=True, eq=False)
class LosoReport:
    per_participant: dict[str, EvaluationReport]
    pooled: EvaluationReport
    mean_accuracy: float


def loso(
    instances: Sequence[Instance], train_fn: TrainFn, predict_fn: PredictFn
) -> LosoReport:
    """Leave-one-subject-out over participant ids.

    Test instances whose label never occurs in training still count (as
    errors if mispredicted); the run completes regardless.
    """
    ordered = _canonical(instances)
    groups = _id_groups(ordered, "participant", "loso", "loso")
    rounds = _held_out(ordered, groups, train_fn, predict_fn)
    per_participant = {p: _report(ordered, pairs) for p, pairs in rounds.items()}
    pooled = _report(ordered, *rounds.values())
    mean_accuracy = float(np.mean([r.accuracy for r in per_participant.values()]))
    return LosoReport(per_participant, pooled, mean_accuracy)
