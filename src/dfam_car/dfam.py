"""Dominant-frequency signature extraction, matching and classification.

A signature is, per sensor axis, the tuple of DFT bin indices holding the
maximal magnitude inside each configured frequency band. Matching is exact
per axis: an axis counts as matched only when its whole tuple is equal, and
a test window scores (c/s)**s against a training instance that matches on
c of its s axes. Classification sums scores per label and takes the argmax.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AlignmentError, ConfigError, ParseError, TrainingError
from .signals import CHANNEL_BY_KEY, Channel, Spectrum, read_utf8

LOCOMOTION = ("standing", "walking", "climbing_stairs", "descending_stairs", "sitting", "running")
DISTRACTION = ("using_smartphone", "reading", "eating", "drinking")
MOVING = frozenset({"walking", "climbing_stairs", "descending_stairs", "running"})


@dataclass(frozen=True)
class ActivityLabel:
    """A simple locomotion activity, optionally combined with a distraction."""

    locomotion: str
    distraction: str | None = None

    def __post_init__(self):
        if self.locomotion not in LOCOMOTION:
            raise ConfigError(f"unknown locomotion activity {self.locomotion!r}")
        if self.distraction is not None and self.distraction not in DISTRACTION:
            raise ConfigError(f"unknown distraction activity {self.distraction!r}")

    @property
    def is_moving(self) -> bool:
        return self.locomotion in MOVING

    def __str__(self) -> str:
        if self.distraction is None:
            return self.locomotion
        return f"{self.locomotion}+{self.distraction}"

    @classmethod
    def parse(cls, text: str) -> "ActivityLabel":
        parts = text.split("+")
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        raise ConfigError(f"cannot parse activity label {text!r}")


@dataclass(frozen=True)
class BinLayout:
    """Partition of (0, fs/2] into g frequency bands.

    boundaries holds the g-1 interior band edges; band i covers
    (boundaries[i-1], boundaries[i]] with 0 and fs/2 as outer edges.
    """

    g: int
    boundaries: tuple[float, ...]
    sample_rate_hz: float

    def __post_init__(self):
        if self.g < 1:
            raise ConfigError(f"g must be >= 1, got {self.g}")
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise ConfigError("sample_rate_hz must be positive and finite")
        bounds = tuple(float(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bounds)
        if len(bounds) != self.g - 1:
            raise ConfigError(f"expected {self.g - 1} boundaries, got {len(bounds)}")
        nyq = self.sample_rate_hz / 2.0
        prev = 0.0
        for b in bounds:
            if not (prev < b < nyq):
                raise ConfigError(
                    f"boundaries must be strictly increasing inside (0, {nyq}), got {bounds}"
                )
            prev = b

    @classmethod
    def equal_width(cls, g: int, sample_rate_hz: float) -> "BinLayout":
        nyq = sample_rate_hz / 2.0
        bounds = tuple(nyq * i / g for i in range(1, g))
        return cls(g, bounds, sample_rate_hz)

    def band_index_ranges(self, window_size: int) -> tuple[tuple[int, int], ...]:
        """Inclusive DFT index ranges per band; the DC bin is never included.

        Not cached: per-window callers go through _band_gather, which is.
        """
        nyq = self.sample_rate_hz / 2.0
        if not math.isfinite(nyq * window_size / self.sample_rate_hz):  # nyq is the top edge
            raise ConfigError(f"sample rate {self.sample_rate_hz} Hz is too large to compute"
                              f" DFT bins at window size {window_size}")
        edges = (0.0,) + self.boundaries + (nyq,)
        ranges = []
        for i in range(self.g):
            lo, hi = edges[i], edges[i + 1]
            k_lo = int(np.floor(lo * window_size / self.sample_rate_hz)) + 1
            k_hi = min(int(np.floor(hi * window_size / self.sample_rate_hz)), window_size // 2)
            if k_lo > k_hi:
                raise ConfigError(
                    f"band ({lo}, {hi}] Hz holds no DFT bin at window size {window_size}"
                )
            ranges.append((k_lo, k_hi))
        return tuple(ranges)


@dataclass(frozen=True)
class Signature:
    """Per-axis tuples of dominant DFT bin indices, one index per band.

    The indices are Python ints, as every caller passes them.
    """

    axes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        axes = tuple(map(tuple, self.axes))
        object.__setattr__(self, "axes", axes)
        if not axes:
            raise ConfigError("signature needs at least one axis")
        g = len(axes[0])
        if g < 1 or set(map(len, axes)) != {g}:
            raise ConfigError("all axis tuples must have the same positive length")

    @property
    def s(self) -> int:
        return len(self.axes)

    @property
    def g(self) -> int:
        return len(self.axes[0])


@functools.lru_cache(maxsize=256)
def _band_gather(layout: BinLayout, window_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The (g, widest band) bin indices of each band, a narrower band's row
    padded with its own first bin, and each band's first bin.

    A padding position repeats the value at the row's first position, so the
    first maximum of a row never lies in the padding. Cached per (layout,
    window size): every window of a run asks again.
    """
    ranges = layout.band_index_ranges(window_size)
    width = max(hi - lo for lo, hi in ranges) + 1
    gather = np.array([[lo + j if lo + j <= hi else lo for j in range(width)] for lo, hi in ranges])
    gather.setflags(write=False)
    return gather, gather[:, 0]


def extract_signature(spectra: Sequence[Spectrum], layout: BinLayout) -> Signature:
    """Per axis and band, the index of the maximal magnitude (ties go low)."""
    if not spectra:
        raise AlignmentError("no spectra given")
    first = spectra[0]
    n_bins, width = len(first.bin_magnitudes), first.bin_width_hz
    rows = []
    for sp in spectra:
        row = sp.bin_magnitudes
        if len(row) != n_bins or sp.bin_width_hz != width:
            raise AlignmentError("spectra disagree on window size or sample rate")
        rows.append(row)
    window_size = 2 * (n_bins - 1)
    if abs(width * window_size - layout.sample_rate_hz) > 1e-9:
        raise ConfigError(
            f"layout sample rate {layout.sample_rate_hz} does not match spectra "
            f"({first.sample_rate_hz})"
        )
    gather, lo = _band_gather(layout, window_size)
    # one (axes, g, widest band) gather; argmax returns the first maximum,
    # so ties go to the lowest bin
    return Signature((np.array(rows).take(gather, axis=1).argmax(axis=2) + lo).tolist())


def match_score(test: Signature, train: Signature) -> float:
    """(c/s)**s where c counts axes whose whole tuples are equal."""
    if test.s != train.s or test.g != train.g:
        raise AlignmentError(
            f"signature shapes differ: {test.s}x{test.g} vs {train.s}x{train.g}"
        )
    c = sum(1 for a, b in zip(test.axes, train.axes) if a == b)
    return float((c / test.s) ** test.s)


@dataclass(frozen=True, eq=False)
class DfamModel:
    """Immutable trained store of (label, signature) instances.

    Axis tuples are interned to small integer codes at construction, and
    each axis's codes are indexed as postings, so that classification only
    counts how often each instance appears in the postings of the test's
    tuples. channels, when known, names the signal channel behind each
    signature axis, in canonical order.
    """

    kind: ClassVar[str] = "dfam"  # row of classifiers.MODEL_KINDS, as FeatureModel.kind
    layout: BinLayout
    window_size: int
    instances: tuple[tuple[str, Signature], ...]
    channels: tuple[Channel, ...] | None = None

    def __post_init__(self):
        if not self.instances:
            raise TrainingError("model has no training instances")
        s = self.instances[0][1].s
        g = self.instances[0][1].g
        if g != self.layout.g:
            raise ConfigError(f"signatures have g={g} but layout has g={self.layout.g}")
        for _, sig in self.instances:
            if sig.s != s or sig.g != g:
                raise AlignmentError("training signatures disagree in shape")
        if self.channels is not None:
            channels = tuple(self.channels)
            if len(channels) != s or list(channels) != sorted(set(channels)):
                raise AlignmentError(
                    f"model channels must be {s} distinct channels in canonical order"
                )
            object.__setattr__(self, "channels", channels)
        labels = tuple(sorted({lbl for lbl, _ in self.instances}))
        label_pos = {lbl: i for i, lbl in enumerate(labels)}
        label_idx = np.array([label_pos[lbl] for lbl, _ in self.instances], dtype=np.intp)
        counts = np.bincount(label_idx, minlength=len(labels)).tolist()
        # axis tuples -> codes in first-seen order, walking instances then axes
        flat = [axis for _, sig in self.instances for axis in sig.axes]
        intern = {axis: code for code, axis in enumerate(dict.fromkeys(flat))}
        codes = np.fromiter(map(intern.__getitem__, flat), dtype=np.intp, count=len(flat))
        # postings in CSR form: key k * len(intern) + code lists, in ascending
        # order, the instances holding that code on axis k, at
        # _post_ids[_post_offsets[key] : _post_offsets[key + 1]]
        n = len(self.instances)
        keys = (codes.reshape(n, s) + np.arange(s) * len(intern)).T.ravel()  # axis-major
        post_ids = np.argsort(keys, kind="stable") % n
        post_offsets = np.zeros(s * len(intern) + 1, dtype=np.int32)
        np.cumsum(np.bincount(keys, minlength=s * len(intern)), out=post_offsets[1:])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_counts", dict(zip(labels, counts)))
        object.__setattr__(self, "_intern", intern)
        object.__setattr__(self, "_post_ids", post_ids)
        object.__setattr__(self, "_post_offsets", post_offsets)
        object.__setattr__(self, "_label_idx", label_idx)
        # (c/s)**s for c = 0..s matched axes: the np.power classify used to
        # run per instance, on the same doubles, so scores are bitwise equal
        object.__setattr__(self, "_score_table", np.power(np.arange(s + 1) / s, s))

    @property
    def axes(self) -> int:
        return self.instances[0][1].s


class ClassificationResult(NamedTuple):
    label: str
    scores: dict[str, float]
    no_match: bool


def classify(test: Signature, model: DfamModel) -> ClassificationResult:
    """Argmax over labels of the summed per-instance match scores.

    Ties (including the all-zero no-match case) resolve to the first label
    in canonical (sorted) order; no_match flags the all-zero case.
    """
    s = model.axes
    if test.s != s or test.g != model.layout.g:
        raise AlignmentError(
            f"test signature is {test.s}x{test.g}, model expects {s}x{model.layout.g}"
        )
    intern, ids = model._intern, model._post_ids
    offsets = memoryview(model._post_offsets)  # indexes to Python ints
    # each axis's posting of its test tuple, for the tuples the model holds;
    # an instance appears once per matched axis
    hits = []
    base = 0
    for axis in test.axes:
        code = intern.get(axis)
        if code is not None:
            hits.append(ids[offsets[base + code] : offsets[base + code + 1]])
        base += len(intern)
    n = len(model._label_idx)
    matched = np.bincount(np.concatenate(hits), minlength=n) if hits else np.zeros(n, np.intp)
    totals = np.bincount(
        model._label_idx, weights=model._score_table[matched], minlength=len(model.labels)
    ).tolist()
    best = totals.index(max(totals))  # the first maximum, as np.argmax
    scores = dict(zip(model.labels, totals))
    return ClassificationResult(model.labels[best], scores, totals[best] == 0.0)


def train_from_signatures(
    pairs: Iterable[tuple[object, Signature]],
    layout: BinLayout,
    window_size: int,
    seed: int = 0,
    channels: Sequence[Channel] | None = None,
) -> DfamModel:
    """Build a model from labeled signatures, equalizing class counts.

    Every class is downsampled uniformly at random (seeded) to the smallest
    class count. Instances are stored in canonical (label, signature) order,
    so the result does not depend on input ordering. channels, if given,
    names the channel of each signature axis and is stored in the model.
    """
    by_label: dict[str, list[Signature]] = {}
    for label, sig in pairs:
        by_label.setdefault(str(label), []).append(sig)
    if not by_label:
        raise TrainingError("empty training dataset")
    for sigs in by_label.values():
        sigs.sort(key=lambda sg: sg.axes)
    min_count = min(len(v) for v in by_label.values())
    rng = np.random.default_rng(seed)
    kept: list[tuple[str, Signature]] = []
    for label in sorted(by_label):
        sigs = by_label[label]
        if len(sigs) > min_count:
            idx = np.sort(rng.choice(len(sigs), size=min_count, replace=False))
            sigs = [sigs[i] for i in idx]
        kept.extend((label, sig) for sig in sigs)
    return DfamModel(layout, window_size, tuple(kept), channels)


def dumps_model(model: DfamModel) -> str:
    """Line-oriented text form; round-trips losslessly.

    A model that knows its channels is written as DFAM v2, whose header ends
    in channels=<key>,...; one that does not is written as DFAM v1.
    """
    bounds = ",".join(repr(b) for b in model.layout.boundaries)
    header = (
        f"W={model.window_size} fs={model.layout.sample_rate_hz!r} "
        f"g={model.layout.g} axes={model.axes} bounds={bounds}"
    )
    if model.channels is None:
        header = f"DFAM v1 {header}"
    else:
        header = f"DFAM v2 {header} channels={','.join(ch.key for ch in model.channels)}"
    lines = [header]
    for label, sig in model.instances:
        body = "|".join(":".join(str(k) for k in axis) for axis in sig.axes)
        lines.append(f"{label};{body}")
    return "\n".join(lines) + "\n"


# header words: DFAM, the version, then W fs g axes bounds and, in v2, channels
_HEADER_WORDS = {("DFAM", "v1"): 7, ("DFAM", "v2"): 8}


def loads_model(text: str, path=None) -> DfamModel:
    """Parse dumps_model's text form (v1 or v2); path, if given, is named in
    every ParseError."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty model file", 1, path)
    header = lines[0].split()
    bad_header = ParseError(f"bad model header {lines[0]!r}", 1, path)
    if len(header) != _HEADER_WORDS.get(tuple(header[:2])):
        raise bad_header
    try:
        fields = dict(part.split("=", 1) for part in header[2:])
        window_size = int(fields["W"])
        fs = float(fields["fs"])
        g = int(fields["g"])
        axes = int(fields["axes"])
        bounds = tuple(float(b) for b in fields["bounds"].split(",")) if fields["bounds"] else ()
        channels = None
        if header[1] == "v2":
            channels = tuple(CHANNEL_BY_KEY[key] for key in fields["channels"].split(","))
    except (KeyError, ValueError):
        raise bad_header from None
    if window_size < 2 or window_size & (window_size - 1):
        raise ParseError(f"window size {window_size} is not a power of two", 1, path)
    try:
        layout = BinLayout(g, bounds, fs)
        layout.band_index_ranges(window_size)
    except (ConfigError, OverflowError) as exc:
        raise ParseError(str(exc), 1, path) from None
    instances = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            label, body = line.split(";", 1)
            sig = Signature(
                tuple(tuple(int(k) for k in axis.split(":")) for axis in body.split("|"))
            )
        except (ValueError, ConfigError):
            raise ParseError(f"bad instance line {line!r}", lineno, path) from None
        if sig.s != axes or sig.g != g:
            raise ParseError(f"instance shape {sig.s}x{sig.g} does not match header", lineno, path)
        instances.append((label, sig))
    if not instances:
        raise ParseError("model has no training instances", 2, path)
    try:
        return DfamModel(layout, window_size, tuple(instances), channels)
    except AlignmentError as exc:  # the header's channels do not fit its axes
        raise ParseError(str(exc), 1, path) from None


def save_model(model: DfamModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(model))


def load_model(path) -> DfamModel:
    return loads_model(read_utf8(path), path)
