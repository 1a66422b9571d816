"""Glue between corpora on disk, window bundles and trained models."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import classifiers, dfam
from .dfam import ActivityLabel, BinLayout
from .errors import AlignmentError, ConfigError, DataQualityError, NotEnoughDataError, ParseError
from .evaluate import Instance
from .features import extract_features
from .hierarchy import (
    DISTRACTED_LABEL,
    MOVING_LABEL,
    NOT_DISTRACTED_LABEL,
    NOT_MOVING_LABEL,
    DistractionEvent,
    HierarchicalCar,
)
from .signals import (
    DEFAULT_CUTOFF_HZ,
    DEVICES,
    Channel,
    Spectrum,
    TimeSeries,
    Window,
    all_channels,
    csv_rows,
    low_pass_filter,
    read_recording,
    spectrum,
    window_bundles,
)
from .synth import LABEL_FIELDS, Recording


def load_corpus(corpus_dir) -> list[Recording]:
    """Read labels.csv plus one CSV per recording from a corpus directory.

    Each recording_id is listed once and names a file <id>.csv in the directory.
    """
    root = Path(corpus_dir)
    labels_path = root / "labels.csv"
    if not labels_path.exists():
        raise ParseError(f"missing labels file {labels_path}")
    recordings = []
    seen: set[str] = set()
    for lineno, (rec_id, participant, label_text, placement) in csv_rows(labels_path, LABEL_FIELDS):
        path = root / f"{rec_id}.csv"
        # the id names a file directly in root (an absolute path holds a separator)
        if rec_id == ".." or "/" in rec_id or "\\" in rec_id or not path.is_file():
            raise ParseError(f"no recording file for {rec_id!r} in the corpus", lineno, labels_path)
        if rec_id in seen:
            raise ParseError(f"recording_id {rec_id!r} is listed twice", lineno, labels_path)
        seen.add(rec_id)
        try:
            label = ActivityLabel.parse(label_text)
        except ConfigError as exc:
            raise ParseError(str(exc), lineno, labels_path) from None
        series = read_recording(path)
        recordings.append(Recording(rec_id, participant, label, placement, series))
    return recordings


def prepare_bundles(
    series_by_channel: Mapping[Channel, TimeSeries],
    window_size: int,
    cutoff_hz: float = DEFAULT_CUTOFF_HZ,
) -> list[dict[Channel, Window]]:
    """Low-pass filter every given channel, then segment and align them."""
    return window_bundles({ch: low_pass_filter(s, cutoff_hz) for ch, s in
                           series_by_channel.items()}, window_size)


@contextmanager
def naming(recording):
    """Prefix the recording's name to an error its samples raise inside."""
    try:
        yield
    except (AlignmentError, DataQualityError, NotEnoughDataError) as exc:
        raise type(exc)(f"{recording}: {exc}") from None


RATE_TOLERANCE = 2  # samples a stream may gain or lose over its length against the reference


def model_series(
    series_by_channel: Mapping[Channel, TimeSeries], channels: Sequence[Channel] | None,
    sample_rate_hz: float,
) -> dict[Channel, TimeSeries]:
    """The series of exactly the channels a model reads (all of them for None: a
    DFAM v1 model, which records no channels), each at the given rate."""
    channels = sorted(series_by_channel) if channels is None else channels
    missing = [ch.key for ch in channels if ch not in series_by_channel]
    if missing:
        raise AlignmentError(
            f"the model reads channels {','.join(missing)}, which the recording lacks")
    out = {ch: series_by_channel[ch] for ch in channels}
    for ch, s in out.items():
        if abs(s.sample_rate_hz - sample_rate_hz) * len(s) > RATE_TOLERANCE * s.sample_rate_hz:
            raise DataQualityError(f"the {ch.device}/{ch.sensor} stream is sampled at"
                                   f" {s.sample_rate_hz} Hz, not {sample_rate_hz} Hz")
    return out


def corpus_rate(recordings: Sequence[Recording]) -> float:
    """The rate of the corpus's median stream, which model_series checks every stream against."""
    rates = sorted((s.sample_rate_hz, r.recording_id) for r in recordings for s in r.series.values())
    rate, ref = rates[len(rates) // 2]
    for rec in recordings:
        with naming(f"{rec.recording_id} disagrees with {ref} on the sample rate"):
            model_series(rec.series, None, rate)
    return rate


def bundle_spectra(
    bundle: Mapping[Channel, Window], sample_rate_hz: float
) -> list[Spectrum]:
    """Per-axis spectra in canonical channel order."""
    return [spectrum(window, sample_rate_hz) for _, window in sorted(bundle.items())]


def window_payload(kind: classifiers.ModelKind, bundle, sample_rate_hz: float, layout):
    """One window as a model kind reads it: a DFAM signature or a feature vector."""
    if kind.signature:
        return dfam.extract_signature(bundle_spectra(bundle, sample_rate_hz), layout)
    return extract_features(bundle, sample_rate_hz)


# ------------------------------------------------------------- model wiring

@dataclass(frozen=True)
class ModelSpec:
    """Parsed --model flag: a row of classifiers.MODEL_KINDS, plus knn's k."""

    kind: classifiers.ModelKind
    k: int | None = None

    @classmethod
    def parse(cls, text: str) -> "ModelSpec":
        text = text.strip()
        for kind in classifiers.MODEL_KINDS:
            suffix = text[len(kind.name) :]
            if not text.startswith(kind.name) or (suffix and kind.k is None):
                continue
            try:
                return cls(kind, int(suffix) if suffix else kind.k)
            except ValueError:
                raise ConfigError(f"bad {kind.name} spec {text!r}") from None
        raise ConfigError(f"unknown model spec {text!r}")

    def __str__(self) -> str:
        return self.kind.name if self.k is None else f"{self.kind.name}{self.k}"


def trainer_for(
    spec: ModelSpec,
    layout: BinLayout,
    window_size: int,
    seed: int = 0,
    channels: Sequence[Channel] | None = None,
):
    """(train_fn, predict_fn) over instances carrying the spec's window payload.

    channels, when given, are the channels the instances were windowed from;
    a DFAM model stores them so that it is never applied to others.
    """

    def train_fn(instances: Sequence[Instance]):
        pairs = [(inst.label, inst.payload) for inst in instances]
        return spec.kind.train(pairs, layout, window_size, seed, spec.k, channels)

    def predict_fn(model, instance: Instance) -> str:
        return spec.kind.predict(model, instance.payload)[0]

    return train_fn, predict_fn


def instances_for(
    spec: ModelSpec,
    recordings: Sequence[Recording],
    window_size: int,
    layout: BinLayout,
    channels: Sequence[Channel],
) -> list[Instance]:
    """An instance per window of exactly the channels given."""
    out = []
    fs = layout.sample_rate_hz
    for rec in recordings:
        with naming(rec.recording_id):
            for bundle in prepare_bundles(model_series(rec.series, channels, fs), window_size):
                payload = window_payload(spec.kind, bundle, fs, layout)
                out.append(Instance(str(rec.label), payload, rec.participant_id, rec.recording_id))
    return out


def signature_instances(
    recordings: Sequence[Recording],
    window_size: int,
    layout: BinLayout,
    devices: Sequence[str] = DEVICES,
) -> list[Instance]:
    channels = all_channels(devices=devices)
    return instances_for(ModelSpec.parse("dfam"), recordings, window_size, layout, channels)


# --------------------------------------------------------- hierarchy helpers

def _relabel(instances: Sequence[Instance], label_of) -> list[Instance]:
    """Each instance under label_of(its ActivityLabel); None drops it."""
    out = []
    for inst in instances:
        label = label_of(ActivityLabel.parse(inst.label))
        if label is not None:
            out.append(replace(inst, label=label))
    return out


def relabel_moving(instances: Sequence[Instance]) -> list[Instance]:
    """Map activity labels to the binary moving/not-moving gate labels."""
    return _relabel(instances, lambda a: MOVING_LABEL if a.is_moving else NOT_MOVING_LABEL)


def relabel_distracted(instances: Sequence[Instance]) -> list[Instance]:
    """Map moving-window labels to binary distracted/not-distracted; drops
    windows whose locomotion is not a moving one."""
    return _relabel(instances, lambda a: None if not a.is_moving else (
        NOT_DISTRACTED_LABEL if a.distraction is None else DISTRACTED_LABEL))


def replay(
    series_by_channel: Mapping[Channel, TimeSeries], s1_model: dfam.DfamModel,
    s3_model: dfam.DfamModel, reset_period: int, in_use: Callable[[int], Mapping[int, bool]],
) -> Iterator[tuple[str, DistractionEvent | None]]:
    """Window the channels the S3 model reads (a v1 model, which records
    none: all) at its rate, call in_use(n) with the window count for each
    window index's smartphone-in-use flag (absent: False), and check that the
    S1 model reads none but those channels (a v1 model reads them all). The
    iterator returned then drives the S1/S2/S3 machine one window per step,
    yielding the state the window was processed in and its event or None."""
    fs = s3_model.layout.sample_rate_hz
    bundles = prepare_bundles(model_series(series_by_channel, s3_model.channels, fs),
                              s3_model.window_size)
    flags = in_use(len(bundles))
    channels = sorted(bundles[0])
    if not set(s1_model.channels or ()) <= set(channels):
        raise ConfigError(
            f"the S1 model reads channels {','.join(ch.key for ch in s1_model.channels)};"
            f" replay windows only the S3 model's {','.join(ch.key for ch in channels)}")
    s1_axes = None if s1_model.channels is None else [
        i for i, ch in enumerate(channels) if ch in s1_model.channels]
    machine = HierarchicalCar(s1_model, s3_model, reset_period, s1_axes)
    return ((machine.state.state, machine.process(bundle_spectra(bundle, fs), flags.get(i, False)))
            for i, bundle in enumerate(bundles))


# --------------------------------------------------------- model file dispatch

def load_any_model(path):
    """A DFAM or a feature model file, told apart by the first word of its header."""
    with open(path, "rb") as fh:
        first = fh.readline()
    if first.startswith(b"DFAM "):
        return dfam.load_model(path)
    if first.startswith(b"MODEL "):
        return classifiers.load_feature_model(path)
    text = first.decode("utf-8", errors="replace")
    raise ParseError(f"unrecognized model file header {text!r}", 1, path)
