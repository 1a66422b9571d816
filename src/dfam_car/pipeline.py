"""Glue between corpora on disk, window bundles and trained models."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import classifiers, dfam
from .dfam import ActivityLabel, BinLayout
from .errors import AlignmentError, ConfigError, DataQualityError, ParseError
from .evaluate import Instance
from .features import extract_features
from .hierarchy import (
    DISTRACTED_LABEL,
    MOVING_LABEL,
    NOT_DISTRACTED_LABEL,
    NOT_MOVING_LABEL,
)
from .signals import (
    DEFAULT_CUTOFF_HZ,
    DEVICES,
    SENSORS,
    Channel,
    Spectrum,
    TimeSeries,
    Window,
    csv_rows,
    low_pass_filter,
    read_recording,
    spectrum,
    window_bundles,
)
from .synth import LABEL_FIELDS, Recording


def load_corpus(
    corpus_dir, sample_rate_hz: float = 50.0, sensors: Sequence[str] = SENSORS
) -> list[Recording]:
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
        series = read_recording(path, sample_rate_hz, sensors)
        recordings.append(Recording(rec_id, participant, label, placement, series))
    return recordings


def prepare_bundles(
    series_by_channel: Mapping[Channel, TimeSeries],
    window_size: int,
    cutoff_hz: float | None = DEFAULT_CUTOFF_HZ,
    sensors: Sequence[str] = SENSORS,
    devices: Sequence[str] = DEVICES,
) -> list[dict[Channel, Window]]:
    """Low-pass filter (optional), then segment and align all channels."""
    selected = _select(series_by_channel, sensors, devices)
    if cutoff_hz is not None:
        selected = {ch: low_pass_filter(s, cutoff_hz) for ch, s in selected.items()}
    return window_bundles(selected, window_size)


def _select(series_by_channel, sensors, devices) -> dict:
    return {
        ch: s
        for ch, s in series_by_channel.items()
        if ch.sensor in sensors and ch.device in devices
    }


def corpus_channels(
    recordings: Sequence[Recording],
    sensors: Sequence[str] = SENSORS,
    devices: Sequence[str] = DEVICES,
) -> tuple[Channel, ...]:
    """The channels instances_for windows, in canonical order; the recordings
    must all have the same ones."""
    found = {tuple(sorted(_select(rec.series, sensors, devices))) for rec in recordings}
    if len(found) > 1:
        raise AlignmentError("recordings carry different channels")
    return found.pop() if found else ()


def model_series(
    series_by_channel: Mapping[Channel, TimeSeries], channels: Sequence[Channel]
) -> dict[Channel, TimeSeries]:
    """The series of exactly the channels a model was trained on."""
    missing = [ch.key for ch in channels if ch not in series_by_channel]
    if missing:
        raise ConfigError(
            f"the model reads channels {','.join(missing)}, which the recording "
            "lacks or --sensors leaves out"
        )
    return {ch: series_by_channel[ch] for ch in channels}


def bundle_spectra(
    bundle: Mapping[Channel, Window], sample_rate_hz: float
) -> list[Spectrum]:
    """Per-axis spectra in canonical channel order."""
    return [spectrum(bundle[ch], sample_rate_hz) for ch in sorted(bundle)]


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
    sensors: Sequence[str] = SENSORS,
    cutoff_hz: float | None = DEFAULT_CUTOFF_HZ,
    devices: Sequence[str] = DEVICES,
) -> list[Instance]:
    out = []
    for rec in recordings:
        fs = next(iter(rec.series.values())).sample_rate_hz
        for bundle in prepare_bundles(rec.series, window_size, cutoff_hz, sensors, devices):
            try:
                payload = window_payload(spec.kind, bundle, fs, layout)
            except DataQualityError as exc:
                raise DataQualityError(f"{rec.recording_id}: {exc}") from None
            out.append(Instance(str(rec.label), payload, rec.participant_id, rec.recording_id))
    return out


def signature_instances(
    recordings: Sequence[Recording],
    window_size: int,
    layout: BinLayout,
    sensors: Sequence[str] = SENSORS,
    cutoff_hz: float | None = DEFAULT_CUTOFF_HZ,
    devices: Sequence[str] = DEVICES,
) -> list[Instance]:
    return instances_for(
        ModelSpec.parse("dfam"), recordings, window_size, layout, sensors, cutoff_hz, devices
    )


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
