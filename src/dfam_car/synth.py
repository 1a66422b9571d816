"""Seeded synthetic multi-device IMU recordings for desk-scale verification.

Each (device, sensor) pair carries one base waveform, a sum of sinusoids
whose phases are redrawn per jitter block; the three axes are amplitude
weighted copies of that waveform plus independent Gaussian noise. Locomotion
components appear on phone and watch, distraction components overlay the
watch channels only (hand gesture). The default frequency bank is a
plausibility choice for separability testing, not a gait model: every
activity owns one fundamental plus two fixed overtones so that each third
of the spectrum has a deterministic dominant frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dfam import ActivityLabel
from .errors import ConfigError
from .signals import AXES, DEVICES, SENSORS, Channel, TimeSeries, write_recording

PLACEMENTS = ("RR", "LL", "RL", "LR")

# placement letter -> (x, y, z) amplitude weights; mirroring swaps x and y
AXIS_WEIGHTS = {"R": (1.0, 0.8, 0.65), "L": (0.8, 1.0, 0.65)}

# locomotion -> (base amplitude, (fundamental, overtone, overtone) in Hz)
LOCOMOTION_BANK = {
    "standing": (0.35, (0.45, 9.0, 17.3)),
    "sitting": (0.25, (0.75, 9.4, 17.8)),
    "walking": (1.0, (2.0, 10.9, 19.5)),
    "climbing_stairs": (1.05, (1.6, 9.9, 18.3)),
    "descending_stairs": (0.95, (1.8, 10.4, 18.9)),
    "running": (1.4, (3.0, 11.5, 20.2)),
}

# distraction -> (fundamental, overtone, overtone) in Hz; base amplitude 1.0
DISTRACTION_BANK = {
    "using_smartphone": (0.5, 12.1, 21.0),
    "reading": (0.3, 12.9, 21.7),
    "eating": (1.2, 13.4, 22.4),
    "drinking": (0.8, 13.9, 23.0),
}

COMPONENT_WEIGHTS = (1.0, 0.75, 0.6)
WATCH_LOCOMOTION_FACTOR = 0.35
GYR_FACTOR = 0.7

DEFAULT_JITTER_BLOCK = 128
DEFAULT_PHASE_JITTER_STD = 0.3


@dataclass(frozen=True)
class Component:
    frequency_hz: float
    amplitude: float
    phase_jitter_std: float = DEFAULT_PHASE_JITTER_STD


@dataclass(frozen=True, eq=False)
class ActivityProfile:
    label: ActivityLabel
    placement: str
    components: Mapping[tuple[str, str], tuple[Component, ...]]
    axis_weights: Mapping[tuple[str, str], tuple[float, float, float]]
    noise_std: float

    def __post_init__(self):
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"unknown placement {self.placement!r}, expected {PLACEMENTS}")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be non-negative")


def _stack(freqs, base_amp, phase_jitter_std):
    return tuple(
        Component(f, base_amp * w, phase_jitter_std)
        for f, w in zip(freqs, COMPONENT_WEIGHTS)
    )


def build_profile(
    label: ActivityLabel,
    placement: str = "RR",
    noise_std: float = 0.0,
    amplitude_scale: float = 1.0,
    phase_jitter_std: float = DEFAULT_PHASE_JITTER_STD,
) -> ActivityProfile:
    """Default profile: bank components routed to phone and watch channels."""
    if placement not in PLACEMENTS:
        raise ConfigError(f"unknown placement {placement!r}, expected one of {PLACEMENTS}")
    loco_amp, loco_freqs = LOCOMOTION_BANK[label.locomotion]
    loco_amp *= amplitude_scale
    components = {}
    axis_weights = {}
    watch_side, phone_side = placement[0], placement[1]
    for device in DEVICES:
        device_factor = 1.0 if device == "phone" else WATCH_LOCOMOTION_FACTOR
        comps = list(_stack(loco_freqs, loco_amp * device_factor, phase_jitter_std))
        if device == "watch" and label.distraction is not None:
            comps += list(
                _stack(DISTRACTION_BANK[label.distraction], amplitude_scale, phase_jitter_std)
            )
        side = watch_side if device == "watch" else phone_side
        for sensor in SENSORS:
            sensor_factor = 1.0 if sensor == "acc" else GYR_FACTOR
            components[(device, sensor)] = tuple(
                Component(c.frequency_hz, c.amplitude * sensor_factor, c.phase_jitter_std)
                for c in comps
            )
            axis_weights[(device, sensor)] = AXIS_WEIGHTS[side]
    return ActivityProfile(label, placement, components, axis_weights, noise_std)


def generate(
    profile: ActivityProfile,
    duration_s: float,
    sample_rate_hz: float = 50.0,
    seed=0,
    jitter_block: int = DEFAULT_JITTER_BLOCK,
) -> dict[Channel, TimeSeries]:
    """Render one recording (all channels), deterministic given the seed."""
    if duration_s <= 0:
        raise ConfigError("duration_s must be positive")
    nyquist = sample_rate_hz / 2.0
    for comps in profile.components.values():
        for c in comps:
            if c.frequency_hz >= nyquist:
                raise ConfigError(
                    f"component at {c.frequency_hz} Hz reaches the Nyquist limit {nyquist} Hz"
                )
    n = int(round(duration_s * sample_rate_hz))
    n_blocks = math.ceil(n / jitter_block)
    t = np.arange(n) / sample_rate_hz
    rng = np.random.default_rng(seed)
    out: dict[Channel, TimeSeries] = {}
    for device in DEVICES:
        for sensor in SENSORS:
            base = np.zeros(n)
            for comp in profile.components.get((device, sensor), ()):
                phi0 = rng.uniform(0.0, 2.0 * np.pi)
                jitters = rng.normal(0.0, comp.phase_jitter_std, n_blocks)
                phase = np.repeat(jitters, jitter_block)[:n]  # one jitter per block
                base += comp.amplitude * np.sin(2.0 * np.pi * comp.frequency_hz * t + phi0 + phase)
            weights = profile.axis_weights[(device, sensor)]
            for axis, w in zip(AXES, weights):
                noise = rng.normal(0.0, profile.noise_std, n)
                ch = Channel(device, sensor, axis)
                out[ch] = TimeSeries(ch, sample_rate_hz, w * base + noise)
    return out


# Table-style default activity set: the 6 simple activities plus 14
# concurrent ones (every moving locomotion paired with the distractions it
# was performed with, plus standing while using the smartphone).
_CONCURRENT = (
    ("walking", "using_smartphone"),
    ("walking", "reading"),
    ("walking", "eating"),
    ("walking", "drinking"),
    ("climbing_stairs", "eating"),
    ("climbing_stairs", "drinking"),
    ("climbing_stairs", "using_smartphone"),
    ("climbing_stairs", "reading"),
    ("descending_stairs", "eating"),
    ("descending_stairs", "using_smartphone"),
    ("descending_stairs", "reading"),
    ("descending_stairs", "drinking"),
    ("running", "using_smartphone"),
    ("standing", "using_smartphone"),
)


def default_activity_set() -> tuple[ActivityLabel, ...]:
    simple = tuple(ActivityLabel(loc) for loc in LOCOMOTION_BANK)
    concurrent = tuple(ActivityLabel(loc, dis) for loc, dis in _CONCURRENT)
    return simple + concurrent


LABEL_FIELDS = ("recording_id", "participant_id", "label", "placement")


@dataclass(frozen=True, eq=False)
class Recording:
    recording_id: str
    participant_id: str
    label: ActivityLabel
    placement: str
    series: dict[Channel, TimeSeries]


def make_corpus(
    participants: int = 5,
    activities: Sequence[ActivityLabel] | None = None,
    duration_s: float = 30.0,
    sample_rate_hz: float = 50.0,
    noise_std: float = 0.0,
    seed: int = 0,
    placements: Sequence[str] = PLACEMENTS,
    phase_jitter_std: float = DEFAULT_PHASE_JITTER_STD,
) -> list[Recording]:
    """One recording per (participant, activity); placements rotate per
    participant and participants differ by a small amplitude scale."""
    if participants < 1:
        raise ConfigError("participants must be >= 1")
    if activities is None:
        activities = default_activity_set()
    children = np.random.SeedSequence(seed).spawn(participants * len(activities))
    recordings = []
    i = 0
    for pi in range(participants):
        participant_id = f"p{pi:02d}"
        placement = placements[pi % len(placements)]
        scale = 1.0 + 0.06 * pi
        for label in activities:
            profile = build_profile(label, placement, noise_std, scale, phase_jitter_std)
            series = generate(profile, duration_s, sample_rate_hz, seed=children[i])
            recordings.append(
                Recording(f"{participant_id}_{label}_{placement}", participant_id, label, placement, series)
            )
            i += 1
    return recordings


def write_corpus(recordings: Sequence[Recording], out_dir) -> None:
    """Write one CSV per recording plus the labels.csv sidecar."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for rec in sorted(recordings, key=lambda r: r.recording_id):
        write_recording(out / f"{rec.recording_id}.csv", rec.series)
        rows.append((rec.recording_id, rec.participant_id, str(rec.label), rec.placement))
    with open(out / "labels.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(LABEL_FIELDS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
