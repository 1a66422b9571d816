"""Window-level time and frequency domain features for the baseline classifiers."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import AlignmentError, DataQualityError
from .signals import AXES, SENSORS, Channel, Window

AXIS_FEATURES = ("mean", "min", "max", "std", "var", "fft_energy", "spectral_entropy")
SENSOR_FEATURES = ("rms_mag", "corr_xy", "corr_yz", "corr_xz")
ACC_FEATURES = ("speed_mean", "speed_median", "speed_max")
GYR_FEATURES = ("roll_mean", "roll_median", "roll_max")

Schema = tuple[tuple[str, str], ...]


@dataclass(frozen=True, eq=False)
class FeatureVector:
    values: np.ndarray
    schema: Schema

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        if len(arr) != len(self.schema):
            raise AlignmentError(
                f"{len(arr)} values do not match schema of length {len(self.schema)}"
            )


def spectral_entropy(values: np.ndarray) -> float:
    """Shannon entropy of the magnitude-normalized one-sided spectrum,
    scaled to [0, 1]: 0 for a single line, 1 for a flat spectrum."""
    mags = np.abs(np.fft.rfft(values))
    total = mags.sum()
    if total <= 0.0:
        return 0.0
    p = mags / total
    p = p[p > 0.0]
    h = float(-(p * np.log(p)).sum())
    return h / float(np.log(len(mags)))


_PAIR_A, _PAIR_B = [0, 1, 0], [1, 2, 2]  # corr_xy, corr_yz, corr_xz


@functools.lru_cache(maxsize=64)
def _layout(channels: tuple[Channel, ...]) -> tuple[tuple[Channel, ...], Schema, np.ndarray]:
    """A bundle's channels in canonical order, its feature schema, and which
    of its sensor groups (row triples in that order) are accelerometers."""
    order = tuple(sorted(channels))
    names: list[tuple[str, str]] = []
    for i in range(0, len(order), 3):
        device, sensor = order[i].device, order[i].sensor
        if order[i : i + 3] != tuple(Channel(device, sensor, a) for a in AXES):
            raise AlignmentError(f"{device}/{sensor} is missing an axis")
        if sensor not in SENSORS:
            raise AlignmentError(f"unknown sensor {sensor!r}")
        key = f"{device}_{sensor}"
        for axis in AXES:
            names += [(f, f"{key}_{axis}") for f in AXIS_FEATURES]
        names += [(f, key) for f in SENSOR_FEATURES]
        names += [(f, key) for f in (ACC_FEATURES if sensor == "acc" else GYR_FEATURES)]
    is_acc = np.array([ch.sensor == "acc" for ch in order[::3]])
    is_acc.setflags(write=False)  # every caller shares it
    return order, tuple(names), is_acc


@np.errstate(all="ignore")  # an overflow is reported below, as a non-finite feature
def extract_features(
    bundle: Mapping[Channel, Window], sample_rate_hz: float
) -> FeatureVector:
    """Feature vector over one aligned multi-channel window set.

    Per axis: mean, min, max, population std/var, FFT energy and spectral
    entropy. Per (device, sensor): RMS of the 3-axis magnitude plus the
    three pairwise correlations. Accelerometers additionally contribute
    mean/median/max of the windowed instantaneous speed, gyroscopes
    mean/median/max of the roll velocity (their x channel).

    Each feature is computed for all axes (or all sensors) at once over the
    stacked (axes, W) array, bitwise equal to the per-axis and per-sensor
    formulas computed one at a time (tests/test_features.py holds them as
    oracles). A non-finite feature, which finite samples near 1e200 overflow
    to, raises DataQualityError.
    """
    if not bundle:
        raise AlignmentError("empty window bundle")
    lengths = {len(w) for w in bundle.values()}
    indices = {w.index for w in bundle.values()}
    if len(lengths) != 1 or len(indices) != 1:
        raise AlignmentError("bundle windows are not aligned")
    order, schema, is_acc = _layout(tuple(bundle))
    x = np.array([bundle[ch].values for ch in order])  # (axes, W)
    w = x.shape[1]
    mean = x.mean(axis=1)
    var = x.var(axis=1)
    std = np.sqrt(var)  # as np.std computes it
    mags = np.abs(np.fft.rfft(x, axis=1))
    mags2 = mags**2
    energy = mags2[:, 0] + 2.0 * np.sum(mags2[:, 1 : (w + 1) // 2], axis=1)
    if w % 2 == 0:
        energy += mags2[:, -1]
    energy /= w
    p = mags / mags.sum(axis=1, keepdims=True)
    entropy = -(p * np.log(p)).sum(axis=1) / np.log(mags.shape[1])
    # spectral_entropy drops zero-probability bins before it sums, which
    # changes the summation order: rows with such a bin take the scalar path
    for i in np.flatnonzero(~(p > 0.0).all(axis=1)):
        entropy[i] = spectral_entropy(x[i])
    per_axis = np.stack([mean, x.min(axis=1), x.max(axis=1), std, var, energy, entropy], axis=1)

    g = x.reshape(-1, 3, w)  # (groups, xyz, W)
    mag = np.sqrt(g[:, 0] ** 2 + g[:, 1] ** 2 + g[:, 2] ** 2)
    centred = g - mean.reshape(-1, 3, 1)
    cov = (centred[:, _PAIR_A] * centred[:, _PAIR_B]).mean(axis=2)
    sa, sb = std.reshape(-1, 3)[:, _PAIR_A], std.reshape(-1, 3)[:, _PAIR_B]
    # zero-variance axes correlate as 0 by convention
    corr = np.divide(cov, sa * sb, out=np.zeros_like(cov), where=(sa != 0.0) & (sb != 0.0))
    # instantaneous speed: the trapezoidal integral of the mean-subtracted
    # magnitude from zero velocity, as scipy's cumulative_trapezoid sums it;
    # a gyroscope's motion is its roll velocity instead
    m = mag - mag.mean(axis=1, keepdims=True)
    speed = np.zeros_like(m)
    speed[:, 1:] = np.cumsum(1.0 / sample_rate_hz * (m[:, 1:] + m[:, :-1]) / 2.0, axis=1)
    motion = np.where(is_acc[:, None], speed, g[:, 0])
    table = [
        per_axis.reshape(len(g), -1),
        np.sqrt((mag**2).mean(axis=1))[:, None],
        corr,
        np.stack([motion.mean(axis=1), np.median(motion, axis=1), motion.max(axis=1)], axis=1),
    ]
    values = np.concatenate(table, axis=1).ravel()
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        name, key = schema[bad[0]]
        raise DataQualityError(f"window {indices.pop()}: non-finite feature {name}:{key}")
    return FeatureVector(values, schema)
