"""Shared oracles and builders for the test suite.

HYPOTHESIS_PROFILE=ci makes the property tests derandomized (the same
examples on every run) with no deadline, and prints the blob that replays a
failure; without it hypothesis runs its default profile.
"""

import os

import numpy as np
from hypothesis import settings

from dfam_car.signals import Channel, Spectrum, TimeSeries, Window

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def dft_magnitudes(values: np.ndarray) -> np.ndarray:
    """Direct O(W^2) DFT summation oracle over the non-negative bins.

    Independent of numpy's FFT: builds the summation matrix explicitly.
    """
    w = len(values)
    k = np.arange(w // 2 + 1)
    t = np.arange(w)
    basis = np.exp(-2j * np.pi * np.outer(k, t) / w)
    return np.abs(basis @ np.asarray(values, dtype=np.float64))


def rfft_spectrum(window: Window, sample_rate_hz: float) -> Spectrum:
    """Per-window oracle of signals.spectrum: one rfft on this window alone,
    never on the block its window may share with others."""
    return Spectrum(np.abs(np.fft.rfft(window.values)), sample_rate_hz / len(window))


def tone(freq_hz: float, w: int, fs: float = 50.0, amp: float = 1.0, phase: float = 0.0):
    t = np.arange(w) / fs
    return amp * np.sin(2.0 * np.pi * freq_hz * t + phase)


def series(values, channel=Channel("phone", "acc", "x"), fs: float = 50.0) -> TimeSeries:
    return TimeSeries(channel, fs, np.asarray(values, dtype=np.float64))


def spectrum_with_peak(k: int, n_bins: int = 9, fs: float = 50.0) -> Spectrum:
    """Synthetic spectrum whose only nonzero magnitude sits at bin k."""
    mags = np.zeros(n_bins)
    mags[k] = 1.0
    w = 2 * (n_bins - 1)
    return Spectrum(mags, fs / w)


def replay(car, stream) -> list:
    """Feed (spectra, smartphone_in_use) pairs to the machine one window at a
    time, as `dfam-car replay` does; return its events."""
    for spectra, in_use in stream:
        car.process(spectra, in_use)
    return car.events
