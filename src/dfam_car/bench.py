"""Per-window classification latency measurements.

The timed region covers exactly what runs per window at inference time:
signature generation plus score matching for the frequency matcher, feature
extraction plus prediction for the baselines. Corpus generation, filtering,
segmentation and model training happen outside the clock, mirroring a
deployment where block acquisition cost is shared by every technique.
Every timed call gets windows that share no block with any other window, so
the frequency matcher pays for its own FFTs each time rather than reading
spectra cached by training or by an earlier repetition.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .dfam import BinLayout
from .errors import ConfigError
from .evaluate import Instance
from .pipeline import ModelSpec, prepare_bundles, trainer_for, window_payload
from .signals import Window
from .synth import default_activity_set, make_corpus


def build_bench_windows(
    train_size: int,
    n_test: int,
    window_size: int = 512,
    sample_rate_hz: float = 50.0,
    seed: int = 0,
    noise_std: float = 0.3,
):
    """Labeled window bundles, interleaved across activities for balance."""
    if train_size < 1 or n_test < 1:
        raise ConfigError("train_size and n_test must be >= 1")
    activities = default_activity_set()
    per_class = math.ceil((train_size + n_test) / len(activities)) + 1
    duration_s = per_class * window_size / sample_rate_hz
    recordings = make_corpus(
        1, activities, duration_s, sample_rate_hz, noise_std, seed
    )
    per_recording = [(str(rec.label), prepare_bundles(rec.series, window_size))
                     for rec in recordings]
    labeled = []
    for i in range(per_class):
        for label, bundles in per_recording:
            if i < len(bundles):
                labeled.append((label, bundles[i]))
    if len(labeled) < train_size + n_test:
        raise ConfigError("not enough windows generated for the requested sizes")
    return labeled[:train_size], labeled[train_size : train_size + n_test]


def _fresh_bundle(bundle):
    """A copy of a bundle whose windows are each a block of their own, so the
    first spectrum of each window runs one rfft on that window alone."""
    return {ch: Window(w.values, w.index, ch) for ch, w in bundle.items()}


def _timed_classifier(spec: ModelSpec, train_set, layout, window_size, fs, seed):
    """Train outside the clock; return the per-window closure to time."""
    kind = spec.kind
    channels = tuple(sorted(train_set[0][1]))  # every bundle windows the same channels
    train_fn, _ = trainer_for(spec, layout, window_size, seed, channels)
    model = train_fn(
        [Instance(label, window_payload(kind, bundle, fs, layout)) for label, bundle in train_set]
    )

    def run(bundle):
        return kind.predict(model, window_payload(kind, bundle, fs, layout))[0]

    return run


def run_benchmark(
    model_specs: Sequence[ModelSpec],
    train_size: int = 500,
    n_test: int = 40,
    window_size: int = 512,
    g: int = 3,
    sample_rate_hz: float = 50.0,
    seed: int = 0,
    repetitions: int = 10,
    noise_std: float = 0.3,
) -> dict:
    """Min / median / p95 per-window latency per model.

    The headline number is the median of per-repetition medians; raw
    per-repetition medians are included for inspection.
    """
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
    if not 0.0 < sample_rate_hz < math.inf:
        raise ConfigError(f"sample_rate_hz must be a positive finite number, got {sample_rate_hz}")
    train_set, test_set = build_bench_windows(train_size, n_test, window_size, sample_rate_hz,
                                              seed, noise_std)
    layout = BinLayout.equal_width(g, sample_rate_hz)
    results = {}
    for spec in model_specs:
        run = _timed_classifier(
            spec, train_set, layout, window_size, sample_rate_hz, seed
        )
        for _, bundle in test_set[:3]:  # warm caches and allocator
            run(_fresh_bundle(bundle))
        rep_medians = []
        pooled = []
        for _ in range(repetitions):
            times = []
            for bundle in [_fresh_bundle(bundle) for _, bundle in test_set]:
                t0 = time.perf_counter()
                run(bundle)
                times.append((time.perf_counter() - t0) * 1000.0)
            rep_medians.append(float(np.median(times)))
            pooled.extend(times)
        results[str(spec)] = {
            "median_ms": float(np.median(rep_medians)),
            "min_ms": float(np.min(pooled)),
            "p95_ms": float(np.percentile(pooled, 95)),
            "rep_medians_ms": rep_medians,
            "windows": len(test_set),
            "repetitions": repetitions,
            "train_size": train_size,
            "window_size": window_size,
        }
    return results
