"""Workload definitions: inputs made from the seed, set-up, and the timed passes.

Every input is generated at set-up time from ``--seed``; nothing is read
from outside the checkout. The end-to-end pass runs in a fresh interpreter
(``worker.py``) so that peak memory excludes set-up.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from dfam_car import dfam, pipeline, synth
from dfam_car.dfam import BinLayout
from dfam_car.hierarchy import DEFAULT_RESET_PERIOD, HierarchicalCar
from dfam_car.signals import DEFAULT_CUTOFF_HZ, Channel, TimeSeries

FS = 50.0
NOISE_STD = 0.5
STREAM_W = 128
STREAM_G = 3


@dataclass(frozen=True)
class Scale:
    participants: int
    duration_s: float
    stream_duration_s: float


# "full" is the benchmark; "tiny" only exercises the code paths in the
# benchmark's own tests.
SCALES = {
    "full": Scale(participants=5, duration_s=30.0, stream_duration_s=600.0),
    "tiny": Scale(participants=2, duration_s=8.0, stream_duration_s=40.0),
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "evaluate" or "replay"
    why: str
    evaluate_args: tuple[str, ...] = ()
    grid: tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]] = ((), (), ())
    # per-window timing rounds in each chunk at the default --seconds; a
    # round takes 0.3-0.5 s at full scale (eval-dfam-grid), 0.4-0.7 s
    # (eval-baselines-loso) or 1.3-2.2 s (stream-replay, whose rounds are
    # whole passes and also give wall_s)
    rounds: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-dfam-grid",
            "evaluate",
            "10-fold DFAM over W 64,128,256 x g 1,2,3: ingest, per-cell recomputation, "
            "signatures and 90 DFAM model builds",
            ("--protocol", "kfold", "--k", "10", "--models", "dfam",
             "--W", "64,128,256", "--g", "1,2,3"),
            (("dfam",), (64, 128, 256), (1, 2, 3)),
            rounds=3,
        ),
        Workload(
            "eval-baselines-loso",
            "evaluate",
            "LOSO of nb, knn3 and rf at W 128: feature extraction and classifier "
            "training dominate; DFAM does nothing",
            ("--protocol", "loso", "--models", "nb,knn3,rf", "--W", "128", "--g", "3"),
            (("knn3", "nb", "rf"), (128,), (3,)),
            rounds=2,
        ),
        Workload(
            "stream-replay",
            "replay",
            "S1/S2/S3 hierarchy replayed over 20 long streams against 2 fixed DFAM "
            "models: thousands of matches, no ingest, no features",
            rounds=2,
        ),
    )
}


def corpus(scale: Scale, seed: int) -> list[synth.Recording]:
    return synth.make_corpus(
        participants=scale.participants,
        duration_s=scale.duration_s,
        sample_rate_hz=FS,
        noise_std=NOISE_STD,
        seed=seed,
    )


def streams(scale: Scale, seed: int) -> list[synth.Recording]:
    """One long recording per activity; seed+1 keeps them apart from training."""
    return synth.make_corpus(
        participants=1,
        duration_s=scale.stream_duration_s,
        sample_rate_hz=FS,
        noise_std=NOISE_STD,
        seed=seed + 1,
    )


# ------------------------------------------------------------------ set-up

def setup_evaluate(scale: Scale, seed: int, out_dir: Path) -> tuple[list, float]:
    """Generate the corpus and write it as CSV; returns (recordings, generate seconds)."""
    t0 = perf_counter()
    recordings = corpus(scale, seed)
    generate_s = perf_counter() - t0
    synth.write_corpus(recordings, out_dir)
    return recordings, generate_s


def train_hierarchy_models(recordings, seed: int):
    """S1 on phone channels (moving or not), S3 on all 12 axes (distracted or not)."""
    layout = BinLayout.equal_width(STREAM_G, FS)
    train_fn, _ = pipeline.trainer_for(pipeline.ModelSpec.parse("dfam"), layout, STREAM_W, seed)
    phone = pipeline.signature_instances(recordings, STREAM_W, layout, devices=("phone",))
    both = pipeline.signature_instances(recordings, STREAM_W, layout)
    return (
        train_fn(pipeline.relabel_moving(phone)),
        train_fn(pipeline.relabel_distracted(both)),
    )


def setup_replay(scale: Scale, seed: int, out_dir: Path) -> tuple[dict, float]:
    """Train and save S1/S3, and save the streams as one array plus metadata."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = perf_counter()
    recordings = corpus(scale, seed)
    stream_recs = streams(scale, seed)
    generate_s = perf_counter() - t0
    s1, s3 = train_hierarchy_models(recordings, seed)
    dfam.save_model(s1, out_dir / "s1.dfam")
    dfam.save_model(s3, out_dir / "s3.dfam")
    channels = sorted(stream_recs[0].series)
    np.save(
        out_dir / "streams.npy",
        np.stack([[rec.series[ch].values for ch in channels] for rec in stream_recs]),
    )
    meta = {
        "channels": [list(ch) for ch in channels],
        "smartphone": [rec.label.distraction == "using_smartphone" for rec in stream_recs],
    }
    (out_dir / "streams.json").write_text(json.dumps(meta), encoding="utf-8")
    return {"recordings": recordings, "streams": stream_recs, "s1": s1, "s3": s3}, generate_s


def remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ------------------------------------------------------------ timed passes

def load_streams(in_dir: Path):
    """Streams as per-channel series, plus the per-stream smartphone flags."""
    meta = json.loads((in_dir / "streams.json").read_text(encoding="utf-8"))
    channels = [Channel(*ch) for ch in meta["channels"]]
    data = np.load(in_dir / "streams.npy")
    series = [
        {ch: TimeSeries(ch, FS, rows[j]) for j, ch in enumerate(channels)} for rows in data
    ]
    return series, meta["smartphone"]


def no_span(name, trace_id=None):
    return contextlib.nullcontext()


def replay_pass(in_dir: Path, series, smartphone, span=no_span, latencies=None,
                order=None) -> dict:
    """Load both models, then replay every stream window by window (closed
    loop), one stream at a time in `order` (default: as given). Each stream
    gets its own state machine, so the order does not change the outputs.
    `latencies[i]` receives the bundle_spectra + process time of each window
    of stream i."""
    s1 = pipeline.load_any_model(in_dir / "s1.dfam")
    s3 = pipeline.load_any_model(in_dir / "s3.dfam")
    fs = s3.layout.sample_rate_hz
    events = []
    states = {"S1": 0, "S2": 0, "S3": 0}
    windows = 0
    for i in range(len(series)) if order is None else order:
        with span("bench.stream", f"stream:{i}"):
            bundles = pipeline.prepare_bundles(series[i], s3.window_size, DEFAULT_CUTOFF_HZ)
            machine = HierarchicalCar(s1, s3, DEFAULT_RESET_PERIOD, s1_axes=phone_axes(bundles[0]))
            times = []
            for bundle in bundles:
                t0 = perf_counter()
                machine.process(pipeline.bundle_spectra(bundle, fs), smartphone[i])
                times.append(perf_counter() - t0)
            if latencies is not None:
                latencies[i] = times
        windows += len(bundles)
        events += [[i, ev.window_index, ev.event_type] for ev in machine.events]
        for state in machine.trace:
            states[state] += 1
    return {"windows": windows, "events": sorted(events), "states": states}


def phone_axes(bundle) -> list[int]:
    """S1 reads the phone channels only."""
    return [j for j, ch in enumerate(sorted(bundle)) if ch.device == "phone"]
