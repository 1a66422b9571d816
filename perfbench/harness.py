"""Set-up, timed passes, checks and metrics for one workload run."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from dfam_car import classifiers, dfam, pipeline
from dfam_car.dfam import BinLayout

import checks as chk
import metrics
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUPS = 3  # set-ups per untraced run; setup_s is their median
DEFAULT_SECONDS = 6.0  # the --seconds at which each workload runs its nominal rounds
RUN_LIMIT_S = 175.0  # a run must end within 180 s
SAMPLED_WINDOWS = 8  # per window size, for the direct-DFT check
SAMPLED_SIGNATURES = 32  # per model, for the match_score check


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def worker_env() -> dict:
    """The default evaluate pool, unless it would use more threads than nproc."""
    env = dict(os.environ)
    env.pop("DFAM_CAR_THREADS", None)
    if min(4, os.cpu_count() or 1) > nproc():
        env["DFAM_CAR_THREADS"] = str(nproc())
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def environment(args, pool: int | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "evaluate_pool": pool,
    }


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def percentile_ms(latencies_s, q: float) -> float:
    return float(np.percentile(np.asarray(latencies_s), q)) * 1000.0


# ------------------------------------------------------------------ set-up

def set_up_once(workload, scale, seed: int, out: Path):
    """One timed set-up; returns (data, seconds, generate seconds, digest of its files)."""
    setup = wl.setup_evaluate if workload.kind == "evaluate" else wl.setup_replay
    t0 = perf_counter()
    data, generate_s = setup(scale, seed, out)
    return data, perf_counter() - t0, generate_s, digest_dir(out)


# ------------------------------------------------------------- timed part

def run_worker(workload, work: Path, inputs: Path, seed: int, seconds: float, traced: bool,
               deadline: float) -> dict:
    cfg = {
        "kind": workload.kind,
        "work": str(work),
        "inputs": str(inputs),
        "evaluate_args": list(workload.evaluate_args),
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
    }
    cfg_path, result_path = work / "worker.json", work / "worker-result.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(cfg_path), str(result_path)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"timed pass failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


# ------------------------------------------------------- evaluate workloads

def evaluate_checks(workload, recordings, result, rng, checks) -> dict:
    models, ws, gs = workload.grid
    expected_n = chk.windows_per_w(recordings, ws)
    passes = result["passes"] + ([result["traced"]] if "traced" in result else [])
    rows = None
    for i, p in enumerate(passes):
        parsed = chk.check_report(checks, p["csv"], p["json"], workload.grid, expected_n,
                                  f"pass {i}")
        if rows is None:
            rows = parsed
        else:
            same = Path(p["csv"]).read_bytes() == Path(passes[0]["csv"]).read_bytes()
            checks.expect(same, f"pass {i} wrote a different report than pass 0")
    for w in ws:
        rec_sample = chk.sample(recordings, 4, rng)
        bundles = [b for rec in rec_sample for b in pipeline.prepare_bundles(rec.series, w)]
        chk.check_spectra(checks, chk.sample(bundles, SAMPLED_WINDOWS, rng), wl.FS, f"W={w}")
    return {
        "windows": sum(r["n"] for r in rows),
        "f1_macro": statistics.fmean(r["f1_macro"] for r in rows),
    }


class Rounds:
    """Per-window timing rounds, run in chunks spread over the whole run:
    after each set-up and after the fresh-interpreter pass. Keeps each
    round's wall time and each window's time in every round; a window's
    figure is its median over the rounds.

    This machine's speed switches between two levels about 1.6x apart, in
    stretches from under a second to a minute, and under load it spends most
    of its time at the slow one. A fastest-of figure then reads the fast level
    in some runs and the slow one in others; the median over repeats spread
    through the run reads the level the run mostly saw, and the spreading
    keeps that share from swinging between runs. The cyclic collector runs
    between rounds, not inside them: this process also holds the set-up data,
    which would make its collections slower than the program's."""

    def __init__(self, one_round, rounds_per_chunk: int):
        self.one_round = one_round
        self.rounds_per_chunk = rounds_per_chunk
        self.times: list[list[float]] = []
        self.walls: list[float] = []

    def chunk(self) -> None:
        gc.collect()
        gc.freeze()  # so that the collections between rounds skip the set-up data
        try:
            for _ in range(self.rounds_per_chunk):
                gc.collect()
                gc.disable()
                try:
                    t0 = perf_counter()
                    self.times.append(self.one_round())
                    self.walls.append(perf_counter() - t0)
                finally:
                    gc.enable()
        finally:
            gc.unfreeze()

    def per_window(self) -> np.ndarray:
        return np.median(np.asarray(self.times), axis=0)


def rounds_per_chunk(workload, seconds: float) -> int:
    """The workload's rounds per chunk, scaled by --seconds; at least one."""
    return max(1, round(workload.rounds * seconds / DEFAULT_SECONDS))


def timed_each(fn, items, order_rng):
    """A round that times fn on every item, in a new order each round so that
    an item is timed at a different moment of each round, after a few
    untimed warm-up calls; the times come back in the items' order."""
    for item in items[:20]:
        fn(item)

    def one_round() -> list[float]:
        times = [0.0] * len(items)
        for i in order_rng.permutation(len(items)):
            item = items[i]
            t0 = perf_counter()
            fn(item)
            times[i] = perf_counter() - t0
        return times

    return one_round


def probe_dfam(recordings, seed: int, rng, checks, order_rng):
    """Per-window signature + classify against a model trained on the corpus."""
    layout = BinLayout.equal_width(wl.STREAM_G, wl.FS)
    train_fn, _ = pipeline.trainer_for(pipeline.ModelSpec.parse("dfam"), layout, wl.STREAM_W, seed)
    model = train_fn(pipeline.signature_instances(recordings, wl.STREAM_W, layout))
    bundles = [b for rec in recordings for b in pipeline.prepare_bundles(rec.series, wl.STREAM_W)]
    sigs = chk.signatures_of(chk.sample(bundles, SAMPLED_SIGNATURES, rng), layout, wl.FS)
    chk.check_classify(checks, sigs, model, "probe model W=128 g=3")
    return timed_each(
        lambda b: dfam.classify(
            dfam.extract_signature(pipeline.bundle_spectra(b, wl.FS), layout), model),
        bundles, order_rng,
    )


def probe_features(recordings, order_rng):
    """Per-window features + knn3 predict on the last participant's windows;
    knn3 is trained on the other participants."""
    held_out = max(rec.participant_id for rec in recordings)
    windows = [(rec, b) for rec in recordings
               for b in pipeline.prepare_bundles(rec.series, wl.STREAM_W)]
    dataset = classifiers.FeatureDataset.from_vectors([
        (str(rec.label), pipeline.extract_features(b, wl.FS))
        for rec, b in windows if rec.participant_id != held_out
    ])
    model = classifiers.train_knn(dataset, 3)
    return timed_each(
        lambda b: classifiers.predict(model, pipeline.extract_features(b, wl.FS)),
        [b for rec, b in windows if rec.participant_id == held_out], order_rng,
    )


# --------------------------------------------------------- replay workload

def replay_rounds(data, inputs: Path, outputs: list, order_rng):
    """A round that is one whole replay pass in this process, timing each
    window; the pass's outputs go to `outputs` for the checks. The streams
    run in a new order each round, so that a stream's windows are timed at a
    different moment of each pass."""
    series = [rec.series for rec in data["streams"]]
    smartphone = [rec.label.distraction == "using_smartphone" for rec in data["streams"]]

    def one_round() -> list[float]:
        latencies: dict[int, list[float]] = {}
        order = [int(i) for i in order_rng.permutation(len(series))]
        outputs.append(wl.replay_pass(inputs, series, smartphone, wl.no_span, latencies, order))
        return [t for i in range(len(series)) for t in latencies[i]]

    return one_round


def replay_checks(data, result, replays, rng, checks) -> dict:
    streams = data["streams"]
    per_stream = len(next(iter(streams[0].series.values()))) // wl.STREAM_W
    expected = per_stream * len(streams)
    passes = result["passes"] + ([result["traced"]] if "traced" in result else []) + replays
    first = passes[0]
    for i, p in enumerate(passes):
        checks.expect(p["windows"] == expected, f"pass {i}: {p['windows']} windows, expected {expected}")
        checks.expect(sum(p["states"].values()) == p["windows"],
                      f"pass {i}: state occupancy does not add up to the window count")
        if i:
            checks.expect(p["events"] == first["events"] and p["states"] == first["states"],
                          f"pass {i}: replay differs from pass 0")
    sample = chk.sample(streams, 4, rng)
    bundles = [b for rec in sample for b in pipeline.prepare_bundles(rec.series, wl.STREAM_W)]
    chk.check_spectra(checks, chk.sample(bundles, SAMPLED_WINDOWS, rng), wl.FS, "stream")
    picked = chk.sample(bundles, SAMPLED_SIGNATURES, rng)
    s1, s3 = data["s1"], data["s3"]
    chk.check_classify(checks, chk.signatures_of(picked, s1.layout, wl.FS, wl.phone_axes(bundles[0])),
                       s1, "S1 model")
    chk.check_classify(checks, chk.signatures_of(picked, s3.layout, wl.FS), s3, "S3 model")
    distracted = [rec.label.distraction is not None for rec in streams]
    return {
        "windows": expected,
        "f1_macro": chk.replay_f1(first["events"], distracted, per_stream),
    }


# --------------------------------------------------------------------- run

def run_workload(args) -> dict:
    """One run: set-up, timed passes, checks; returns the printed result."""
    started = perf_counter()
    workload = wl.WORKLOADS[args.workload]
    scale = wl.SCALES[args.scale]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    wl.remove(work)
    work.mkdir(parents=True)
    checks = chk.Checks()
    rng = np.random.default_rng(args.seed)
    out: dict = {"metrics": {}, "env": environment(args, None)}
    passes_run, pass_errors = 1, []  # the timed passes, or the one that failed
    try:
        inputs = work / "setup0"
        data, seconds, generate, digest = set_up_once(workload, scale, args.seed, inputs)
        setup_s, generate_s, digests = [seconds], [generate], [digest]
        # the per-window path is timed in chunks after each set-up and after the
        # fresh-interpreter pass; stream-replay's pass is short, so its rounds
        # are whole passes and give wall_s as well
        replay = workload.kind == "replay"
        replays: list[dict] = []
        order_rng = np.random.default_rng(args.seed)  # the order items are timed in
        if workload.name == "eval-dfam-grid":
            one_round = probe_dfam(data, args.seed, rng, checks, order_rng)
        elif workload.name == "eval-baselines-loso":
            one_round = probe_features(data, order_rng)
        else:
            one_round = replay_rounds(data, inputs, replays, order_rng)
        timer = None if args.trace else Rounds(
            one_round, rounds_per_chunk(workload, args.seconds))
        for i in range(1, 1 if args.trace else SETUPS):
            timer.chunk()
            _, seconds, generate, digest = set_up_once(
                workload, scale, args.seed, work / f"setup{i}")
            wl.remove(work / f"setup{i}")
            setup_s.append(seconds)
            generate_s.append(generate)
            digests.append(digest)
        checks.expect(len(set(digests)) == 1, "set-up is not deterministic for a fixed seed")
        if timer is not None:
            timer.chunk()
        try:
            result = run_worker(workload, work, inputs, args.seed,
                                0.0 if args.trace or replay else args.seconds, bool(args.trace),
                                started + RUN_LIMIT_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            pass_errors.append(str(exc))
            result = None
        if result is not None:
            if timer is not None:
                timer.chunk()
            passes_run = len(result["passes"]) + ("traced" in result) + len(replays)
            out["env"]["evaluate_pool"] = result["evaluate_pool"]
            if workload.kind == "evaluate":
                quality = evaluate_checks(workload, data, result, rng, checks)
            else:
                quality = replay_checks(data, result, replays, rng, checks)
            walls = [p["wall_s"] for p in result["passes"]]
            if args.trace:
                overhead = result["traced"]["wall_s"] / walls[0] - 1.0
                out["metrics"] = metrics.per_layer(result["trace"], generate_s[0], overhead)
                out["trace_table"] = result["trace_table"]
                out["trace"] = result["trace"]
            else:
                wall = statistics.median(timer.walls if replay else walls)
                latencies = timer.per_window()
                out["metrics"] = {
                    "setup_s": statistics.median(setup_s),
                    "wall_s": wall,
                    "windows_per_s": quality["windows"] / wall,
                    "window_p50_ms": percentile_ms(latencies, 50),
                    "window_p99_ms": percentile_ms(latencies, 99),
                    "peak_rss_mb": result["peak_rss_mb"],
                    "f1_macro": quality["f1_macro"],
                }
                out["samples"] = {"setups": len(setup_s),
                                  "passes": len(timer.walls if replay else walls),
                                  "rounds": len(timer.walls),
                                  "windows_timed": len(latencies)}
    finally:
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        if (work / "spans.csv.gz").exists():
            (work / "spans.csv.gz").replace(results / f"{work.name}-spans.csv.gz")
        wl.remove(work)
    attempted = passes_run + checks.run
    failed = len(pass_errors) + len(checks.failures)
    out.update(attempted=attempted, failed=failed, failures=pass_errors + checks.failures,
               correct=failed == 0 and bool(out["metrics"]))
    (results / f"{work.name}.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    return out
