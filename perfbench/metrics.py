"""Metric table: names, units, direction, bounds, and what each should move.

BENCHMARK.json lists the same metrics; the benchmark's tests keep the two
in step. Per-layer times are shares of the traced pass's wall time (%), so
that a layer that does no work on a workload reads 0 % rather than a time
that never changes; the absolute seconds are in the printed layer table
and in the result file.
"""

from __future__ import annotations

# name, unit, better, bound, what it is
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of 3 set-ups per run: generate the inputs (and train S1/S3 for stream-replay)"),
    ("wall_s", "s", "lower", 0.25,
     "time to the complete result of one pass: the evaluate pass in a fresh interpreter "
     "(the median when several fit the budget); for stream-replay the median of its "
     "in-process replay passes"),
    ("windows_per_s", "1/s", "higher", 0.25, "windows classified or replayed per second of wall_s"),
    ("window_p50_ms", "ms", "lower", 0.25,
     "median over windows of each window's median over timing rounds spread through the run: "
     "bundle_spectra + process (stream-replay, one round per pass), signature + classify "
     "(eval-dfam-grid), features + knn3 predict (eval-baselines-loso, held-out participant)"),
    ("window_p99_ms", "ms", "lower", 0.25, "99th percentile over windows of the same latency"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak RSS of the timed process, set-up excluded"),
    ("f1_macro", "ratio", "higher", 0.12,
     "mean macro F1 over report cells; per-window distraction events for stream-replay"),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("trace.wall_s", "s", "lower", "wall time of the traced pass"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced pass wall - 1"),
    ("trace.spans", "count", "lower", "spans recorded in the traced pass"),
    ("synth.generate_s", "s", "lower", "setup_s, all workloads"),
    ("signals.self_pct", "%", "lower", "wall_s, eval workloads; window_p50_ms, stream-replay"),
    ("pipeline.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("dfam.self_pct", "%", "lower", "wall_s, eval-dfam-grid; window_p50_ms, stream-replay"),
    ("features.self_pct", "%", "lower", "wall_s, eval-baselines-loso"),
    ("classifiers.self_pct", "%", "lower", "wall_s, eval-baselines-loso"),
    ("evaluate.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("hierarchy.self_pct", "%", "lower", "window_p50_ms, stream-replay"),
    ("cli.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("bench.self_pct", "%", "lower", "nothing: the benchmark's own loop"),
    ("signals.ingest.files", "count", "lower", "wall_s, eval workloads"),
    ("signals.ingest.bytes", "B", "lower", "wall_s, eval workloads"),
    ("signals.ingest.busy_pct", "%", "lower", "wall_s, eval workloads; no change on stream-replay"),
    ("signals.filter.calls", "count", "lower", "wall_s, eval-dfam-grid"),
    ("signals.filter.busy_pct", "%", "lower", "wall_s, eval-dfam-grid"),
    ("signals.segment.calls", "count", "lower", "wall_s, eval workloads"),
    ("signals.segment.busy_pct", "%", "lower", "wall_s, eval workloads"),
    ("signals.spectrum.calls", "count", "lower",
     "wall_s, eval-dfam-grid; window_p50_ms, stream-replay"),
    ("signals.spectrum.busy_pct", "%", "lower",
     "wall_s, eval-dfam-grid; window_p50_ms, stream-replay"),
    ("pipeline.filter.useful_ratio", "ratio", "higher", "wall_s, eval-dfam-grid"),
    ("pipeline.spectrum.useful_ratio", "ratio", "higher", "wall_s, eval-dfam-grid"),
    ("pipeline.features.useful_ratio", "ratio", "higher", "wall_s, eval-baselines-loso"),
    ("pipeline.instances.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("dfam.signature.calls", "count", "lower",
     "wall_s, eval-dfam-grid; window_p50_ms, stream-replay"),
    ("dfam.signature.busy_pct", "%", "lower",
     "wall_s, eval-dfam-grid; window_p50_ms, stream-replay"),
    ("dfam.train.calls", "count", "lower", "wall_s, eval-dfam-grid"),
    ("dfam.train.busy_pct", "%", "lower", "wall_s, eval-dfam-grid"),
    ("dfam.train.instances_dropped", "count", "lower", "f1_macro, eval-dfam-grid"),
    ("dfam.classify.calls", "count", "lower", "window_p50_ms, stream-replay"),
    ("dfam.classify.busy_pct", "%", "lower",
     "window_p50_ms and window_p99_ms, stream-replay; wall_s, eval-dfam-grid"),
    ("dfam.classify.no_match_ratio", "ratio", "lower", "f1_macro, eval-dfam-grid and stream-replay"),
    ("dfam.codec.load.busy_pct", "%", "lower", "wall_s, stream-replay"),
    ("dfam.codec.bytes", "B", "lower", "wall_s, stream-replay"),
    ("features.extract.calls", "count", "lower", "wall_s, eval-baselines-loso only"),
    ("features.extract.busy_pct", "%", "lower", "wall_s, eval-baselines-loso only"),
    ("classifiers.train.nb.busy_pct", "%", "lower", "wall_s, eval-baselines-loso only"),
    ("classifiers.train.knn.busy_pct", "%", "lower", "wall_s, eval-baselines-loso only"),
    ("classifiers.train.rf.busy_pct", "%", "lower", "wall_s, eval-baselines-loso only"),
    ("classifiers.predict.calls", "count", "lower", "wall_s, eval-baselines-loso only"),
    ("classifiers.predict.busy_pct", "%", "lower", "wall_s, eval-baselines-loso only"),
    ("evaluate.rounds", "count", "lower", "wall_s, eval workloads"),
    ("evaluate.protocol.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("evaluate.metrics.busy_pct", "%", "lower", "wall_s, eval workloads"),
    ("hierarchy.windows", "count", "higher", "windows_per_s, stream-replay"),
    ("hierarchy.occupancy.S1", "count", "lower", "window_p50_ms, stream-replay"),
    ("hierarchy.occupancy.S2", "count", "lower", "window_p50_ms, stream-replay"),
    ("hierarchy.occupancy.S3", "count", "lower", "window_p50_ms, stream-replay"),
    ("hierarchy.events", "count", "higher", "f1_macro, stream-replay"),
    ("hierarchy.process.self_pct", "%", "lower", "window_p50_ms, stream-replay"),
    ("hierarchy.watch_spectra.useful_ratio", "ratio", "higher", "window_p50_ms, stream-replay"),
    ("cli.evaluate.self_pct", "%", "lower", "wall_s, eval workloads"),
    ("cli.workers", "count", "lower", "wall_s, eval workloads"),
    ("cli.report.bytes", "B", "lower", "wall_s, eval workloads"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

LAYERS = ("signals", "pipeline", "dfam", "features", "classifiers", "evaluate",
          "hierarchy", "cli", "bench")


def _useful(distinct: dict, counts: dict, key: str, calls: str) -> float:
    # 1 when the layer made no calls: nothing was recomputed
    n = counts.get(calls, 0)
    return distinct.get(key, 0) / n if n else 1.0


def per_layer(summary: dict, generate_s: float, overhead_ratio: float) -> dict[str, float]:
    wall = summary["wall_s"]
    ops, counts, distinct = summary["ops"], summary["counts"], summary["distinct"]

    def pct(op: str, field: str) -> float:
        return 100.0 * ops.get(op, {}).get(field, 0.0) / wall

    values = {
        "trace.wall_s": wall,
        "trace.overhead_ratio": overhead_ratio,
        "trace.spans": summary["spans"],
        "synth.generate_s": generate_s,
    }
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = 100.0 * summary["layers"].get(layer, {}).get("self_s", 0.0) / wall
    for op in ("signals.ingest", "signals.filter", "signals.segment", "signals.spectrum",
               "dfam.signature", "dfam.train", "dfam.classify", "dfam.codec.load",
               "features.extract", "classifiers.train.nb", "classifiers.train.knn",
               "classifiers.train.rf", "classifiers.predict", "evaluate.metrics"):
        values[f"{op}.busy_pct"] = pct(op, "busy_s")
    for op in ("pipeline.instances", "evaluate.protocol", "hierarchy.process", "cli.evaluate"):
        values[f"{op}.self_pct"] = pct(op, "self_s")
    for key in ("signals.ingest.files", "signals.ingest.bytes", "signals.filter.calls",
                "signals.segment.calls", "signals.spectrum.calls", "dfam.signature.calls",
                "dfam.train.calls", "dfam.train.instances_dropped", "dfam.classify.calls",
                "dfam.codec.bytes", "features.extract.calls", "classifiers.predict.calls",
                "evaluate.rounds", "hierarchy.windows", "hierarchy.occupancy.S1",
                "hierarchy.occupancy.S2", "hierarchy.occupancy.S3", "hierarchy.events",
                "cli.workers", "cli.report.bytes"):
        values[key] = counts.get(key, 0)
    values["pipeline.filter.useful_ratio"] = _useful(
        distinct, counts, "signals.filter", "signals.filter.calls")
    values["pipeline.spectrum.useful_ratio"] = _useful(
        distinct, counts, "signals.spectrum", "signals.spectrum.calls")
    values["pipeline.features.useful_ratio"] = _useful(
        distinct, counts, "features.extract", "features.extract.calls")
    classified = counts.get("dfam.classify.calls", 0)
    values["dfam.classify.no_match_ratio"] = (
        counts.get("dfam.classify.no_match", 0) / classified if classified else 0.0
    )
    computed = counts.get("hierarchy.watch_spectra.computed", 0)
    values["hierarchy.watch_spectra.useful_ratio"] = (
        counts.get("hierarchy.occupancy.S3", 0) / computed if computed else 1.0
    )
    return values
