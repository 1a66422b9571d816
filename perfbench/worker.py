"""Timed passes of one workload in a fresh interpreter.

Usage: python3 worker.py CONFIG.json RESULT.json

CONFIG names the workload kind, its inputs, the measuring budget in seconds
and the passes to run: "plain" passes repeat until the budget would be
exceeded (at least one), then an optional "traced" pass runs with the
tracer installed. RESULT receives per-pass wall times, the outputs the
parent checks, peak RSS and, for a traced pass, the span summary.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

from dfam_car import cli

import spans
import workloads


def _evaluate_pass(cfg: dict, tag: str, span) -> dict:
    out = Path(cfg["work"]) / f"report-{tag}"
    argv = ["evaluate", "--corpus", cfg["inputs"], *cfg["evaluate_args"],
            "--seed", str(cfg["seed"]), "--out", f"{out}.csv", "--json", f"{out}.json"]
    with contextlib.redirect_stdout(sys.stderr):
        t0 = perf_counter()
        with span("bench.pass"):
            rc = cli.main(argv)
        wall = perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"dfam-car evaluate exited {rc}")
    return {"wall_s": wall, "csv": f"{out}.csv", "json": f"{out}.json"}


def main(config_path: str, result_path: str) -> int:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    work = Path(cfg["work"])
    replay = cfg["kind"] == "replay"
    if replay:
        series, smartphone = workloads.load_streams(Path(cfg["inputs"]))

    def run_pass(tag: str, span) -> dict:
        if not replay:
            return _evaluate_pass(cfg, tag, span)
        t0 = perf_counter()
        with span("bench.pass"):
            out = workloads.replay_pass(Path(cfg["inputs"]), series, smartphone, span)
        out["wall_s"] = perf_counter() - t0
        return out

    result: dict = {"passes": [], "evaluate_pool": cli._max_workers()}
    start = perf_counter()
    while True:
        result["passes"].append(run_pass(f"plain{len(result['passes'])}", workloads.no_span))
        elapsed = perf_counter() - start
        if elapsed + max(p["wall_s"] for p in result["passes"]) > cfg["seconds"]:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if cfg["traced"]:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass("traced", tracer.span)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.csv.gz")
        summary = spans.summarize(tracer)
        if not replay:
            summary["counts"]["cli.report.bytes"] = sum(
                os.path.getsize(traced[k]) for k in ("csv", "json")
            )
        result["traced"] = traced
        result["trace"] = summary
        result["trace_table"] = spans.format_table(summary)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
