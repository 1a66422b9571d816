"""Benchmark for dfam-car: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn. Each run generates its inputs
from the seed, sets up three times (setup_s is the median), runs the
end-to-end pass in a fresh interpreter (peak_rss_mb), times the per-window
path in rounds spread through the run, after each set-up and after that pass
(for stream-replay these rounds are whole passes and also give wall_s), checks
the outputs and prints one line per metric; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
--trace 1 reports the per-layer metrics of one traced pass instead, plus a
table of count, busy and self time per module. A failed check makes the exit
code 1; a missing dfam_car source tree makes it 2. Scratch inputs go to
.perfbench/ and are removed; a JSON record of each run stays in
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dfam_car"
WORKLOADS = ("eval-dfam-grid", "eval-baselines-loso", "stream-replay")


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=6.0,
                    help="measuring budget: fresh-interpreter passes repeat while the next "
                         "one fits; per-window timing rounds scale with it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny only exercises the code paths, for the benchmark's tests")
    return ap.parse_args(argv)


def _print_run(out: dict, units: dict) -> None:
    env = out["env"]
    print(f"== {env['workload']} seed={env['seed']} trace={env['trace']} scale={env['scale']}")
    print("env " + json.dumps(env, sort_keys=True))
    if "samples" in out:
        print("samples " + json.dumps(out["samples"], sort_keys=True))
    if "trace_table" in out:
        print(out["trace_table"])
    for name, value in out["metrics"].items():
        print(f"{name:40} {value:.6g} {units[name]}")
    rate = out["failed"] / out["attempted"] if out["attempted"] else 1.0
    print(f"error_rate {rate:.6g} ({out['failed']} failed of {out['attempted']} attempted: "
          "timed passes and output checks)")
    for failure in out["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: dfam_car sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import dfam_car

    if Path(dfam_car.__file__).resolve().parent != PACKAGE.resolve():
        print(f"error: dfam_car imported from {dfam_car.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import harness
    import metrics

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    for name in names:
        args.workload = name
        out = harness.run_workload(args)
        _print_run(out, metrics.UNITS)
        runs.append(out)
    prefix = len(runs) > 1
    reported = {
        (f"{out['env']['workload']}.{name}" if prefix else name): {
            "value": value, "unit": metrics.UNITS[name]}
        for out in runs for name, value in out["metrics"].items()
    }
    correct = all(out["correct"] for out in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out["attempted"] for out in runs),
        "failed": sum(out["failed"] for out in runs),
        "metrics": reported,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
