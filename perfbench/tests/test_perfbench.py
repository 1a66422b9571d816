"""The benchmark's own tests: table consistency, tiny smoke runs of every
workload, span attribution, and a wrong classify that must fail the run.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("eval-dfam-grid", "eval-baselines-loso", "stream-replay")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(root: Path, *args: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert list(workloads.WORKLOADS) == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        row[:4] for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in metrics.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# work counters that depend only on the grid's shape, so they hold at any size
EXACT = {
    "eval-dfam-grid": {"pipeline.filter.useful_ratio": 1 / 9, "pipeline.spectrum.useful_ratio": 1 / 3,
                       "evaluate.rounds": 90, "dfam.train.calls": 90},
    "eval-baselines-loso": {"pipeline.features.useful_ratio": 1 / 3,
                            "pipeline.filter.useful_ratio": 1 / 3, "dfam.classify.calls": 0},
    "stream-replay": {"pipeline.filter.useful_ratio": 1.0, "signals.ingest.files": 0,
                      "features.extract.calls": 0},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload):
    code, out = run_bench(ROOT, "--workload", workload, "--scale", "tiny", "--seconds", "1")
    result = last_json(out)
    assert code == 0 and result["correct"] and result["failed"] == 0, out
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        row[0]: row[1] for row in metrics.END_TO_END
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_counts_repeat_exactly(workload):
    counted = []
    for _ in range(2):
        code, out = run_bench(ROOT, "--workload", workload, "--scale", "tiny", "--trace", "1")
        result = last_json(out)
        assert code == 0 and result["correct"], out
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            row[0]: row[1] for row in metrics.PER_LAYER
        }
        layer_self = sum(values[f"{layer}.self_pct"] for layer in metrics.LAYERS)
        assert layer_self == pytest.approx(100.0)
        for name, want in EXACT[workload].items():
            assert values[name] == pytest.approx(want), name
        counted.append({k: v["value"] for k, v in result["metrics"].items()
                        if v["unit"] in ("count", "B") and k != "cli.workers"})
    assert counted[0] == counted[1]


def _copy_checkout(dest: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def test_wrong_classify_gives_errors_and_a_nonzero_exit(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    dfam_py = root / "src" / "dfam_car" / "dfam.py"
    text = dfam_py.read_text(encoding="utf-8")
    right = "return ClassificationResult(model.labels[best],"
    assert right in text
    dfam_py.write_text(
        text.replace(right, "return ClassificationResult(model.labels[(best + 1) % len(model.labels)],"),
        encoding="utf-8",
    )
    code, out = run_bench(root, "--workload", "stream-replay", "--scale", "tiny", "--seconds", "1")
    result = last_json(out)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert "disagrees with match_score" in out


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=False)
    code, out = run_bench(root, "--workload", "stream-replay", "--scale", "tiny")
    assert code != 0
    assert "{" not in out


def test_self_time_sums_to_wall_time_with_concurrent_children():
    # root 0..10; a pool child 1..7 in thread 1 and another 2..9 in thread 2;
    # the first child has its own child 3..4
    spans_ = [
        ("bench.pass", 0.0, 10.0, 1, 0, None, 0),
        ("cli.cell", 1.0, 7.0, 2, 1, "a", 1),
        ("dfam.classify", 3.0, 4.0, 4, 2, "a", 1),
        ("cli.cell", 2.0, 9.0, 3, 1, "b", 2),
    ]
    self_s = spans.attribute_self_time(spans_)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert self_s["bench.pass"] == pytest.approx(1.0 + 1.0)  # 0..1 and 9..10
    assert self_s["dfam.classify"] == pytest.approx(0.5)  # shared with the other cell
    assert self_s["cli.cell"] == pytest.approx(3.0 + 4.5)


def test_report_numbers_parse_in_either_spelling():
    assert checks.number("0.4304347826086954") == checks.number("np.float64(0.4304347826086954)")
    with pytest.raises(ValueError):
        checks.number("")
