"""Every BENCH_<n>.json at the repository root names the machine and the
library versions it was measured with, and those versions are the ones CI
pins: a record measured on other versions does not compare with the rest."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def pinned(package):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return re.search(rf"\b{package}==([\w.]+)", workflow).group(1)


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_names_machine_and_pinned_versions(path):
    machine = json.loads(path.read_text(encoding="utf-8"))["machine"]
    assert type(machine["cores"]) is int and machine["cores"] >= 1
    assert re.fullmatch(r"3\.\d+\.\d+", machine["python"])
    assert machine["numpy"] == pinned("numpy")
    assert machine["scipy"] == pinned("scipy")


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CLAIMS = [path for path in RECORDS
          if isinstance(json.loads(path.read_text(encoding="utf-8")).get("claim"), dict)]


@pytest.mark.parametrize("path", CLAIMS, ids=lambda path: path.name)
def test_claim_names_a_benchmark_metric_and_workload(path):
    """A claim spelled "<metric> on <workload>" names an end-to-end metric and
    a workload of BENCHMARK.json, so a renamed one cannot go unnoticed."""
    claim = json.loads(path.read_text(encoding="utf-8"))["claim"]
    metric, workload = re.fullmatch(r"(\S+) on (\S+)", claim["metric"]).groups()
    assert metric in {m["name"] for m in BENCHMARK["end_to_end"]}
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["result"] in ("met", "not met")
