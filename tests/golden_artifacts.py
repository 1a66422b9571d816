"""Golden CLI artifacts: SHA-256 digests of every file `dfam-car` writes for
a small seeded corpus.

tests/test_golden_artifacts.py runs the commands below in-process and
compares the digests with golden_digests.json. A change that alters an
artifact on purpose rewrites that file with

    PYTHONPATH=src python tests/golden_artifacts.py

and names each changed artifact, and why, in CHANGES.md; a refactor leaves
it unchanged. The digests hold only under the Python, numpy and scipy
versions the file records, which are the versions CI pins.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy
import scipy

from dfam_car.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")
BASELINES = ("nb", "knn3", "dt", "rf", "svm")
# smartphone in use at window 1 (an S2 event); not at window 3 (on to S3)
CONTEXT = "window_index,smartphone_in_use\n1,1\n3,0\n"


def versions() -> dict:
    """Python major.minor and the exact numpy and scipy versions."""
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _run(*argv) -> None:
    argv = [str(a) for a in argv]
    if main(argv) != 0:
        raise RuntimeError(f"dfam-car {' '.join(argv)} failed")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_sha256(root: Path) -> str:
    """The digest of `sha256sum *` run in root: one line per file, by name."""
    lines = "".join(f"{_sha256(p)}  {p.name}\n" for p in sorted(root.iterdir()))
    return hashlib.sha256(lines.encode()).hexdigest()


def write_artifacts(work: Path) -> dict[str, Path]:
    """Run gen, train, classify, evaluate and replay into work; return each
    artifact by name (the corpus is a directory, the rest are files)."""
    corpus = work / "corpus"
    _run("gen", "--out", corpus, "--participants", 3, "--duration", 8, "--noise", 0.3,
         "--seed", 5)
    out = {"gen": corpus}
    train = ("train", "--corpus", corpus)
    models = {"dfam": work / "dfam.dfam", **{b: work / f"{b}.model" for b in BASELINES}}
    for spec, path in models.items():
        _run(*train, "--model", spec, "--W", 128, "--g", 3, "--out", path)
        out[f"train {spec}"] = path
    for state, relabel, devices in (("s1", "moving", "phone"), ("s3", "distracted", "phone,watch")):
        path = work / f"{state}.dfam"
        _run(*train, "--model", "dfam", "--W", 64, "--g", 2, "--relabel", relabel,
             "--devices", devices, "--out", path)
        out[f"train {state}"] = path
    recording = corpus / "p00_walking+eating_RR.csv"
    for spec in ("dfam", "knn3"):
        path = work / f"classify_{spec}.csv"
        _run("classify", "--model-file", models[spec], "--recording", recording, "--out", path)
        out[f"classify {spec}"] = path
    grids = {
        "kfold_dfam": ("--protocol", "kfold", "--k", 3, "--models", "dfam", "--W", "64,128",
                       "--g", "1,3", "--seed", 2),
        "loso_baselines": ("--protocol", "loso", "--models", ",".join(BASELINES), "--W", 128),
    }
    for name, args in grids.items():
        report, full = work / f"{name}.csv", work / f"{name}.json"
        _run("evaluate", "--corpus", corpus, *args, "--out", report, "--json", full)
        out[f"evaluate {name} csv"], out[f"evaluate {name} json"] = report, full
    context = work / "context.csv"
    context.write_text(CONTEXT, encoding="utf-8")
    events = work / "events.jsonl"
    _run("replay", "--recording", recording, "--context", context, "--s1-model", out["train s1"],
         "--s3-model", out["train s3"], "--reset", 5, "--out", events)
    out["replay"] = events
    return out


def digests(artifacts: dict[str, Path]) -> dict[str, str]:
    return {
        name: _tree_sha256(path) if path.is_dir() else _sha256(path)
        for name, path in sorted(artifacts.items())
    }


def rewrite() -> int:
    with tempfile.TemporaryDirectory() as work:
        record = {"versions": versions(), "artifacts": digests(write_artifacts(Path(work)))}
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['artifacts'])} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(rewrite())
