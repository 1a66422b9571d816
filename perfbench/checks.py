"""Output checks. Each check is one attempted operation; a failed one makes the
run incorrect and the benchmark exit non-zero."""

from __future__ import annotations

import csv
import json
import re

import numpy as np

from dfam_car import dfam, pipeline
from dfam_car.signals import spectrum

_NUMBER = re.compile(r"^\s*(?:np\.float64\()?\s*([^()\s]+)\s*\)?\s*$")


class Checks:
    def __init__(self):
        self.run = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.run += 1
        if not ok:
            self.failures.append(what)
        return ok


def number(text: str) -> float:
    """A report number, whether written as ``0.43`` or ``np.float64(0.43)``."""
    match = _NUMBER.match(text)
    if match is None:
        raise ValueError(f"not a number: {text!r}")
    return float(match.group(1))


# ----------------------------------------------------------------- spectra

def dft_magnitudes(values: np.ndarray) -> np.ndarray:
    """Direct O(W^2) DFT summation over the non-negative bins."""
    w = len(values)
    basis = np.exp(-2j * np.pi * np.outer(np.arange(w // 2 + 1), np.arange(w)) / w)
    return np.abs(basis @ values)


def check_spectra(checks: Checks, bundles, fs: float, what: str) -> None:
    """Every axis of every sampled window against the direct DFT."""
    for i, bundle in enumerate(bundles):
        ok = True
        for ch in sorted(bundle):
            values = bundle[ch].values
            got = spectrum(bundle[ch], fs).bin_magnitudes
            scale = np.abs(values).sum() + 1.0
            ok = ok and np.allclose(got, dft_magnitudes(values), rtol=0.0, atol=1e-9 * scale)
        checks.expect(ok, f"{what}: spectrum of sampled window {i} differs from the direct DFT")


def sample(items: list, n: int, rng: np.random.Generator) -> list:
    if len(items) <= n:
        return list(items)
    return [items[i] for i in sorted(rng.choice(len(items), size=n, replace=False))]


# ---------------------------------------------------------------- classify

def check_classify(checks: Checks, signatures, model, what: str) -> None:
    """dfam.classify against summed match_score over the model's instances."""
    for i, sig in enumerate(signatures):
        totals = {label: 0.0 for label in model.labels}
        for label, inst in model.instances:
            totals[label] += dfam.match_score(sig, inst)
        best = max(totals.values())
        tol = 1e-9 * max(1.0, best)
        result = dfam.classify(sig, model)
        ok = (
            result.label in totals
            and abs(totals[result.label] - best) <= tol
            and set(result.scores) == set(totals)
            and all(abs(result.scores[k] - v) <= tol for k, v in totals.items())
            and result.no_match == (best == 0.0)
        )
        checks.expect(ok, f"{what}: classify of sampled window {i} disagrees with match_score")


def signatures_of(bundles, layout, fs: float, axes=None):
    out = []
    for bundle in bundles:
        spectra = pipeline.bundle_spectra(bundle, fs)
        if axes is not None:
            spectra = [spectra[j] for j in axes]
        out.append(dfam.extract_signature(spectra, layout))
    return out


# ----------------------------------------------------------------- reports

def windows_per_w(recordings, sizes) -> dict[int, int]:
    """Window count per W, from sample counts alone."""
    lengths = [len(next(iter(rec.series.values()))) for rec in recordings]
    return {w: sum(n // w for n in lengths) for w in sizes}


def check_report(checks: Checks, csv_path, json_path, grid, expected_n, what: str) -> list[dict]:
    """Rows cover the grid; n matches the window count; micro P = micro R = accuracy."""
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(json_path, encoding="utf-8") as fh:
        cells = json.load(fh)
    models, ws, gs = grid
    want = sorted((m, w, g) for m in models for w in ws for g in gs)
    got = sorted((r["model"], int(r["W"]), int(r["g"])) for r in rows)
    checks.expect(got == want, f"{what}: report cells {got} differ from the grid {want}")
    checks.expect(len(cells) == len(rows), f"{what}: JSON and CSV reports differ in length")
    parsed = []
    for row, cell in zip(rows, cells):
        key = f"{what} {row['model']} W={row['W']} g={row['g']}"
        n = int(row["n"])
        acc = number(row["accuracy"])
        p, r = number(row["precision_micro"]), number(row["recall_micro"])
        checks.expect(n == expected_n[int(row["W"])], f"{key}: n={n}, expected "
                      f"{expected_n[int(row['W'])]} windows")
        checks.expect(abs(p - acc) <= 1e-12 and abs(r - acc) <= 1e-12,
                      f"{key}: micro P {p} / micro R {r} differ from accuracy {acc}")
        report = cell["report"]
        total = sum(map(sum, report["confusion"]))
        checks.expect(
            cell["cell"]["model"] == row["model"] and total == n
            and abs(report["accuracy"] - acc) <= 1e-12,
            f"{key}: JSON report disagrees with the CSV row",
        )
        parsed.append({"n": n, "f1_macro": number(row["f1_macro"])})
    return parsed


# ------------------------------------------------------------------ replay

def replay_f1(events, distracted: list[bool], windows_per_stream: int) -> float:
    """Macro F1 of per-window distraction events against the generator's labels
    (a window is distracted when its stream's activity carries a distraction)."""
    flagged = {(s, w) for s, w, _ in events}
    tp = fp = fn = tn = 0
    for s, truth in enumerate(distracted):
        for w in range(windows_per_stream):
            pred = (s, w) in flagged
            tp += truth and pred
            fp += pred and not truth
            fn += truth and not pred
            tn += not truth and not pred

    def f1(tp_, fp_, fn_):
        return 2.0 * tp_ / (2.0 * tp_ + fp_ + fn_) if tp_ else 0.0

    return (f1(tp, fp, fn) + f1(tn, fn, fp)) / 2.0
