import csv
import dataclasses
import json
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import rfft_spectrum
from dfam_car import bench as bench_mod
from dfam_car import classifiers, dfam, pipeline
from dfam_car.cli import REPORT_COLUMNS, _read_context, build_parser, main
from dfam_car.dfam import classify, extract_signature, load_model
from dfam_car.errors import ParseError
from dfam_car.hierarchy import DEFAULT_RESET_PERIOD, write_events_jsonl
from dfam_car.pipeline import ModelSpec, bundle_spectra, prepare_bundles
from dfam_car.signals import CHANNEL_BY_KEY, read_recording


REPORT_HEADER = (
    "protocol", "model", "W", "g", "sensors", "seed", "n", "accuracy",
    "precision_weighted", "recall_weighted", "f1_weighted",
    "precision_micro", "recall_micro", "f1_micro",
    "precision_macro", "recall_macro", "f1_macro",
    "mean_participant_accuracy",
)


def csv_dicts(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = main(
        ["gen", "--out", str(out), "--participants", "2", "--duration", "10",
         "--seed", "7"]
    )
    assert rc == 0
    return out


def retime(source, dest, scale):
    """Copy a recording with every timestamp times scale, which divides the
    sample rate its streams read at by scale."""
    header, *rows = source.read_text(encoding="utf-8").splitlines()
    stamped = (row.split(",", 1) for row in rows)
    dest.write_text("".join([f"{header}\n"] + [f"{float(t) * scale!r},{rest}\n"
                                                for t, rest in stamped]), encoding="utf-8")
    return dest


def retimed(corpus, out, scale, ids=None):
    """A copy of the corpus with the recordings in ids (all for None) retimed."""
    out.mkdir()
    for path in corpus.iterdir():
        if path.name != "labels.csv" and (ids is None or path.stem in ids):
            retime(path, out / path.name, scale)
        else:
            (out / path.name).write_bytes(path.read_bytes())
    return out


def cli_artifacts(out, corpus):
    """Bytes of every file evaluate --json, train and replay write into out."""
    out.mkdir()
    assert main(["evaluate", "--corpus", str(corpus), "--protocol", "kfold", "--k", "3",
                 "--models", "dfam", "--W", "64,128", "--g", "1,3", "--seed", "2",
                 "--out", str(out / "report.csv"), "--json", str(out / "report.json")]) == 0
    train = ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64"]
    assert main(train + ["--relabel", "moving", "--out", str(out / "s1.dfam")]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(out / "s3.dfam")]) == 0
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    assert main(["replay", "--recording", str(recording), "--s1-model", str(out / "s1.dfam"),
                 "--s3-model", str(out / "s3.dfam"), "--out", str(out / "events.jsonl")]) == 0
    return read_bytes_tree(out)


def test_block_spectra_leave_cli_artifacts_byte_identical(tmp_path, corpus, monkeypatch):
    shipped = cli_artifacts(tmp_path / "shipped", corpus)
    monkeypatch.setattr(pipeline, "spectrum", rfft_spectrum)
    assert cli_artifacts(tmp_path / "per_window", corpus) == shipped
    assert set(shipped) == {"report.csv", "report.json", "s1.dfam", "s3.dfam", "events.jsonl"}
    assert shipped["events.jsonl"]


def test_gen_deterministic(tmp_path, corpus):
    again = tmp_path / "again"
    rc = main(
        ["gen", "--out", str(again), "--participants", "2", "--duration", "10",
         "--seed", "7"]
    )
    assert rc == 0
    assert read_bytes_tree(corpus) == read_bytes_tree(again)


def test_gen_rejects_bad_placement(tmp_path, capsys):
    rc = main(["gen", "--out", str(tmp_path / "x"), "--placements", "RR,XX"])
    assert rc == 1
    assert "placement" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--jitter", "-1", "phase_jitter_std must be a non-negative finite number, got -1.0"),
    ("--jitter", "nan", "phase_jitter_std must be a non-negative finite number, got nan"),
    ("--jitter", "inf", "phase_jitter_std must be a non-negative finite number, got inf"),
    ("--noise", "nan", "noise_std must be a non-negative finite number, got nan"),
    ("--noise", "inf", "noise_std must be a non-negative finite number, got inf"),
    ("--duration", "nan", "duration_s must be a positive finite number, got nan"),
    ("--duration", "inf", "duration_s must be a positive finite number, got inf"),
    ("--duration", "0.001",
     "duration_s 0.001 at 50.0 Hz gives 0.05 samples; at least one and finitely many are needed"),
    ("--duration", "1e300",  # at --fs 1e10 the sample count overflows to inf
     "duration_s 1e+300 at 10000000000.0 Hz gives inf samples;"
     " at least one and finitely many are needed"),
    ("--fs", "inf", "sample_rate_hz must be a positive finite number, got inf"),
    ("--fs", "nan", "sample_rate_hz must be a positive finite number, got nan"),
    ("--placements", ",", "placements must not be empty"),
])
def test_gen_rejects_bad_numbers_before_writing(tmp_path, capsys, flag, value, message):
    out = tmp_path / "corpus"
    fs = ["--fs", "1e10"] if value == "1e300" else []
    assert main(["gen", "--out", str(out), "--participants", "1", flag, value] + fs) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("option, value, message", [
    ("--sensors", "", "sensor set must not be empty"),
    ("--sensors", "acc,mag", "unknown sensor 'mag', expected subset of ('acc', 'gyr')"),
    ("--devices", " , ", "device set must not be empty"),
    ("--devices", "phone,ring", "unknown device 'ring', expected subset of ('phone', 'watch')"),
])
def test_train_checks_sensor_and_device_lists(tmp_path, corpus, capsys, option, value, message):
    out = tmp_path / "m.dfam"
    assert main(["train", "--corpus", str(corpus), option, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sensor_and_device_lists_take_canonical_order(tmp_path, corpus):
    train = ["train", "--corpus", str(corpus), "--W", "64"]
    assert main(train + ["--out", str(tmp_path / "a.dfam")]) == 0
    assert main(train + ["--sensors", "gyr,acc", "--devices", "watch,phone",
                         "--out", str(tmp_path / "b.dfam")]) == 0
    assert (tmp_path / "a.dfam").read_bytes() == (tmp_path / "b.dfam").read_bytes()
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--corpus", str(corpus), "--k", "2", "--sensors", "gyr,acc",
                 "--out", str(report)]) == 0
    assert [row["sensors"] for row in csv_dicts(report)] == ["acc+gyr"]


def test_train_dfam_and_nb(tmp_path, corpus):
    dfam_path = tmp_path / "m.dfam"
    rc = main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "128",
         "--g", "3", "--out", str(dfam_path)]
    )
    assert rc == 0
    assert dfam_path.read_text(encoding="utf-8").startswith(
        "DFAM v2 W=128 fs=50.0 g=3 axes=12 bounds=8.333333333333334,16.666666666666668 "
        "channels=phone_acc_x,phone_acc_y,phone_acc_z,phone_gyr_x,phone_gyr_y,phone_gyr_z,"
        "watch_acc_x,watch_acc_y,watch_acc_z,watch_gyr_x,watch_gyr_y,watch_gyr_z\n"
    )

    again = tmp_path / "m2.dfam"
    main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "128",
         "--g", "3", "--out", str(again)]
    )
    assert dfam_path.read_bytes() == again.read_bytes()

    nb_path = tmp_path / "m.nb"
    rc = main(
        ["train", "--corpus", str(corpus), "--model", "nb", "--W", "128",
         "--out", str(nb_path)]
    )
    assert rc == 0
    assert nb_path.read_text(encoding="utf-8").startswith("MODEL v1 kind=naive_bayes")


def test_train_rejects_nonstandard_w(tmp_path, corpus, capsys):
    rc = main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "100",
         "--out", str(tmp_path / "m")]
    )
    assert rc == 1
    assert "allow-any-w" in capsys.readouterr().err


def test_train_below_twice_the_cutoff_names_the_sample_rate(tmp_path, corpus, capsys):
    """At 20 Hz the fixed 10 Hz low-pass cutoff reaches the Nyquist rate.
    gen refuses that rate (its 17.3 Hz components lie above that limit), so the
    50 Hz corpus is restamped 50 ms apart."""
    slow = retimed(corpus, tmp_path / "corpus", 2.5)
    model = tmp_path / "m"
    assert main(["train", "--corpus", str(slow), "--out", str(model)]) == 1
    assert capsys.readouterr().err == ("error: low-pass cutoff 10.0 Hz must be positive and"
                                       " below half the 20.0 Hz sample rate\n")
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "bench"])
def test_nonstandard_w_is_rejected_before_any_work(tmp_path, corpus, capsys, monkeypatch,
                                                   command):
    def no_corpus(*args, **kwargs):
        raise AssertionError("a corpus was read or built before W was checked")

    monkeypatch.setattr(pipeline, "load_corpus", no_corpus)
    monkeypatch.setattr(bench_mod, "make_corpus", no_corpus)
    out = tmp_path / "out"
    argv = {"train": ["train", "--corpus", str(corpus), "--model", "nb"],
            "evaluate": ["evaluate", "--corpus", str(corpus), "--models", "nb"],
            "bench": ["bench", "--models", "nb"]}[command]
    capsys.readouterr()
    assert main(argv + ["--W", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: W=100 is outside the standard set (32, 64, 128, 256, 512);"
        " pass --allow-any-w to override\n")
    assert list(tmp_path.iterdir()) == []


def test_allow_any_w_admits_a_baseline_but_not_dfam(tmp_path, corpus, capsys):
    """--allow-any-w lifts the standard-set gate: nb trains at W 100 and
    classify windows at the W the model records; DFAM still needs a power
    of two."""
    model = tmp_path / "nb.model"
    assert main(["train", "--corpus", str(corpus), "--model", "nb", "--W", "100",
                 "--allow-any-w", "--out", str(model)]) == 0
    assert classifiers.load_feature_model(model).params["window_size"] == 100
    out = tmp_path / "labels.csv"
    assert main(["classify", "--model-file", str(model), "--recording",
                 str(corpus / "p00_walking_RR.csv"), "--out", str(out)]) == 0
    assert len(csv_dicts(out)) == 500 // 100
    for argv in (["train", "--corpus", str(corpus), "--model", "dfam"],
                 ["evaluate", "--corpus", str(corpus), "--models", "dfam"],
                 ["bench", "--models", "dfam", "--train-size", "30", "--windows", "4"]):
        dfam_out = tmp_path / "dfam.out"
        capsys.readouterr()
        assert main(argv + ["--W", "100", "--allow-any-w", "--out", str(dfam_out)]) == 1
        assert capsys.readouterr().err == "error: window length must be a power of two, got 100\n"
        assert not dfam_out.exists()


def test_classify_recording(tmp_path, corpus):
    model_path = tmp_path / "m.dfam"
    main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64",
         "--g", "3", "--out", str(model_path)]
    )
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    out = tmp_path / "labels_out.csv"
    rc = main(
        ["classify", "--model-file", str(model_path), "--recording", str(recording),
         "--out", str(out)]
    )
    assert rc == 0
    rows = csv_dicts(out)
    assert len(rows) == 500 // 64  # at the model's own W
    truth = recording.name.split("_", 1)[1].rsplit("_", 1)[0]
    correct = sum(1 for r in rows if r["label"] == truth)
    assert correct >= len(rows) // 2  # model saw this recording during training


def test_classify_windows_at_a_baseline_model_s_own_size(tmp_path, corpus, capsys):
    """A baseline model windows recordings at the W it records, as a DFAM
    model does; a feature file without that stamp, without the sample
    rate's, or whose schema names no channel, must be re-trained."""
    model = tmp_path / "knn3.model"
    assert main(["train", "--corpus", str(corpus), "--model", "knn3", "--W", "64",
                 "--out", str(model)]) == 0
    out = tmp_path / "labels.csv"
    argv = ["classify", "--recording", str(corpus / "p00_walking_RR.csv"), "--out", str(out)]
    assert main(argv + ["--model-file", str(model)]) == 0
    assert len(csv_dicts(out)) == 500 // 64
    out.unlink()
    stamped = classifiers.load_feature_model(model)
    for lacking in ("window_size", "sample_rate_hz", "channels"):
        params = {k: v for k, v in stamped.params.items() if k != lacking}
        schema = stamped.schema
        if lacking == "channels":  # no schema key names a channel
            schema = tuple((name, "c") for name, _ in schema)
        unstamped = tmp_path / f"no_{lacking}.model"
        classifiers.save_feature_model(
            dataclasses.replace(stamped, params=params, schema=schema), unstamped)
        assert set(classifiers.load_feature_model(unstamped).params) == set(params)  # it loads
        capsys.readouterr()
        assert main(argv + ["--model-file", str(unstamped)]) == 1
        assert capsys.readouterr().err == ("error: feature model records no window size,"
                                           " sample rate or channel; re-train it\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_placement_names_known_placements(tmp_path, corpus, capsys, command):
    """--placement is a non-empty subset of synth.PLACEMENTS that keeps a
    recording; without it every recording is kept, whatever placement
    labels.csv gives it."""
    out = tmp_path / "out"
    argv = [command, "--corpus", str(corpus), "--W", "128", "--out", str(out)]
    for value, message in (("XX", "unknown placement 'XX', expected subset of "
                                  "('RR', 'LL', 'RL', 'LR')"),
                           (",", "placement set must not be empty"),
                           ("LR,RL", f"{corpus} holds no recording at the placements RL,LR")):
        capsys.readouterr()
        assert main(argv + ["--placement", value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for path in corpus.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.name == "labels.csv":
            text = text.replace(",RR\n", ",XX\n")
        (elsewhere / path.name).write_text(text, encoding="utf-8")
    counts = []
    for corpus_dir, extra in ((corpus, []), (elsewhere, []), (corpus, ["--placement", "LL"]),
                              (elsewhere, ["--placement", "LL"])):
        argv[2] = str(corpus_dir)
        capsys.readouterr()
        assert main(argv + extra) == 0
        if command == "train":
            counts.append(int(capsys.readouterr().out.split()[3]))
        else:
            counts.append(int(csv_dicts(out)[0]["n"]))
    assert counts[0] == counts[1] == 2 * counts[2] == 2 * counts[3]


@pytest.mark.parametrize("flag", ["--models", "--W", "--g"])
def test_evaluate_rejects_an_empty_grid(tmp_path, corpus, capsys, flag):
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["evaluate", "--corpus", str(corpus), flag, ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {flag} must not be empty\n"
    assert not out.exists()


def test_evaluate_kfold_cell_counts(tmp_path, corpus):
    out = tmp_path / "cells.csv"
    json_out = tmp_path / "cells.json"
    rc = main(
        ["evaluate", "--corpus", str(corpus), "--protocol", "kfold", "--k", "5",
         "--models", "dfam", "--W", "64,128", "--g", "1,3",
         "--out", str(out), "--json", str(json_out)]
    )
    assert rc == 0
    rows = csv_dicts(out)
    assert len(rows) == 4  # 1 model x 2 window sizes x 2 bin counts
    by_w = {(r["W"], r["g"]): r for r in rows}
    # 2 participants x 20 activities x floor(500/W) windows
    assert int(by_w[("64", "1")]["n"]) == 2 * 20 * (500 // 64)
    assert int(by_w[("128", "3")]["n"]) == 2 * 20 * (500 // 128)
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert len(payload) == 4
    assert all(0.0 <= cell["report"]["accuracy"] <= 1.0 for cell in payload)
    text = ("protocol", "model", "sensors", "mean_participant_accuracy")  # the last is loso-only
    for r in rows:
        assert list(r) == list(REPORT_HEADER)
        for c in REPORT_HEADER:
            if c not in text:
                float(r[c])  # rejects text such as np.float64(0.5)


def test_evaluate_report_format(tmp_path, corpus):
    """The CSV header, written out; the JSON report's keys; the CSV's
    averaged columns are the JSON's averages."""
    assert REPORT_COLUMNS == REPORT_HEADER
    out, json_out = tmp_path / "loso.csv", tmp_path / "loso.json"
    assert main(["evaluate", "--corpus", str(corpus), "--protocol", "loso", "--models", "nb",
                 "--W", "128", "--out", str(out), "--json", str(json_out)]) == 0
    assert out.read_text(encoding="utf-8").split("\n")[0] == ",".join(REPORT_HEADER)
    (row,) = csv_dicts(out)
    (cell,) = json.loads(json_out.read_text(encoding="utf-8"))
    assert set(cell) == {"cell", "report"} and cell["cell"] == row
    report = cell["report"]
    assert set(report) == {"labels", "confusion", "accuracy", "per_class", "averages"}
    assert set(report["per_class"]) == set(report["labels"])
    for entry in report["per_class"].values():
        assert set(entry) == {"precision", "recall", "f1", "support"}
    assert set(report["averages"]) == {"weighted", "micro", "macro"}
    for name, entry in report["averages"].items():
        assert set(entry) == {"precision", "recall", "f1"}
        for measure, value in entry.items():
            assert row[f"{measure}_{name}"] == repr(value)
    assert row["accuracy"] == repr(report["accuracy"])
    assert float(row["mean_participant_accuracy"]) >= 0.0


def test_evaluate_deterministic(tmp_path, corpus):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["evaluate", "--corpus", str(corpus), "--protocol", "kfold", "--k", "5",
            "--models", "dfam,knn1", "--W", "64", "--g", "3", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_loso(tmp_path, corpus):
    out = tmp_path / "loso.csv"
    rc = main(
        ["evaluate", "--corpus", str(corpus), "--protocol", "loso",
         "--models", "dfam", "--W", "64", "--g", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = csv_dicts(out)
    assert rows[0]["mean_participant_accuracy"] != ""


def test_evaluate_loocv_blocks_per_recording(tmp_path, corpus):
    out = tmp_path / "loocv.csv"
    rc = main(
        ["evaluate", "--corpus", str(corpus), "--protocol", "loocv",
         "--models", "dfam", "--W", "128", "--g", "3", "--out", str(out)]
    )
    assert rc == 0
    rows = csv_dicts(out)
    assert int(rows[0]["n"]) == 2 * 20 * (500 // 128)


def test_replay_flow(tmp_path, corpus):
    s1 = tmp_path / "s1.dfam"
    s3 = tmp_path / "s3.dfam"
    main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64", "--g", "3",
         "--relabel", "moving", "--out", str(s1)]
    )
    main(
        ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64", "--g", "3",
         "--relabel", "distracted", "--out", str(s3)]
    )
    recording = next(
        p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name
    )
    context = tmp_path / "context.csv"
    context.write_text(
        "window_index,smartphone_in_use\n0,0\n1,0\n2,0\n", encoding="utf-8"
    )
    out = tmp_path / "events.jsonl"
    rc = main(
        ["replay", "--recording", str(recording), "--context", str(context),
         "--s1-model", str(s1), "--s3-model", str(s3), "--out", str(out)]
    )
    assert rc == 0
    events = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    for ev in events:
        assert ev["state"] in ("S2", "S3")


def test_replay_context_flags(tmp_path):
    context = tmp_path / "context.csv"
    context.write_text(
        "window_index,smartphone_in_use\n0,1\n1,0\n2,TRUE\n3,false\n4, Yes\n7,NO\n",
        encoding="utf-8",
    )
    assert _read_context(context) == {0: True, 1: False, 2: True, 3: False, 4: True, 7: False}


def test_replay_rejects_context_past_the_last_window(tmp_path, corpus, capsys):
    s1, s3 = tmp_path / "s1.dfam", tmp_path / "s3.dfam"
    train = ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64"]
    assert main(train + ["--relabel", "moving", "--out", str(s1)]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(s3)]) == 0
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    n = len(prepare_bundles(read_recording(recording), 64))
    context, out = tmp_path / "context.csv", tmp_path / "events.jsonl"
    replay = ["replay", "--recording", str(recording), "--context", str(context),
              "--s1-model", str(s1), "--s3-model", str(s3), "--out", str(out)]
    context.write_text(f"window_index,smartphone_in_use\n0,1\n{n - 1},0\n", encoding="utf-8")
    assert main(replay) == 0
    out.unlink()
    context.write_text(f"window_index,smartphone_in_use\n0,1\n{n},0\n", encoding="utf-8")
    capsys.readouterr()
    assert main(replay) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {context}: window_index {n} is past the last window;"
                   f" the recording has {n} windows\n")
    assert not out.exists()


def test_classify_and_replay_warn_once_on_v1_models(tmp_path, corpus, capsys):
    s1, s3 = tmp_path / "s1.dfam", tmp_path / "s3.dfam"
    train = ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64"]
    assert main(train + ["--relabel", "moving", "--out", str(s1)]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(s3)]) == 0
    v1 = {}
    for path in (s1, s3):  # the same models without their channels
        header, body = path.read_text(encoding="utf-8").split("\n", 1)
        assert header.startswith("DFAM v2 ") and " channels=" in header
        v1[path] = tmp_path / f"{path.stem}_v1.dfam"
        v1[path].write_text("DFAM v1 " + header[8:].split(" channels=")[0] + "\n" + body,
                            encoding="utf-8")
        assert load_model(v1[path]).channels is None
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)

    def run(command, s1_model, s3_model):
        out = tmp_path / command
        argv = ["classify", "--model-file", str(s3_model)] if command == "classify" else [
            "replay", "--s1-model", str(s1_model), "--s3-model", str(s3_model)]
        capsys.readouterr()
        assert main(argv + ["--recording", str(recording), "--out", str(out)]) == 0
        return out.read_bytes(), capsys.readouterr().err

    warning = ("warning: {}: DFAM v1 model files record no channels;"
               " the channels they are applied to are not checked\n")
    for command in ("classify", "replay"):
        checked, err = run(command, s1, s3)
        assert err == ""
        assert run(command, v1[s1], v1[s3]) == (
            checked,
            warning.format(v1[s3] if command == "classify" else f"{v1[s1]}, {v1[s3]}"),
        )
    assert run("replay", s1, v1[s3]) == (checked, warning.format(v1[s3]))


def test_replay_rejects_models_that_window_apart(tmp_path, corpus, capsys):
    s1, s3 = tmp_path / "s1.dfam", tmp_path / "s3.dfam"
    train = ["train", "--corpus", str(corpus), "--model", "dfam"]
    assert main(train + ["--W", "64", "--relabel", "moving", "--out", str(s1)]) == 0
    assert main(train + ["--W", "128", "--relabel", "distracted", "--out", str(s3)]) == 0
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    out = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["replay", "--recording", str(recording), "--s1-model", str(s1),
                 "--s3-model", str(s3), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the S1 model reads W=64 at 50.0 Hz but the S3 model W=128 at 50.0 Hz;"
        " both must window the stream alike\n"
    )
    assert not out.exists()


def test_classify_and_replay_read_at_the_model_s_sample_rate(tmp_path, capsys):
    """A corpus gen writes at 100 Hz trains with no flag into models that
    record 100 Hz, and they read a recording at 100 Hz with no flag."""
    corpus = tmp_path / "corpus"
    assert main(["gen", "--out", str(corpus), "--participants", "1", "--duration", "10",
                 "--fs", "100"]) == 0
    train = ["train", "--corpus", str(corpus), "--W", "64"]
    paths = {name: tmp_path / name for name in ("s1", "s3", "knn3")}
    assert main(train + ["--relabel", "moving", "--out", str(paths["s1"])]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(paths["s3"])]) == 0
    assert main(train + ["--model", "knn3", "--out", str(paths["knn3"])]) == 0
    for name in ("s1", "s3"):
        assert paths[name].read_text(encoding="utf-8").startswith("DFAM v2 W=64 fs=100.0 g=3 ")
    assert pipeline.load_any_model(paths["knn3"]).params["sample_rate_hz"] == 100.0
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    bundles = prepare_bundles(read_recording(recording), 64)
    assert len(bundles) == 1000 // 64
    labels = tmp_path / "labels.csv"
    for name in ("s3", "knn3"):
        model = pipeline.load_any_model(paths[name])
        kind = classifiers.kind_of(model)
        layout = model.layout if kind.signature else None
        expected = [kind.predict(model, pipeline.window_payload(kind, b, 100.0, layout))[0]
                    for b in bundles]
        assert main(["classify", "--model-file", str(paths[name]), "--recording", str(recording),
                     "--out", str(labels)]) == 0
        assert [row["label"] for row in csv_dicts(labels)] == expected
    s1, s3 = (pipeline.load_any_model(paths[name]) for name in ("s1", "s3"))
    steps = list(pipeline.replay(read_recording(recording), s1, s3, DEFAULT_RESET_PERIOD,
                                 lambda n: {}))
    expected = tmp_path / "expected.jsonl"
    write_events_jsonl([event for _, event in steps if event is not None], expected)
    events = tmp_path / "events.jsonl"
    capsys.readouterr()
    assert main(["replay", "--recording", str(recording), "--s1-model", str(paths["s1"]),
                 "--s3-model", str(paths["s3"]), "--out", str(events)]) == 0
    assert capsys.readouterr().out.startswith(f"replayed {len(bundles)} windows: ")
    assert events.read_bytes() == expected.read_bytes() != b""


def test_classify_and_replay_refuse_a_recording_at_another_rate(tmp_path, corpus, capsys):
    """Models trained on the 50 Hz corpus, a recording stamped 10 ms apart."""
    models = {name: tmp_path / f"{name}.model" for name in ("s1", "s3", "nb")}
    train = ["train", "--corpus", str(corpus), "--W", "64"]
    assert main(train + ["--relabel", "moving", "--out", str(models["s1"])]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(models["s3"])]) == 0
    assert main(train + ["--model", "nb", "--out", str(models["nb"])]) == 0
    source = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    recording = retime(source, tmp_path / source.name, 0.5)
    out = tmp_path / "out"
    for argv in (["classify", "--model-file", str(models["s3"])],
                 ["classify", "--model-file", str(models["nb"])],
                 ["replay", "--s1-model", str(models["s1"]), "--s3-model", str(models["s3"])]):
        capsys.readouterr()
        assert main(argv + ["--recording", str(recording), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {recording}: the phone/acc stream is"
                                           " sampled at 100.0 Hz, not 50.0 Hz\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("odd", [0, -1])
def test_a_corpus_at_two_rates_is_an_error_naming_both(tmp_path, corpus, capsys, command, odd):
    """One recording stamped at 100 Hz among 50 Hz ones, first or last: the
    error names it and a 50 Hz one, whichever the commands meet first."""
    ids = sorted(p.stem for p in corpus.glob("*.csv") if p.name != "labels.csv")
    mixed = retimed(corpus, tmp_path / "corpus", 0.5, ids={ids[odd]})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--corpus", str(mixed), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    head, _, tail = err.partition(" on the sample rate: ")
    assert tail == "the phone/acc stream is sampled at 100.0 Hz, not 50.0 Hz\n"
    off, _, ref = head.removeprefix("error: ").partition(" disagrees with ")
    assert off == ids[odd]
    assert ref in set(ids) - {ids[odd]}
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_corpus_without_recordings_is_an_error(tmp_path, capsys, command):
    (tmp_path / "labels.csv").write_text("recording_id,participant_id,label,placement\n",
                                         encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--corpus", str(tmp_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path} holds no recording\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "row", ["x1,1", "0", "0,1,1", "1,2", "1,Y", "1,on", "1,", "-1,1", "0,1", "0,0", "1_0,1",
            "+1,1", "\u0661,1"]
)
def test_replay_context_bad_row(tmp_path, row):
    context = tmp_path / "context.csv"
    context.write_text(f"window_index,smartphone_in_use\n0,0\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as e:
        _read_context(context)
    assert e.value.line == 3


@pytest.mark.parametrize(
    "spec, header",
    [
        ("dfam", "DFAM v2 W=128 "),
        ("nb", "MODEL v1 kind=naive_bayes"),
        ("knn3", "MODEL v1 kind=knn"),
        ("dt", "MODEL v1 kind=decision_tree"),
        ("rf", "MODEL v1 kind=random_forest"),
        ("svm", "MODEL v1 kind=svm"),
    ],
)
def test_model_kinds_train_and_classify(tmp_path, corpus, spec, header):
    assert str(ModelSpec.parse(spec)) == spec
    model = tmp_path / "m"
    rc = main(["train", "--corpus", str(corpus), "--model", spec, "--W", "128",
               "--out", str(model)])
    assert rc == 0
    assert model.read_text(encoding="utf-8").split("\n", 1)[0].startswith(header)
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    out = tmp_path / "labels.csv"
    rc = main(["classify", "--model-file", str(model), "--recording", str(recording),
               "--out", str(out)])
    assert rc == 0
    assert len(csv_dicts(out)) == 500 // 128  # every model windows at its own W


@pytest.mark.parametrize("subset", [("--devices", "phone"), ("--devices", "watch"),
                                    ("--sensors", "acc")], ids=["phone", "watch", "acc"])
@pytest.mark.parametrize("spec", ["dfam", "nb", "knn3", "rf"])
def test_a_model_on_a_channel_subset_classifies_a_full_recording(tmp_path, corpus, spec, subset):
    """Every kind reads the channels it was trained on from a recording of
    all twelve, with no flag: the labels of its windows of exactly those."""
    flag, value = subset
    path = tmp_path / "model"
    assert main(["train", "--corpus", str(corpus), "--model", spec, flag, value,
                 "--out", str(path)]) == 0
    recording = corpus / "p00_walking_RR.csv"
    series = read_recording(recording)
    assert len(series) == 12
    kept = {ch: s for ch, s in series.items()
            if (ch.device if flag == "--devices" else ch.sensor) == value}
    model = pipeline.load_any_model(path)
    kind = classifiers.kind_of(model)
    layout = model.layout if kind.signature else None
    expected = [kind.predict(model, pipeline.window_payload(kind, b, 50.0, layout))[0]
                for b in prepare_bundles(kept, 128)]
    out = tmp_path / "labels.csv"
    assert main(["classify", "--model-file", str(path), "--recording", str(recording),
                 "--out", str(out)]) == 0
    assert [row["label"] for row in csv_dicts(out)] == expected


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(
        ["bench", "--models", "dfam,knn1", "--train-size", "30", "--windows", "4",
         "--reps", "2", "--W", "128", "--out", str(out)]
    )
    assert rc == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"dfam", "knn1"}
    for entry in data.values():
        assert entry["windows"] == 4 and entry["repetitions"] == 2
        assert entry["min_ms"] <= entry["median_ms"] <= entry["p95_ms"]


@pytest.mark.parametrize("flag, value, message", [
    ("--reps", "0", "repetitions must be >= 1, got 0"),
    ("--fs", "0", "sample_rate_hz must be a positive finite number, got 0.0"),
    ("--fs", "-5", "sample_rate_hz must be a positive finite number, got -5.0"),
    ("--fs", "inf", "sample_rate_hz must be a positive finite number, got inf"),
])
def test_bench_rejects_degenerate_arguments(flag, value, message, monkeypatch, capsys):
    def no_corpus(*args, **kwargs):
        raise AssertionError("a corpus was built before the arguments were checked")

    monkeypatch.setattr(bench_mod, "make_corpus", no_corpus)
    capsys.readouterr()
    assert main(["bench", "--models", "knn1", "--train-size", "5", "--windows", "2",
                 flag, value]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_evaluate_and_bench_models_record_their_channels(tmp_path, corpus, monkeypatch):
    built = []
    train = dfam.train_from_signatures

    def spy(*args, **kwargs):
        built.append(train(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dfam, "train_from_signatures", spy)
    assert main(["evaluate", "--corpus", str(corpus), "--protocol", "kfold", "--k", "2",
                 "--models", "dfam", "--W", "128", "--g", "1", "--sensors", "acc",
                 "--out", str(tmp_path / "report.csv")]) == 0
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    acc = tuple(sorted(ch for ch in read_recording(recording) if ch.sensor == "acc"))
    assert len(acc) == 6
    assert len(built) == 2 and all(model.channels == acc for model in built)
    built.clear()
    bench_mod.run_benchmark([ModelSpec.parse("dfam")], train_size=12, n_test=2,
                            window_size=64, repetitions=1)
    every = tuple(sorted(bench_mod.build_bench_windows(12, 2, 64)[0][0][1]))
    assert len(every) == 12
    assert len(built) == 1 and built[0].channels == every


def test_bench_times_every_dfam_window_with_its_own_transforms(monkeypatch):
    """Each timed DFAM call runs one rfft per channel on its window alone: no
    spectrum cached by training, warm-up or an earlier repetition is read."""
    rfft = np.fft.rfft
    rows = []  # rows transformed by each rfft call, in order
    ticks = []  # len(rows) at each read of the benchmark's clock

    def counting_rfft(a, *args, **kwargs):
        rows.append(1 if np.ndim(a) == 1 else np.shape(a)[0])
        return rfft(a, *args, **kwargs)

    def clock():
        ticks.append(len(rows))
        return time.perf_counter()

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    monkeypatch.setattr(bench_mod, "time", SimpleNamespace(perf_counter=clock))
    n_channels = len(bench_mod.build_bench_windows(12, 5, 64)[1][0][1])
    bench_mod.run_benchmark([ModelSpec.parse("dfam")], train_size=12, n_test=5,
                            window_size=64, repetitions=3)
    assert len(ticks) == 2 * 5 * 3
    for start, stop in zip(ticks[::2], ticks[1::2]):
        assert rows[start:stop] == [1] * n_channels


def test_malformed_recording_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "timestamp_ms,device,sensor,x,y,z\n0,phone,acc,1,2,3\n20,phone,acc,x,2,3\n",
        encoding="utf-8",
    )
    model = tmp_path / "m.dfam"
    axes = "|".join(["1"] * 12)
    model.write_text(
        f"DFAM v1 W=64 fs=50.0 g=1 axes=12 bounds=\nwalking;{axes}\n", encoding="utf-8"
    )
    rc = main(
        ["classify", "--model-file", str(model), "--recording", str(bad),
         "--out", str(tmp_path / "out.csv")]
    )
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def hierarchy_models(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("models")
    train = ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64"]
    assert main(train + ["--relabel", "moving", "--out", str(out / "s1.dfam")]) == 0
    assert main(train + ["--relabel", "distracted", "--out", str(out / "s3.dfam")]) == 0
    return out / "s1.dfam", out / "s3.dfam"


def two_recordings(root, corpus, keep):
    """Copy the corpus's first two recordings into root as a corpus whose
    first recording holds only the rows keep(rows) yields. Returns their ids
    and the path of that first recording."""
    labels = (corpus / "labels.csv").read_text(encoding="utf-8").splitlines()[:3]
    ids = [line.split(",")[0] for line in labels[1:]]
    (root / "labels.csv").write_text("\n".join(labels) + "\n", encoding="utf-8")
    for rec_id in ids:
        (root / f"{rec_id}.csv").write_bytes((corpus / f"{rec_id}.csv").read_bytes())
    bad = root / f"{ids[0]}.csv"
    header, *rows = bad.read_text(encoding="utf-8").splitlines(keepends=True)
    bad.write_text(header + "".join(keep(rows)), encoding="utf-8")
    return ids, bad


@pytest.mark.parametrize("sensors", ["acc,gyr", "acc"])
@pytest.mark.parametrize("command", ["train", "evaluate", "classify", "replay"])
def test_recording_without_samples_is_a_parse_error(tmp_path, corpus, hierarchy_models, capsys,
                                                    command, sensors):
    """A recording with a header and no rows is a parse error that names its
    file. One with rows of the gyroscope alone lacks the accelerometer
    channels that --sensors acc names, or that the models of classify and
    replay read: the error names its id in train and evaluate, its path in
    classify and replay."""
    ids, bad = two_recordings(tmp_path, corpus,
                              lambda rows: (r for r in rows if sensors == "acc" and ",gyr," in r))
    out = tmp_path / "out"
    s1, s3 = hierarchy_models
    argv = {
        "train": ["train", "--corpus", str(tmp_path), "--sensors", sensors],
        "evaluate": ["evaluate", "--corpus", str(tmp_path), "--k", "2", "--sensors", sensors],
        "classify": ["classify", "--model-file", str(s3), "--recording", str(bad)],
        "replay": ["replay", "--s1-model", str(s1), "--s3-model", str(s3), "--recording", str(bad)],
    }[command]
    name, message = bad, "no sample rows"
    if sensors == "acc":
        name = ids[0] if command in ("train", "evaluate") else bad
        message = ("the model reads channels phone_acc_x,phone_acc_y,phone_acc_z,watch_acc_x,"
                   "watch_acc_y,watch_acc_z, which the recording lacks")
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {name}: {message}\n"
    assert not out.exists()


def _kept_rows(rows, case):
    """The rows of a recording that each windowing fault keeps."""
    if case == "short":  # five samples of each stream
        seen = {}
        for row in rows:
            key = tuple(row.split(",")[1:3])
            seen[key] = seen.get(key, 0) + 1
            if seen[key] <= 5:
                yield row
    elif case == "misaligned":  # the watch gyroscope stops after 200 samples
        yield from [r for r in rows if ",watch,gyr," not in r] + [
            r for r in rows if ",watch,gyr," in r][:200]
    else:  # the phone alone
        yield from (r for r in rows if ",phone," in r)


@pytest.mark.parametrize("command", ["train", "evaluate", "classify", "replay"])
@pytest.mark.parametrize("case", ["short", "misaligned", "phone_only"])
def test_windowing_errors_name_their_recording(tmp_path, corpus, hierarchy_models, capsys,
                                               case, command):
    """train and evaluate name a recording by its id, classify and replay by
    its path."""
    ids, bad = two_recordings(tmp_path, corpus, lambda rows: _kept_rows(rows, case))
    s1, s3 = hierarchy_models  # W=64, as train and evaluate run here
    argv = {
        "train": ["train", "--corpus", str(tmp_path), "--W", "64"],
        "evaluate": ["evaluate", "--corpus", str(tmp_path), "--k", "2", "--W", "64"],
        "classify": ["classify", "--model-file", str(s3), "--recording", str(bad)],
        "replay": ["replay", "--s1-model", str(s1), "--s3-model", str(s3), "--recording", str(bad)],
    }[command]
    name = ids[0] if command in ("train", "evaluate") else bad
    message = {
        "short": f"{name}: series of length 5 is shorter than one window of 64",
        "misaligned": f"{name}: channels yield differing window counts: [3, 7]",
        "phone_only": f"{name}: the model reads channels watch_acc_x,watch_acc_y,watch_acc_z,"
                      "watch_gyr_x,watch_gyr_y,watch_gyr_z, which the recording lacks",
    }[case]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_replay_reports_the_first_of_two_faults_in_its_check_order(tmp_path, corpus,
                                                                  hierarchy_models, capsys):
    """The recording is windowed before the context file is read, the context
    is checked before the models' channels, and the v1 warning comes before
    the first window is processed."""
    s1, s3 = hierarchy_models
    recording = next(p for p in sorted(corpus.iterdir()) if "walking+eating" in p.name)
    header, *rows = recording.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = [i for i, row in enumerate(rows) if ",watch,gyr," in row][-100:]
    misaligned = tmp_path / "misaligned.csv"  # its watch gyroscope ends 2 s early
    misaligned.write_text(header + "".join(r for i, r in enumerate(rows) if i not in cut),
                          encoding="utf-8")
    bad_context, past_context = tmp_path / "bad.csv", tmp_path / "past.csv"
    bad_context.write_text("window_index,smartphone_in_use\n0,maybe\n", encoding="utf-8")
    past_context.write_text("window_index,smartphone_in_use\n0,1\n99,0\n", encoding="utf-8")
    s1_phone, s3_acc = tmp_path / "s1_phone.dfam", tmp_path / "s3_acc.dfam"
    train = ["train", "--corpus", str(corpus), "--model", "dfam", "--W", "64"]
    assert main(train + ["--devices", "phone", "--relabel", "moving", "--out", str(s1_phone)]) == 0
    assert main(train + ["--sensors", "acc", "--relabel", "distracted", "--out", str(s3_acc)]) == 0
    s1_v1 = tmp_path / "s1_phone_v1.dfam"
    head, body = s1_phone.read_text(encoding="utf-8").split("\n", 1)
    s1_v1.write_text("DFAM v1 " + head[8:].split(" channels=")[0] + "\n" + body, encoding="utf-8")
    out = tmp_path / "events.jsonl"
    cases = [
        (misaligned, bad_context, s1, s3,
         f"error: {misaligned}: channels yield differing window counts: [6, 7]\n"),
        (recording, past_context, s1, s3_acc,
         f"error: {past_context}: window_index 99 is past the last window;"
         " the recording has 7 windows\n"),
        (recording, None, s1_v1, s3,
         f"warning: {s1_v1}: DFAM v1 model files record no channels;"
         " the channels they are applied to are not checked\n"
         "error: test signature is 12x3, model expects 6x3\n"),
    ]
    for rec, context, s1_model, s3_model, err in cases:
        argv = ["replay", "--recording", str(rec), "--s1-model", str(s1_model),
                "--s3-model", str(s3_model), "--out", str(out)]
        capsys.readouterr()
        assert main(argv + (["--context", str(context)] if context else [])) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()


@pytest.mark.parametrize(
    "text", [b"DFAM v1 W=64 \xff\n", b'MODEL v1 kind=knn\n{"labels": ["\xff"]}\n']
)
def test_classify_model_file_not_utf8(tmp_path, corpus, capsys, text):
    model = tmp_path / "m"
    model.write_bytes(text)
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    rc = main(["classify", "--model-file", str(model), "--recording", str(recording),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 1
    assert "is not UTF-8" in capsys.readouterr().err


def test_classify_misfit_model_params(tmp_path, corpus, capsys):
    model = tmp_path / "knn3.model"
    assert main(["train", "--corpus", str(corpus), "--model", "knn3", "--W", "128",
                 "--out", str(model)]) == 0
    header, body = model.read_text(encoding="utf-8").split("\n", 1)
    body = json.loads(body)
    body["params"]["X"] = [[1.0, 2.0]]
    model.write_text(header + "\n" + json.dumps(body) + "\n", encoding="utf-8")
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    capsys.readouterr()
    rc = main(["classify", "--model-file", str(model), "--recording", str(recording),
               "--out", str(tmp_path / "out.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{model}: line 2: param X has shape 1x2, expected nx112" in err
    assert "Traceback" not in err


@pytest.fixture
def overflowing_corpus(tmp_path, corpus):
    """A copy of the corpus whose first recording's last column is scaled by
    1e200: finite samples whose features overflow. Returns (corpus, that id)."""
    bad = tmp_path / "corpus"
    bad.mkdir()
    for path in corpus.iterdir():
        (bad / path.name).write_bytes(path.read_bytes())
    recording = next(p for p in sorted(bad.iterdir()) if p.name != "labels.csv")
    head, *rows = recording.read_text(encoding="utf-8").splitlines()
    rows = [row[: row.rindex(",") + 1] + repr(float(row[row.rindex(",") + 1 :]) * 1e200)
            for row in rows]  # finite samples, all in the last column
    recording.write_text("\n".join([head, *rows]) + "\n", encoding="utf-8")
    return bad, recording.stem


def test_train_rejects_overflowing_features(tmp_path, overflowing_corpus, capsys):
    bad, recording_id = overflowing_corpus
    out = tmp_path / "rf.model"
    capsys.readouterr()
    rc = main(["train", "--corpus", str(bad), "--model", "rf", "--W", "128", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {recording_id}: window 0: non-finite feature "), err
    assert "Traceback" not in err
    assert not out.exists()


def test_evaluate_names_the_recording_of_overflowing_features(tmp_path, overflowing_corpus,
                                                             capsys):
    bad, recording_id = overflowing_corpus
    out = tmp_path / "report.csv"
    capsys.readouterr()
    rc = main(["evaluate", "--corpus", str(bad), "--protocol", "loso", "--models", "nb",
               "--W", "128", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {recording_id}: window 0: non-finite feature "), err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_rate_too_large_for_a_bin_index_is_an_error(tmp_path, corpus, capsys, command):
    """Stamps 5e-307 times the corpus's 20 ms apart read at 1e308 Hz exactly."""
    fast = retimed(corpus, tmp_path / "corpus", 5e-307)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--corpus", str(fast), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: sample rate 1e+308 Hz is too large to compute"
                                       " DFT bins at window size 128\n")
    assert not out.exists()


def test_train_and_evaluate_window_exactly_the_channels_their_flags_name(tmp_path, corpus,
                                                                        capsys):
    """A corpus without gyroscope rows lacks channels the default --sensors
    names: an error that names a recording. With --sensors acc the report's
    sensors cell and the channels the DFAM file records agree."""
    acc_corpus = tmp_path / "corpus"
    acc_corpus.mkdir()
    for path in corpus.iterdir():
        rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        (acc_corpus / path.name).write_text("".join(r for r in rows if ",gyr," not in r),
                                            encoding="utf-8")
    first = csv_dicts(corpus / "labels.csv")[0]["recording_id"]
    model, report = tmp_path / "acc.dfam", tmp_path / "report.csv"
    train = ["train", "--corpus", str(acc_corpus), "--out", str(model)]
    evaluate = ["evaluate", "--corpus", str(acc_corpus), "--k", "2", "--out", str(report)]
    for argv in (train, evaluate):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {first}: the model reads channels phone_gyr_x,phone_gyr_y,phone_gyr_z,"
            "watch_gyr_x,watch_gyr_y,watch_gyr_z, which the recording lacks\n")
    assert not model.exists() and not report.exists()
    assert main(train + ["--sensors", "acc"]) == 0
    assert main(evaluate + ["--sensors", "acc"]) == 0
    header = model.read_text(encoding="utf-8").split("\n", 1)[0]
    assert header.endswith(" channels=phone_acc_x,phone_acc_y,phone_acc_z,"
                           "watch_acc_x,watch_acc_y,watch_acc_z")
    sensors = {CHANNEL_BY_KEY[key].sensor for key in header.split(" channels=")[1].split(",")}
    (row,) = csv_dicts(report)
    assert row["sensors"] == "+".join(sorted(sensors)) == "acc"


def test_model_channels_guard_classify_and_replay(tmp_path, corpus, capsys):
    paths = {name: tmp_path / name for name in ("s1", "s1_acc", "s3", "s3_acc")}
    base = ["train", "--corpus", str(corpus), "--model", "dfam"]
    for name, extra in (("s1", ["--devices", "phone", "--relabel", "moving"]),
                        ("s1_acc", ["--devices", "phone", "--sensors", "acc",
                                    "--relabel", "moving"]),
                        ("s3", ["--relabel", "distracted"]),
                        ("s3_acc", ["--sensors", "acc", "--relabel", "distracted"])):
        assert main(base + extra + ["--out", str(paths[name])]) == 0
    s1 = paths["s1"]
    assert s1.read_text(encoding="utf-8").split("\n", 1)[0].endswith(
        " channels=phone_acc_x,phone_acc_y,phone_acc_z,phone_gyr_x,phone_gyr_y,phone_gyr_z"
    )
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    out = tmp_path / "labels.csv"
    # the model's six phone axes are windowed, not all twelve the recording holds
    assert main(["classify", "--model-file", str(s1), "--recording", str(recording),
                 "--out", str(out)]) == 0
    model = load_model(s1)
    phone = {ch: s for ch, s in read_recording(recording).items() if ch.device == "phone"}
    bundles = prepare_bundles(phone, 128)
    expected = [classify(extract_signature(bundle_spectra(b, 50.0), model.layout), model).label
                for b in bundles]
    assert [row["label"] for row in csv_dicts(out)] == expected
    # a recording of the accelerometers alone lacks the model's gyr channels
    header, *rows = recording.read_text(encoding="utf-8").splitlines(keepends=True)
    acc_only = tmp_path / "acc_only.csv"
    acc_only.write_text(header + "".join(r for r in rows if ",acc," in r), encoding="utf-8")
    capsys.readouterr()
    assert main(["classify", "--model-file", str(s1), "--recording", str(acc_only),
                 "--out", str(tmp_path / "other.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {acc_only}: the model reads channels phone_gyr_x,phone_gyr_y,phone_gyr_z,"
        " which the recording lacks\n")
    replay = ["replay", "--recording", str(recording), "--out", str(tmp_path / "events.jsonl")]
    for s1_name, s3_name in (("s1", "s3"), ("s1_acc", "s3_acc")):  # S1 reads some of S3's
        assert main(replay + ["--s1-model", str(paths[s1_name]),
                              "--s3-model", str(paths[s3_name])]) == 0
    capsys.readouterr()
    assert main(replay + ["--s1-model", str(s1), "--s3-model", str(paths["s3_acc"])]) == 1
    assert capsys.readouterr().err == (
        "error: the S1 model reads channels phone_acc_x,phone_acc_y,phone_acc_z,phone_gyr_x,"
        "phone_gyr_y,phone_gyr_z; replay windows only the S3 model's phone_acc_x,phone_acc_y,"
        "phone_acc_z,watch_acc_x,watch_acc_y,watch_acc_z\n")


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["train", "--corpus", "x"])  # missing --out
    assert e.value.code == 2
    # each command declares only the options it reads; the model file gives
    # classify and replay the window size, sample rate and channels, and no
    # command sets the low-pass cutoff (signals.DEFAULT_CUTOFF_HZ)
    classify = ["classify", "--model-file", "m", "--recording", "r", "--out", "o"]
    replay = ["replay", "--recording", "r", "--s1-model", "a", "--s3-model", "b", "--out", "o"]
    cutoff = ["--cutoff", "10"]
    # the recordings' timestamps give the sample rate to all but gen and bench
    for argv in (classify + ["--seed", "1"], classify + ["--W", "128"], classify + ["--fs", "50"],
                 classify + ["--sensors", "acc"], replay + ["--seed", "1"],
                 replay + ["--s1-channels", "phone"], replay + ["--fs", "50"],
                 replay + ["--sensors", "acc"], ["bench", "--sensors", "acc"],
                 ["train", "--corpus", "c", "--out", "o", "--fs", "50"],
                 ["evaluate", "--corpus", "c", "--out", "o", "--fs", "50"],
                 ["train", "--corpus", "c", "--out", "o"] + cutoff, classify + cutoff,
                 ["evaluate", "--corpus", "c", "--out", "o"] + cutoff, replay + cutoff,
                 ["bench"] + cutoff):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
    # a seed is a non-negative integer (numpy rejects a negative one)
    for argv in (["gen", "--out", "c"], ["train", "--corpus", "c", "--model", "dfam", "--out", "o"],
                 ["evaluate", "--corpus", "c", "--out", "o"], ["bench"]):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--seed", "-1"])
        assert e.value.code == 2


OPTIONS = {
    "gen": ("--out", "--participants", "--duration", "--noise", "--jitter", "--placements",
            "--fs", "--seed"),
    "train": ("--corpus", "--model", "--W", "--g", "--placement", "--devices", "--relabel",
              "--allow-any-w", "--out", "--seed", "--sensors"),
    "classify": ("--model-file", "--recording", "--out"),
    "evaluate": ("--corpus", "--protocol", "--k", "--models --model", "--W", "--g",
                 "--placement", "--allow-any-w", "--out", "--json", "--seed", "--sensors"),
    "replay": ("--recording", "--context", "--s1-model", "--s3-model", "--reset", "--out"),
    "bench": ("--models --model", "--train-size", "--windows", "--W", "--g", "--reps",
              "--noise", "--allow-any-w", "--out", "--fs", "--seed"),
}


def test_option_inventory():
    """Every command's options, by their spellings: a change that adds or
    removes one edits this list."""
    (commands,) = (a for a in build_parser()._actions if a.choices)
    found = {name: tuple(" ".join(a.option_strings) for a in p._actions if a.dest != "help")
             for name, p in commands.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 51


def readme_commands():
    """Every `dfam-car ...` command in README.md's sh blocks, its continued
    lines joined, as an argument list."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    text = "\n".join(blocks).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("dfam-car ")]


def test_readme_commands_parse():
    """A flag that leaves the CLI cannot linger in the README."""
    commands = readme_commands()
    assert len(commands) == 9
    for argv in commands:
        build_parser().parse_args(argv)
