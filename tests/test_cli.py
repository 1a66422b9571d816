import csv
import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import rfft_spectrum
from dfam_car import bench as bench_mod
from dfam_car import pipeline
from dfam_car.cli import REPORT_COLUMNS, _read_context, main
from dfam_car.dfam import classify, extract_signature, load_model
from dfam_car.errors import ParseError
from dfam_car.pipeline import ModelSpec, bundle_spectra, prepare_bundles
from dfam_car.signals import read_recording


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


def test_classify_recording(tmp_path, corpus, capsys):
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
    assert len(rows) == 500 // 64
    # a DFAM model windows recordings at its own W; another --W is an error
    argv = ["classify", "--model-file", str(model_path), "--recording", str(recording),
            "--out", str(tmp_path / "other.csv")]
    assert main(argv + ["--W", "64"]) == 0
    assert main(argv + ["--W", "128"]) == 1
    assert "window size 64" in capsys.readouterr().err
    truth = recording.name.split("_", 1)[1].rsplit("_", 1)[0]
    correct = sum(1 for r in rows if r["label"] == truth)
    assert correct >= len(rows) // 2  # model saw this recording during training


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
        for c in REPORT_COLUMNS:
            if c not in text:
                float(r[c])  # rejects text such as np.float64(0.5)


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


@pytest.mark.parametrize(
    "row", ["x1,1", "0", "0,1,1", "1,2", "1,Y", "1,on", "1,", "-1,1", "0,1", "0,0"]
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
    assert len(csv_dicts(out)) == 500 // 128
    # --W overrides a feature model's window size and must match a DFAM model's
    rc = main(["classify", "--model-file", str(model), "--recording", str(recording),
               "--W", "64", "--out", str(out)])
    assert rc == (1 if spec == "dfam" else 0)
    if rc == 0:
        assert len(csv_dicts(out)) == 500 // 64


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


def test_model_channels_guard_classify_and_replay(tmp_path, corpus, capsys):
    s1, s3, s3_acc = tmp_path / "s1", tmp_path / "s3", tmp_path / "s3_acc"
    base = ["train", "--corpus", str(corpus), "--model", "dfam"]
    assert main(base + ["--devices", "phone", "--relabel", "moving", "--out", str(s1)]) == 0
    assert main(base + ["--relabel", "distracted", "--out", str(s3)]) == 0
    assert main(base + ["--sensors", "acc", "--relabel", "distracted", "--out", str(s3_acc)]) == 0
    assert s1.read_text(encoding="utf-8").split("\n", 1)[0].endswith(
        " channels=phone_acc_x,phone_acc_y,phone_acc_z,phone_gyr_x,phone_gyr_y,phone_gyr_z"
    )
    recording = next(p for p in sorted(corpus.iterdir()) if p.name != "labels.csv")
    out = tmp_path / "labels.csv"
    classify_args = ["classify", "--model-file", str(s1), "--recording", str(recording),
                     "--out", str(out)]
    # the model's six phone axes are windowed, not all twelve --sensors selects
    assert main(classify_args) == 0
    model = load_model(s1)
    bundles = prepare_bundles(read_recording(recording), 128, devices=("phone",))
    expected = [classify(extract_signature(bundle_spectra(b, 50.0), model.layout), model).label
                for b in bundles]
    assert [row["label"] for row in csv_dicts(out)] == expected
    # --sensors acc leaves out the model's gyr channels
    capsys.readouterr()
    assert main(classify_args + ["--sensors", "acc"]) == 1
    assert "phone_gyr_x,phone_gyr_y,phone_gyr_z" in capsys.readouterr().err
    replay = ["replay", "--recording", str(recording), "--s1-model", str(s1),
              "--out", str(tmp_path / "events.jsonl")]
    assert main(replay + ["--s3-model", str(s3), "--s1-channels", "phone"]) == 0
    assert main(replay + ["--s3-model", str(s3)]) == 1  # S1 would get all twelve axes
    assert "S1 model reads channels" in capsys.readouterr().err
    assert main(replay + ["--s3-model", str(s3_acc), "--s1-channels", "phone"]) == 1
    assert "S3 model reads channels" in capsys.readouterr().err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["train", "--corpus", "x"])  # missing --out
    assert e.value.code == 2
