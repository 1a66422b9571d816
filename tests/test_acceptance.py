"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import replay, series
from dfam_car import bench as bench_mod
from dfam_car import classifiers as clf
from dfam_car import dfam, evaluate, pipeline
from dfam_car.cli import main as cli_main
from dfam_car.dfam import ActivityLabel, BinLayout, Signature
from dfam_car.evaluate import ConfusionMatrix, Instance, kfold, loocv_blocks, loso, metrics
from dfam_car.features import FeatureVector
from dfam_car.hierarchy import MOVING_LABEL, HierarchicalCar
from dfam_car.signals import segment, spectrum
from dfam_car.synth import build_profile, generate, make_corpus

FS = 50.0
WINDOW_SIZES = (32, 64, 128, 256, 512)


def _criterion(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpora():
    t0 = time.monotonic()
    clean = make_corpus(participants=5, duration_s=30.0, noise_std=0.0, seed=123)
    noisy = make_corpus(participants=5, duration_s=30.0, noise_std=0.5, seed=123)
    return clean, noisy, time.monotonic() - t0


def _dfam_kfold_accuracy(recordings, g, w, sensors=("acc", "gyr")):
    recordings = [dataclasses.replace(rec, series={
        ch: s for ch, s in rec.series.items() if ch.sensor in sensors}) for rec in recordings]
    layout = BinLayout.equal_width(g, FS)
    instances = pipeline.signature_instances(recordings, w, layout)
    train_fn, predict_fn = pipeline.trainer_for(pipeline.ModelSpec.parse("dfam"), layout, w, 0)
    report = kfold(instances, train_fn, predict_fn, k=10, seed=0)
    return report.accuracy


def test_spectral_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for w in WINDOW_SIZES:
        rng = np.random.default_rng(1000 + w)
        k = np.arange(w // 2 + 1)
        basis = np.exp(-2j * np.pi * np.outer(k, np.arange(w)) / w)
        for _ in range(100):
            vals = rng.normal(size=w)
            got = spectrum(segment(series(vals), w)[0], FS).bin_magnitudes
            oracle = np.abs(basis @ vals)
            scale = np.maximum(np.abs(oracle), 1.0)
            worst = max(worst, float(np.max(np.abs(got - oracle) / scale)))
    elapsed = time.monotonic() - t0
    _criterion(
        "spectral oracle: FFT matches direct O(W^2) DFT at 1e-9 for all W",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_scoring_closed_form():
    ok = True
    for s in (1, 3, 6, 12):
        for c in range(s + 1):
            a = Signature(tuple((i, i + 1) for i in range(s)))
            b = Signature(
                tuple((i, i + 1) if i < c else (i + 50, i + 51) for i in range(s))
            )
            ok = ok and dfam.match_score(a, b) == (c / s) ** s
    _criterion("scoring closed form: match_score equals (c/s)^s exactly", ok)


def test_dfam_separability(corpora):
    clean, noisy, gen_seconds = corpora
    t0 = time.monotonic()
    clean_acc = _dfam_kfold_accuracy(clean, g=3, w=128)
    noisy_g3 = _dfam_kfold_accuracy(noisy, g=3, w=128)
    noisy_g1 = _dfam_kfold_accuracy(noisy, g=1, w=128)
    elapsed = gen_seconds + (time.monotonic() - t0)
    _criterion(
        "DFAM separability: clean 10-fold >= 0.95 at g=3 W=128 and noisy g=3 >= g=1",
        clean_acc >= 0.95 and noisy_g3 >= noisy_g1 and elapsed < 120.0,
        f"clean {clean_acc:.3f}, noisy g3 {noisy_g3:.3f} vs g1 {noisy_g1:.3f}, {elapsed:.0f}s",
    )


def test_ablation_direction(corpora):
    _, noisy, _ = corpora
    both = _dfam_kfold_accuracy(noisy, g=3, w=128, sensors=("acc", "gyr"))
    acc_only = _dfam_kfold_accuracy(noisy, g=3, w=128, sensors=("acc",))
    gyr_only = _dfam_kfold_accuracy(noisy, g=3, w=128, sensors=("gyr",))
    _criterion(
        "ablation direction: ACC+GYR within 0.02 of dominating single sensors",
        both >= acc_only - 0.02 and both >= gyr_only - 0.02,
        f"both {both:.3f}, acc {acc_only:.3f}, gyr {gyr_only:.3f}",
    )


def test_metric_identities():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        counts = rng.integers(0, 10, size=(n, n))
        if counts.sum() == 0:
            counts[0, 0] = 1
        report = metrics(ConfusionMatrix(tuple(f"l{i}" for i in range(n)), counts))
        acc = report.accuracy
        micro = report.averages["micro"]
        worst = max(
            worst,
            abs(micro.f1 - acc),
            abs(micro.precision - acc),
            abs(micro.recall - acc),
            abs(report.averages["weighted"].recall - acc),
        )
    _criterion(
        "metric identities: micro F1 = accuracy and weighted recall = accuracy",
        worst <= 1e-12,
        f"worst deviation {worst:.2e} over 1000 matrices",
    )


def _blob_dataset(rng, centers, per_class, std=1.0):
    X, y = [], []
    for i, c in enumerate(centers):
        X.append(rng.normal(c, std, (per_class, len(c))))
        y += [f"class{i}"] * per_class
    X = np.vstack(X)
    perm = rng.permutation(len(y))
    schema = tuple(("f", f"c{i}") for i in range(X.shape[1]))
    return clf.FeatureDataset(X[perm], tuple(y[i] for i in perm), schema), schema


def test_classifier_oracles():
    rng = np.random.default_rng(88)
    ds, schema = _blob_dataset(rng, [[0, 0, 0], [3, 3, 0], [0, 5, 2]], per_class=40)
    one_nn = clf.train_knn(ds, k=1)
    self_acc = np.mean(
        [clf.predict(one_nn, FeatureVector(x, schema)) == lbl for x, lbl in zip(ds.X, ds.labels)]
    )

    nb_ds, nb_schema = _blob_dataset(rng, rng.normal(0, 3, (3, 6)), per_class=60)
    nb = clf.train_nb(nb_ds)
    y = np.array(nb_ds.labels)
    nb_ok = True
    for x in rng.normal(0, 3, (500, 6)):
        post = []
        for lbl in nb.labels:
            rows = nb_ds.X[y == lbl]
            mu, var = rows.mean(axis=0), np.maximum(rows.var(axis=0), 1e-9)
            dens = np.prod(np.exp(-((x - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var))
            post.append(len(rows) / len(y) * dens)
        nb_ok = nb_ok and clf.predict(nb, FeatureVector(x, nb_schema)) == nb.labels[int(np.argmax(post))]

    knn_ds, knn_schema = _blob_dataset(rng, [[0, 0, 0], [2, 2, 0], [0, 4, 1]], per_class=66)
    knn = clf.train_knn(knn_ds, k=3)
    mean, std = knn_ds.X.mean(axis=0), knn_ds.X.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    Xs = (knn_ds.X - mean) / std
    knn_ok = True
    for x in rng.normal(1, 2, (100, 3)):
        d = np.sqrt(((Xs - (x - mean) / std) ** 2).sum(axis=1))
        order = np.argsort(d, kind="stable")[:3]
        votes, first = {}, {}
        for idx in order:
            lbl = knn_ds.labels[idx]
            votes[lbl] = votes.get(lbl, 0) + 1
            first.setdefault(lbl, float(d[idx]))
        top = max(votes.values())
        expected = min(
            (lbl for lbl, v in votes.items() if v == top), key=lambda l: (first[l], l)
        )
        knn_ok = knn_ok and clf.predict(knn, FeatureVector(x, knn_schema)) == expected

    _criterion(
        "classifier oracles: 1-NN self-test, NB Bayes-rule argmax, k-NN distance oracle",
        self_acc == 1.0 and nb_ok and knn_ok,
        f"1-NN self accuracy {self_acc:.3f}, NB 500 instances, k-NN 100 queries",
    )


def test_protocol_integrity():
    rng = np.random.default_rng(99)
    instances = [
        Instance(f"l{i % 7}", int(i), participant=f"p{i % 5}", block=f"b{i % 9}")
        for i in range(137)
    ]

    def lookup_train(train_set):
        table = {inst.payload: inst.label for inst in train_set}
        return table, min(table.values())

    tested_kfold = []

    def predict_kfold(model, inst):
        tested_kfold.append(inst.payload)
        return model[0].get(inst.payload, model[1])

    kfold(instances, lookup_train, predict_kfold, k=10, seed=1)
    kfold_once = sorted(tested_kfold) == list(range(137))

    tested_loso = []

    def predict_loso(model, inst):
        tested_loso.append(inst.payload)
        return model[0].get(inst.payload, model[1])

    loso(instances, lookup_train, predict_loso)
    loso_once = sorted(tested_loso) == list(range(137))

    schema = (("f", "c0"), ("f", "c1"))
    twelve = [
        Instance(f"l{i % 3}", FeatureVector(rng.normal(i % 3, 1.0, 2), schema), block=f"i{i:02d}")
        for i in range(12)
    ]

    def train_1nn(train_set):
        return clf.train_knn(
            clf.FeatureDataset.from_vectors([(t.label, t.payload) for t in train_set]), k=1
        )

    def predict_1nn(model, inst):
        return clf.predict(model, inst.payload)

    via_kfold = kfold(twelve, train_1nn, predict_1nn, k=12, seed=0)
    via_loocv = loocv_blocks(twelve, train_1nn, predict_1nn)
    equal = via_kfold.confusion.labels == via_loocv.confusion.labels and np.array_equal(
        via_kfold.confusion.counts, via_loocv.confusion.counts
    )
    _criterion(
        "protocol integrity: exactly-once folds and k=n equals instance LOOCV",
        kfold_once and loso_once and equal,
    )


def _stream_windows(label_text, n_windows, seed, w=128):
    label = ActivityLabel.parse(label_text)
    duration = (n_windows * w + w) / FS
    series_by_ch = generate(build_profile(label, "RR"), duration, FS, seed=seed)
    bundles = pipeline.prepare_bundles(series_by_ch, w)[:n_windows]
    return [pipeline.bundle_spectra(b, FS) for b in bundles]


def _hierarchy_models(w=128):
    layout = BinLayout.equal_width(3, FS)
    train_recs = make_corpus(
        participants=1,
        activities=tuple(
            ActivityLabel.parse(t)
            for t in (
                "standing",
                "sitting",
                "walking",
                "running",
                "walking+eating",
                "walking+drinking",
            )
        ),
        duration_s=30.0,
        seed=321,
    )
    instances = pipeline.signature_instances(train_recs, w, layout)
    train_fn, _ = pipeline.trainer_for(pipeline.ModelSpec.parse("dfam"), layout, w, 0)
    s1 = train_fn(pipeline.relabel_moving(instances))
    s3 = train_fn(pipeline.relabel_distracted(instances))
    return s1, s3


def _trace_oracle_s3_count(stream, s1_model, s3_model, reset_period):
    """Hand replay of the state machine, independent of HierarchicalCar.process."""
    state, ticks, s3_count = "S1", 0, 0
    for spectra, flag in stream:
        if state == "S1":
            label = dfam.classify(dfam.extract_signature(spectra, s1_model.layout), s1_model).label
            nxt = "S2" if label == MOVING_LABEL else "S1"
        elif state == "S2":
            nxt = "S1" if flag else "S3"
        else:
            s3_count += 1
            dfam.classify(dfam.extract_signature(spectra, s3_model.layout), s3_model)
            nxt = "S3"
        ticks += 1
        if ticks >= reset_period:
            state, ticks = "S1", 0
        else:
            state = nxt
    return s3_count


def test_hierarchy_invariant():
    s1, s3 = _hierarchy_models()
    standing = _stream_windows("standing", 350, seed=61)
    walking = _stream_windows("walking", 350, seed=62)
    eating = _stream_windows("walking+eating", 300, seed=63)

    mixed = (
        [(sp, False) for sp in standing[:200]]
        + [(sp, False) for sp in walking[:200]]
        + [(sp, False) for sp in eating[:300]]
        + [(sp, True) for sp in walking[200:350]]
        + [(sp, False) for sp in standing[200:350]]
    )
    assert len(mixed) == 1000
    car = HierarchicalCar(s1, s3, reset_period=30)
    replay(car, mixed)
    oracle = _trace_oracle_s3_count(mixed, s1, s3, 30)

    still_car = HierarchicalCar(s1, s3, reset_period=30)
    replay(still_car, [(sp, False) for sp in standing])
    flagged_car = HierarchicalCar(s1, s3, reset_period=30)
    replay(flagged_car, [(sp, True) for sp in walking])

    ok = (
        car.trace.count("S3") == oracle
        and oracle > 0
        and still_car.trace.count("S3") == 0
        and flagged_car.trace.count("S3") == 0
    )
    _criterion(
        "hierarchy invariant: S3 invocations equal the trace oracle and gate to zero",
        ok,
        f"mixed stream S3 count {car.trace.count('S3')} == oracle {oracle}",
    )


def test_latency_ordering():
    results = bench_mod.run_benchmark(
        [pipeline.ModelSpec.parse("dfam"), pipeline.ModelSpec.parse("knn3")],
        train_size=500,
        n_test=40,
        window_size=512,
        repetitions=10,
        seed=0,
    )
    dfam_ms = results["dfam"]["median_ms"]
    knn_ms = results["knn3"]["median_ms"]
    _criterion(
        "latency ordering: DFAM median per-window compute below 3-NN",
        dfam_ms < knn_ms,
        f"recorded medians: dfam {dfam_ms:.3f} ms, knn3 {knn_ms:.3f} ms",
    )


def test_determinism(tmp_path):
    def tree_bytes(root):
        return {p.name: p.read_bytes() for p in sorted(root.iterdir())}

    gen_args = ["--participants", "2", "--duration", "10", "--seed", "11"]
    a, b = tmp_path / "gen_a", tmp_path / "gen_b"
    assert cli_main(["gen", "--out", str(a)] + gen_args) == 0
    assert cli_main(["gen", "--out", str(b)] + gen_args) == 0
    gen_ok = tree_bytes(a) == tree_bytes(b)

    train_ok = True
    for model in ("dfam", "rf"):
        m1, m2 = tmp_path / f"{model}_1", tmp_path / f"{model}_2"
        argv = ["train", "--corpus", str(a), "--model", model, "--W", "64",
                "--g", "3", "--seed", "5"]
        assert cli_main(argv + ["--out", str(m1)]) == 0
        assert cli_main(argv + ["--out", str(m2)]) == 0
        train_ok = train_ok and m1.read_bytes() == m2.read_bytes()

    e1, e2 = tmp_path / "eval_1.csv", tmp_path / "eval_2.csv"
    argv = ["evaluate", "--corpus", str(a), "--protocol", "kfold", "--k", "5",
            "--models", "dfam,knn1", "--W", "64", "--g", "3", "--seed", "5"]
    assert cli_main(argv + ["--out", str(e1)]) == 0
    assert cli_main(argv + ["--out", str(e2)]) == 0
    eval_ok = e1.read_bytes() == e2.read_bytes()

    _criterion(
        "determinism: gen, train and evaluate are byte-identical for a fixed seed",
        gen_ok and train_ok and eval_ok,
    )
