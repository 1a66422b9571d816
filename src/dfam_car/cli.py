"""Command-line surface: corpus generation, training, classification,
evaluation grids, hierarchy replay and latency benchmarking."""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bench as bench_mod
from . import classifiers, evaluate, pipeline, synth
from .dfam import BinLayout, DfamModel
from .errors import CarError, ConfigError, ParseError
from .hierarchy import DEFAULT_RESET_PERIOD, HierarchicalCar, write_events_jsonl
from .signals import DEFAULT_CUTOFF_HZ, DEVICES, SENSORS, csv_rows, read_recording

STANDARD_WINDOW_SIZES = (32, 64, 128, 256, 512)

REPORT_COLUMNS = (
    "protocol",
    "model",
    "W",
    "g",
    "sensors",
    "seed",
    "n",
    "accuracy",
    "precision_weighted",
    "recall_weighted",
    "f1_weighted",
    "precision_micro",
    "recall_micro",
    "f1_micro",
    "precision_macro",
    "recall_macro",
    "f1_macro",
    "mean_participant_accuracy",
)


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _validate_w(values, allow_any: bool) -> None:
    for w in values:
        if w not in STANDARD_WINDOW_SIZES and not allow_any:
            raise ConfigError(
                f"W={w} is outside the standard set {STANDARD_WINDOW_SIZES}; "
                "pass --allow-any-w to override"
            )


def _validate_sensors(sensors) -> tuple[str, ...]:
    if not sensors:
        raise ConfigError("sensor set must not be empty")
    for s in sensors:
        if s not in SENSORS:
            raise ConfigError(f"unknown sensor {s!r}, expected subset of {SENSORS}")
    return tuple(s for s in SENSORS if s in sensors)


def _validate_devices(devices) -> tuple[str, ...]:
    if not devices:
        raise ConfigError("device set must not be empty")
    for d in devices:
        if d not in DEVICES:
            raise ConfigError(f"unknown device {d!r}, expected subset of {DEVICES}")
    return tuple(d for d in DEVICES if d in devices)


def _max_workers() -> int:
    """Cells `evaluate` runs at once: one, in sorted order."""
    return 1


# ------------------------------------------------------------------- commands

def cmd_gen(args) -> int:
    placements = _comma_list(args.placements)
    for p in placements:
        if p not in synth.PLACEMENTS:
            raise ConfigError(f"unknown placement {p!r}, expected subset of {synth.PLACEMENTS}")
    recordings = synth.make_corpus(
        participants=args.participants,
        duration_s=args.duration,
        sample_rate_hz=args.fs,
        noise_std=args.noise,
        seed=args.seed,
        placements=placements,
        phase_jitter_std=args.jitter,
    )
    synth.write_corpus(recordings, args.out)
    print(f"wrote {len(recordings)} recordings to {args.out}")
    return 0


def _filter_placement(recordings, placement_filter):
    if not placement_filter:
        return recordings
    keep = set(placement_filter)
    return [r for r in recordings if r.placement in keep]


def cmd_train(args) -> int:
    spec = pipeline.ModelSpec.parse(args.model)
    sensors = _validate_sensors(_comma_list(args.sensors))
    devices = _validate_devices(_comma_list(args.devices))
    _validate_w([args.W], args.allow_any_w)
    recordings = _filter_placement(
        pipeline.load_corpus(args.corpus, args.fs, sensors),
        _comma_list(args.placement) if args.placement else None,
    )
    layout = BinLayout.equal_width(args.g, args.fs)
    instances = pipeline.instances_for(
        spec, recordings, args.W, layout, sensors, args.cutoff, devices
    )
    if args.relabel == "moving":
        instances = pipeline.relabel_moving(instances)
    elif args.relabel == "distracted":
        instances = pipeline.relabel_distracted(instances)
    channels = pipeline.corpus_channels(recordings, sensors, devices)
    train_fn, _ = pipeline.trainer_for(spec, layout, args.W, args.seed, channels)
    model = train_fn(sorted(instances, key=lambda i: (i.label, i.block or "", i.participant or "")))
    spec.kind.save(model, args.out)
    print(f"trained {spec} on {len(instances)} instances -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    model = pipeline.load_any_model(args.model_file)
    kind = classifiers.kind_of(model)
    sensors = _validate_sensors(_comma_list(args.sensors))
    series = read_recording(args.recording, args.fs, sensors)
    window_size, fs, layout, channels = kind.windowing(model, args.W, args.fs)
    if args.W not in (None, window_size):
        raise ConfigError(f"--W {args.W} differs from the model's window size {window_size}")
    if window_size is None:
        raise ConfigError("feature model file carries no window size; pass --W")
    if channels is not None:
        series = pipeline.model_series(series, channels)
    bundles = pipeline.prepare_bundles(series, int(window_size), args.cutoff, sensors)
    rows = []
    for bundle in bundles:
        label, score = kind.predict(model, pipeline.window_payload(kind, bundle, fs, layout))
        rows.append(f"{len(rows)},{label},{'' if score is None else repr(score)}\n")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index,label,score\n")
        fh.writelines(rows)
    print(f"classified {len(rows)} windows -> {args.out}")
    return 0


def _evaluate_cell(recordings, protocol, spec_text, w, g, sensors, cutoff, fs, seed, k):
    spec = pipeline.ModelSpec.parse(spec_text)
    layout = BinLayout.equal_width(g, fs)
    instances = pipeline.instances_for(spec, recordings, w, layout, sensors, cutoff)
    train_fn, predict_fn = pipeline.trainer_for(spec, layout, w, seed)
    mean_participant = ""
    if protocol == "kfold":
        report = evaluate.kfold(instances, train_fn, predict_fn, k=k, seed=seed)
    elif protocol == "loocv":
        report = evaluate.loocv_blocks(instances, train_fn, predict_fn)
    elif protocol == "loso":
        loso_report = evaluate.loso(instances, train_fn, predict_fn)
        report = loso_report.pooled
        mean_participant = repr(loso_report.mean_accuracy)
    else:
        raise ConfigError(f"unknown protocol {protocol!r}")
    row = {
        "protocol": protocol,
        "model": str(spec),
        "W": str(w),
        "g": str(g),
        "sensors": "+".join(sensors),
        "seed": str(seed),
        "n": str(report.confusion.total),
        "accuracy": repr(report.accuracy),
        "mean_participant_accuracy": mean_participant,
    }
    for method in ("weighted", "micro", "macro"):
        avg = report.averages[method]
        row[f"precision_{method}"] = repr(avg.precision)
        row[f"recall_{method}"] = repr(avg.recall)
        row[f"f1_{method}"] = repr(avg.f1)
    return row, report


def cmd_evaluate(args) -> int:
    sensors = _validate_sensors(_comma_list(args.sensors))
    ws = args.W
    gs = args.g
    _validate_w(ws, args.allow_any_w)
    models = _comma_list(args.models)
    for m in models:
        pipeline.ModelSpec.parse(m)  # fail fast on bad specs
    recordings = _filter_placement(
        pipeline.load_corpus(args.corpus, args.fs, sensors),
        _comma_list(args.placement) if args.placement else None,
    )
    results = [
        _evaluate_cell(
            recordings, args.protocol, m, w, g, sensors, args.cutoff, args.fs, args.seed, args.k
        )
        for m, w, g in sorted({(m, w, g) for m in models for w in ws for g in gs})
    ]
    rows = [row for row, _ in results]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    if args.json:
        payload = [{"cell": row, "report": report.to_dict()} for row, report in results]
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print(f"evaluated {len(rows)} cells -> {args.out}")
    return 0


_CONTEXT_FLAGS = {"0": False, "1": True, "false": False, "true": True, "no": False, "yes": True}


def _read_context(path) -> dict[int, bool]:
    """window_index -> smartphone_in_use; each index at most once, each flag
    one of 0, 1, true, false, yes and no (any case)."""
    flags: dict[int, bool] = {}
    for lineno, (index, in_use) in csv_rows(path, ("window_index", "smartphone_in_use")):
        try:
            i = int(index)
        except ValueError:
            i = -1
        if i < 0:
            raise ParseError(f"bad window index {index!r}", lineno, path)
        if i in flags:
            raise ParseError(f"window index {i} is listed twice", lineno, path)
        flag = _CONTEXT_FLAGS.get(in_use.strip().lower())
        if flag is None:
            raise ParseError(f"bad smartphone_in_use flag {in_use!r}", lineno, path)
        flags[i] = flag
    return flags


def cmd_replay(args) -> int:
    s1_model = pipeline.load_any_model(args.s1_model)
    s3_model = pipeline.load_any_model(args.s3_model)
    if not isinstance(s1_model, DfamModel) or not isinstance(s3_model, DfamModel):
        raise ConfigError("replay requires DFAM model files for S1 and S3")
    sensors = _validate_sensors(_comma_list(args.sensors))
    series = read_recording(args.recording, args.fs, sensors)
    bundles = pipeline.prepare_bundles(series, s3_model.window_size, args.cutoff, sensors)
    flags = _read_context(args.context) if args.context else {}
    channels = sorted(bundles[0]) if bundles else []
    s1_axes = None
    if args.s1_channels == "phone":
        s1_axes = [i for i, ch in enumerate(channels) if ch.device == "phone"]
    s1_channels = channels if s1_axes is None else [channels[i] for i in s1_axes]
    for state, model, fed in (("S1", s1_model, s1_channels), ("S3", s3_model, channels)):
        if model.channels is not None and list(model.channels) != fed:
            raise ConfigError(
                f"the {state} model reads channels {','.join(ch.key for ch in model.channels)}"
                f" but replay feeds it {','.join(ch.key for ch in fed)}"
            )
    machine = HierarchicalCar(s1_model, s3_model, args.reset, s1_axes=s1_axes)
    fs = s3_model.layout.sample_rate_hz
    for i, bundle in enumerate(bundles):
        machine.process(pipeline.bundle_spectra(bundle, fs), flags.get(i, False))
    write_events_jsonl(machine.events, args.out)
    print(
        f"replayed {len(bundles)} windows: {len(machine.events)} events, "
        f"S1 invocations {machine.s1_invocations}, S3 invocations {machine.s3_invocations}, "
        f"watch windows processed {machine.watch_windows_processed} -> {args.out}"
    )
    return 0


def cmd_bench(args) -> int:
    specs = [pipeline.ModelSpec.parse(m) for m in _comma_list(args.models)]
    _validate_w([args.W], args.allow_any_w)
    results = bench_mod.run_benchmark(
        specs,
        train_size=args.train_size,
        n_test=args.windows,
        window_size=args.W,
        g=args.g,
        sample_rate_hz=args.fs,
        seed=args.seed,
        repetitions=args.reps,
        noise_std=args.noise,
        cutoff_hz=args.cutoff,
    )
    text = json.dumps(results, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"benchmarked {len(specs)} models -> {args.out}")
    else:
        print(text)
    return 0


# -------------------------------------------------------------------- parser

def _add_common(p, cutoff=True):
    p.add_argument("--fs", type=float, default=50.0, help="sample rate in Hz")
    p.add_argument("--seed", type=int, default=0)
    if cutoff:
        p.add_argument(
            "--cutoff", type=float, default=DEFAULT_CUTOFF_HZ, help="low-pass cutoff in Hz"
        )
        p.add_argument("--sensors", default="acc,gyr", help="comma list from {acc,gyr}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dfam-car",
        description="Concurrent activity recognition via dominant-frequency matching.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--participants", type=int, default=5)
    p.add_argument("--duration", type=float, default=30.0, help="seconds per recording")
    p.add_argument("--noise", type=float, default=0.0, help="gaussian noise std")
    p.add_argument("--jitter", type=float, default=synth.DEFAULT_PHASE_JITTER_STD)
    p.add_argument("--placements", default=",".join(synth.PLACEMENTS))
    _add_common(p, cutoff=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", default="dfam", help="dfam | nb | knn<k> | dt | rf | svm")
    p.add_argument("--W", type=int, default=128)
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--placement", default=None, help="keep only these placements")
    p.add_argument("--devices", default="phone,watch", help="comma list from {phone,watch}")
    p.add_argument(
        "--relabel",
        choices=("none", "moving", "distracted"),
        default="none",
        help="binary relabeling for hierarchy state models",
    )
    p.add_argument("--allow-any-w", action="store_true")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="label a recording window by window")
    p.add_argument("--model-file", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--W", type=int, default=None, help="window size; a DFAM model's must match")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="run a protocol over a (model, W, g) grid")
    p.add_argument("--corpus", required=True)
    p.add_argument("--protocol", choices=("kfold", "loocv", "loso"), default="kfold")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--models", "--model", default="dfam")
    p.add_argument("--W", type=_int_list, default=[128])
    p.add_argument("--g", type=_int_list, default=[3])
    p.add_argument("--placement", default=None)
    p.add_argument("--allow-any-w", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", default=None, help="also write full reports as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="run the hierarchical recognizer over a recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--context", default=None, help="CSV of window_index,smartphone_in_use")
    p.add_argument("--s1-model", required=True)
    p.add_argument("--s3-model", required=True)
    p.add_argument("--reset", type=int, default=DEFAULT_RESET_PERIOD)
    p.add_argument("--s1-channels", choices=("all", "phone"), default="all")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bench", help="measure per-window classification latency")
    p.add_argument("--models", "--model", default="dfam,knn3")
    p.add_argument("--train-size", type=int, default=500)
    p.add_argument("--windows", type=int, default=40)
    p.add_argument("--W", type=int, default=512)
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--allow-any-w", action="store_true")
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
