"""Command-line surface: corpus generation, training, classification,
evaluation grids, hierarchy replay and latency benchmarking."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import astuple, fields

from . import bench as bench_mod
from . import classifiers, evaluate, pipeline, synth
from .dfam import BinLayout, DfamModel
from .errors import CarError, ConfigError, ParseError
from .hierarchy import DEFAULT_RESET_PERIOD, write_events_jsonl
from .signals import DEVICES, SENSORS, all_channels, csv_rows, read_recording

STANDARD_WINDOW_SIZES = (32, 64, 128, 256, 512)

# <measure>_<average> for each average in evaluate.AVERAGES, measures in field order
_AVERAGED_COLUMNS = tuple(f"{f.name}_{avg}" for avg in evaluate.AVERAGES
                          for f in fields(evaluate.Averages))
REPORT_COLUMNS = ("protocol", "model", "W", "g", "sensors", "seed", "n", "accuracy",
                  *_AVERAGED_COLUMNS, "mean_participant_accuracy")


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in _comma_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _validate_w(values, allow_any: bool) -> None:
    for w in values:
        if w not in STANDARD_WINDOW_SIZES and not allow_any:
            raise ConfigError(
                f"W={w} is outside the standard set {STANDARD_WINDOW_SIZES}; "
                "pass --allow-any-w to override"
            )


def _subset(text: str, known, what: str) -> tuple[str, ...]:
    """A comma list naming a non-empty subset of known, in known's order."""
    names = _comma_list(text)
    if not names:
        raise ConfigError(f"{what} set must not be empty")
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown {what} {name!r}, expected subset of {known}")
    return tuple(name for name in known if name in names)


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


def _load_corpus(args):
    """The corpus's recordings at the --placement subset, or every one without
    it; there must be one."""
    keep = (None if args.placement is None
            else _subset(args.placement, synth.PLACEMENTS, "placement"))
    recordings = pipeline.load_corpus(args.corpus)
    kept = [r for r in recordings if keep is None or r.placement in keep]
    if not kept:
        where = f" at the placements {','.join(keep)}" if keep else ""
        raise ConfigError(f"{args.corpus} holds no recording{where}")
    return kept


def cmd_train(args) -> int:
    spec = pipeline.ModelSpec.parse(args.model)
    sensors = _subset(args.sensors, SENSORS, "sensor")
    devices = _subset(args.devices, DEVICES, "device")
    _validate_w([args.W], args.allow_any_w)
    recordings = _load_corpus(args)
    layout = BinLayout.equal_width(args.g, pipeline.corpus_rate(recordings))
    channels = all_channels(sensors, devices)
    instances = pipeline.instances_for(spec, recordings, args.W, layout, channels)
    if args.relabel == "moving":
        instances = pipeline.relabel_moving(instances)
    elif args.relabel == "distracted":
        instances = pipeline.relabel_distracted(instances)
    train_fn, _ = pipeline.trainer_for(spec, layout, args.W, args.seed, channels)
    model = train_fn(sorted(instances, key=lambda i: (i.label, i.block or "", i.participant or "")))
    spec.kind.save(model, args.out)
    print(f"trained {spec} on {len(instances)} instances -> {args.out}")
    return 0


def _warn_unchecked_channels(named_models) -> None:
    """One stderr line naming the DFAM v1 models among (path, model) pairs:
    those files record no channels, so nothing checks the ones they are fed."""
    v1 = [path for path, model in named_models if model.channels is None]
    if v1:
        print(f"warning: {', '.join(v1)}: DFAM v1 model files record no channels;"
              " the channels they are applied to are not checked", file=sys.stderr)


def cmd_classify(args) -> int:
    model = pipeline.load_any_model(args.model_file)
    kind = classifiers.kind_of(model)
    window_size, fs, layout, channels = kind.windowing(model)
    series = read_recording(args.recording)
    with pipeline.naming(args.recording):
        bundles = pipeline.prepare_bundles(pipeline.model_series(series, channels, fs), window_size)
    _warn_unchecked_channels([(args.model_file, model)])
    rows = []
    for bundle in bundles:
        label, score = kind.predict(model, pipeline.window_payload(kind, bundle, fs, layout))
        rows.append(f"{len(rows)},{label},{'' if score is None else repr(score)}\n")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("window_index,label,score\n")
        fh.writelines(rows)
    print(f"classified {len(rows)} windows -> {args.out}")
    return 0


def _evaluate_cell(recordings, protocol, spec_text, w, g, sensors, seed, k):
    spec = pipeline.ModelSpec.parse(spec_text)
    layout = BinLayout.equal_width(g, pipeline.corpus_rate(recordings))
    channels = all_channels(sensors)
    instances = pipeline.instances_for(spec, recordings, w, layout, channels)
    train_fn, predict_fn = pipeline.trainer_for(spec, layout, w, seed, channels)
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
    values = (v for avg in evaluate.AVERAGES for v in astuple(report.averages[avg]))
    row.update(zip(_AVERAGED_COLUMNS, map(repr, values), strict=True))
    return row, report


def cmd_evaluate(args) -> int:
    sensors = _subset(args.sensors, SENSORS, "sensor")
    models = _comma_list(args.models)
    for flag, values in (("--models", models), ("--W", args.W), ("--g", args.g)):
        if not values:
            raise ConfigError(f"{flag} must not be empty")
    _validate_w(args.W, args.allow_any_w)
    for m in models:
        pipeline.ModelSpec.parse(m)  # fail fast on bad specs
    recordings = _load_corpus(args)
    results = [
        _evaluate_cell(recordings, args.protocol, m, w, g, sensors, args.seed, args.k)
        for m, w, g in sorted({(m, w, g) for m in models for w in args.W for g in args.g})
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
    """window_index -> smartphone_in_use; each index ASCII decimal digits and
    listed at most once, each flag one of 0, 1, true, false, yes and no (any
    case); either may have surrounding spaces."""
    flags: dict[int, bool] = {}
    for lineno, (index, in_use) in csv_rows(path, ("window_index", "smartphone_in_use")):
        digits = index.strip()
        try:
            i = int(digits) if digits.isascii() and digits.isdigit() else -1
        except ValueError:  # more digits than int() converts
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
    series = read_recording(args.recording)

    def context(n_windows: int) -> dict[int, bool]:
        flags = _read_context(args.context) if args.context else {}
        if flags and max(flags) >= n_windows:
            raise ConfigError(f"{args.context}: window_index {max(flags)} is past the last"
                              f" window; the recording has {n_windows} windows")
        return flags

    with pipeline.naming(args.recording):
        replayed = pipeline.replay(series, s1_model, s3_model, args.reset, context)
    _warn_unchecked_channels([(args.s1_model, s1_model), (args.s3_model, s3_model)])
    states, events = zip(*replayed)  # a recording has at least one window
    events = [event for event in events if event is not None]
    write_events_jsonl(events, args.out)
    print(
        f"replayed {len(states)} windows: {len(events)} events, "
        f"S1 invocations {states.count('S1')}, S3 invocations {states.count('S3')} -> {args.out}"
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

_COMMON_OPTIONS = {
    "fs": dict(type=float, default=50.0, help="sample rate in Hz"),
    "seed": dict(type=_seed, default=0),
    "sensors": dict(default="acc,gyr", help="comma list from {acc,gyr}"),
}


def _add_common(p, *names):
    """The shared options a command reads, each --<name>."""
    for name in names:
        p.add_argument(f"--{name}", **_COMMON_OPTIONS[name])


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
    _add_common(p, "fs", "seed")
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
    _add_common(p, "seed", "sensors")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="label a recording window by window")
    p.add_argument("--model-file", required=True)
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
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
    _add_common(p, "seed", "sensors")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("replay", help="run the hierarchical recognizer over a recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--context", default=None, help="CSV of window_index,smartphone_in_use")
    p.add_argument("--s1-model", required=True)
    p.add_argument("--s3-model", required=True)
    p.add_argument("--reset", type=int, default=DEFAULT_RESET_PERIOD)
    p.add_argument("--out", required=True)
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
    _add_common(p, "fs", "seed")
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
