"""In-memory spans around calls into dfam_car, plus the work counters.

The tracer wraps the package's public functions where their callers look
them up (for example ``pipeline.read_recording``, ``hierarchy.classify``),
so nothing in the package is edited. Each wrapped call records one span:
name, start, end, span id, parent span id, trace id and thread. Spans stay
in memory until the pass ends.

Self time is computed by a sweep over the span boundaries: each instant of
wall time goes to the spans running then that have no running child, split
evenly when pool threads run several at once. Layer self times therefore
sum to the traced wall time. With one thread this is the usual "duration
minus the time covered by child spans".
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import itertools
import os
import threading
from time import perf_counter

from dfam_car import classifiers, cli, dfam, evaluate, hierarchy, pipeline

# (owner, attribute, span name). Owners are where the callers resolve the
# name, so a function imported by name is wrapped in the importing module.
TRACED = (
    (pipeline, "load_corpus", "pipeline.load_corpus"),
    (pipeline, "read_recording", "signals.ingest"),
    (pipeline, "prepare_bundles", "pipeline.prepare_bundles"),
    (pipeline, "low_pass_filter", "signals.filter"),
    (pipeline, "window_bundles", "signals.segment"),
    (pipeline, "bundle_spectra", "pipeline.bundle_spectra"),
    (pipeline, "spectrum", "signals.spectrum"),
    (pipeline, "instances_for", "pipeline.instances"),
    (pipeline, "extract_features", "features.extract"),
    (pipeline, "load_any_model", "pipeline.load_model"),
    (dfam, "extract_signature", "dfam.signature"),
    (hierarchy, "extract_signature", "dfam.signature"),
    (dfam, "classify", "dfam.classify"),
    (hierarchy, "classify", "dfam.classify"),
    (dfam, "train_from_signatures", "dfam.train"),
    (dfam, "load_model", "dfam.codec.load"),
    (classifiers, "train_nb", "classifiers.train.nb"),
    (classifiers, "train_knn", "classifiers.train.knn"),
    (classifiers, "train_rf", "classifiers.train.rf"),
    (classifiers, "predict", "classifiers.predict"),
    (evaluate, "kfold", "evaluate.protocol"),
    (evaluate, "loso", "evaluate.protocol"),
    (evaluate, "metrics", "evaluate.metrics"),
    (hierarchy.HierarchicalCar, "process", "hierarchy.process"),
    (cli, "main", "cli.main"),
    (cli, "cmd_evaluate", "cli.evaluate"),
    (cli, "_evaluate_cell", "cli.cell"),
)


def _digest(*arrays) -> int:
    return hash(b"".join(a.tobytes() for a in arrays))


class Tracer:
    """Records spans and counters; install() swaps the wrappers in."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self.distinct: dict[str, set] = collections.defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = []
        self._main_stack = self._local.stack
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace_id: str | None = None):
        stack = self._stack()
        # a pool thread's first span is caused by the main thread's open span
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if trace_id is None and parent is not None:
            trace_id = parent[1]
        token = (next(self._ids), trace_id, parent[0] if parent else 0, name, perf_counter())
        stack.append(token)
        return token

    def close(self, token) -> None:
        end = perf_counter()
        self._stack().pop()
        sid, trace_id, parent, name, start = token
        self.spans.append((name, start, end, sid, parent, trace_id, threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None):
        token = self.open(name, trace_id)
        try:
            yield
        finally:
            self.close(token)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def see(self, key: str, value) -> None:
        with self._lock:
            self.distinct[key].add(value)

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        before, after, trace_id = _HOOKS.get(attr, (None, None, None))

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            token = self.open(name, trace_id(args) if trace_id else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(token)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        for owner, attr, name in TRACED:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,span,parent,trace,thread\n")
            for s in sorted(self.spans, key=lambda s: s[1]):
                fh.write(",".join(str(v) for v in s) + "\n")


# ------------------------------------------------------------------ hooks

def _ingest(tracer, args, kwargs, result):
    tracer.count("signals.ingest.files")
    tracer.count("signals.ingest.bytes", os.path.getsize(args[0]))


def _filter_input(tracer, args):
    series = args[0]
    cutoff = args[1] if len(args) > 1 else None
    tracer.count("signals.filter.calls")
    tracer.see("signals.filter", (_digest(series.values), series.sample_rate_hz, cutoff))
    return args


def _spectrum_input(tracer, args):
    window, fs = args[0], args[1]
    tracer.count("signals.spectrum.calls")
    tracer.see("signals.spectrum", (_digest(window.values), fs))
    return args


def _bundle_spectra(tracer, args, kwargs, result):
    stack = tracer._stack()
    replaying = bool(stack) and str(stack[-1][1]).startswith("stream:")
    if replaying and any(ch.device == "watch" for ch in args[0]):
        tracer.count("hierarchy.watch_spectra.computed")


def _features_input(tracer, args):
    bundle, fs = args[0], args[1]
    tracer.count("features.extract.calls")
    tracer.see("features.extract", (_digest(*(bundle[ch].values for ch in sorted(bundle))), fs))
    return args


def _train_input(tracer, args):
    return (list(args[0]),) + tuple(args[1:])


def _train(tracer, args, kwargs, model):
    tracer.count("dfam.train.calls")
    tracer.count("dfam.train.instances_dropped", len(args[0]) - len(model.instances))


def _classify(tracer, args, kwargs, result):
    tracer.count("dfam.classify.calls")
    tracer.count("dfam.classify.no_match", int(result.no_match))


def _load_model(tracer, args, kwargs, result):
    tracer.count("dfam.codec.bytes", os.path.getsize(args[0]))


def _kfold(tracer, args, kwargs, report):
    tracer.count("evaluate.rounds", kwargs.get("k", args[3] if len(args) > 3 else 10))


def _loso(tracer, args, kwargs, report):
    tracer.count("evaluate.rounds", len(report.per_participant))


def _process_input(tracer, args):
    tracer.count(f"hierarchy.occupancy.{args[0].state.state}")
    tracer.count("hierarchy.windows")
    return args


def _process(tracer, args, kwargs, event):
    tracer.count("hierarchy.events", int(event is not None))


def _counting(key):
    def hook(tracer, args, kwargs, result):
        tracer.count(key)

    return hook


def _cell_id(args) -> str:
    model, w, g = args[2], args[3], args[4]
    return f"cell:{model}/W{w}/g{g}"


# wrapped attribute -> (before(tracer, args) -> args, after(tracer, args, kwargs, result), trace id)
_HOOKS = {
    "read_recording": (None, _ingest, None),
    "low_pass_filter": (_filter_input, None, None),
    "window_bundles": (None, _counting("signals.segment.calls"), None),
    "spectrum": (_spectrum_input, None, None),
    "bundle_spectra": (None, _bundle_spectra, None),
    "extract_features": (_features_input, None, None),
    "extract_signature": (None, _counting("dfam.signature.calls"), None),
    "train_from_signatures": (_train_input, _train, None),
    "classify": (None, _classify, None),
    "load_model": (None, _load_model, None),
    "predict": (None, _counting("classifiers.predict.calls"), None),
    "kfold": (None, _kfold, None),
    "loso": (None, _loso, None),
    "process": (_process_input, _process, None),
    "_evaluate_cell": (None, None, _cell_id),
}


# -------------------------------------------------------------- analysis

def attribute_self_time(spans) -> dict[str, float]:
    """Self seconds per span name; the values sum to the covered wall time."""
    info = {s[3]: (s[0], s[4]) for s in spans}
    events = []
    for name, start, end, sid, parent, _, _ in spans:
        events.append((start, 1, sid))
        events.append((end, 0, -sid))  # at equal times, children end before parents
    events.sort()
    active: set[int] = set()
    leaves: set[int] = set()
    children: collections.Counter = collections.Counter()
    self_s: dict[str, float] = collections.defaultdict(float)
    last = None
    for t, starting, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for sid in leaves:
                self_s[info[sid][0]] += share
        last = t
        sid = abs(key)
        parent = info[sid][1]
        if starting:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    return dict(self_s)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, root: str = "bench.pass") -> dict:
    """Per-op and per-layer busy/self/count table plus the derived counters."""
    spans = tracer.spans
    roots = [s for s in spans if s[0] == root]
    wall = sum(s[2] - s[1] for s in roots)
    self_s = attribute_self_time(spans)
    ops: dict[str, dict] = {}
    for name, start, end, *_ in spans:
        op = ops.setdefault(name, {"count": 0, "busy_s": 0.0, "self_s": 0.0})
        op["count"] += 1
        op["busy_s"] += end - start
    for name, s in self_s.items():
        ops[name]["self_s"] = s
    layers: dict[str, dict] = {}
    for name, op in ops.items():
        layer = layers.setdefault(layer_of(name), {"count": 0, "self_s": 0.0})
        layer["count"] += op["count"]
        layer["self_s"] += op["self_s"]
    cell_threads = {s[6] for s in spans if s[0] == "cli.cell"}
    counts = dict(tracer.counts)
    counts["cli.workers"] = len(cell_threads)
    distinct = {k: len(v) for k, v in tracer.distinct.items()}
    return {
        "wall_s": wall,
        "spans": len(spans),
        "ops": ops,
        "layers": layers,
        "counts": counts,
        "distinct": distinct,
    }


def format_table(summary: dict) -> str:
    wall = summary["wall_s"]
    lines = [f"{'layer / op':34} {'count':>9} {'busy_s':>10} {'self_s':>10} {'self %':>7}"]
    for layer in sorted(summary["layers"]):
        row = summary["layers"][layer]
        lines.append(
            f"{layer:34} {row['count']:9d} {'':>10} {row['self_s']:10.4f} "
            f"{100.0 * row['self_s'] / wall:7.2f}"
        )
        for name in sorted(n for n in summary["ops"] if layer_of(n) == layer):
            op = summary["ops"][name]
            lines.append(
                f"  {name:32} {op['count']:9d} {op['busy_s']:10.4f} {op['self_s']:10.4f} "
                f"{100.0 * op['self_s'] / wall:7.2f}"
            )
    total = sum(row["self_s"] for row in summary["layers"].values())
    lines.append(f"{'sum of self / traced wall':34} {'':>9} {'':>10} {total:10.4f} {wall:10.4f}")
    return "\n".join(lines)

