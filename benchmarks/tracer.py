"""Out-of-program tracing for the benchmark's traced run.

The tracer replaces the public functions of the screenforge layer modules
with wrappers, in every screenforge module namespace that holds them: a
caller looks a function up in its own module's globals, so the binding in
``cli`` (``from .chem_graph import parse_smiles``) and the one in
``chem_graph`` itself are both swapped. ``Tracer.installed()`` restores
every original binding on exit, also when the traced code raises.

Spans (name, start, end, parent span, run id) are kept in memory and
written out when the run ends. A span's self time is its duration minus
the part of it that its child spans cover. Hot leaves are timed and
counted without a span of their own; their time is charged to the
enclosing span as child coverage.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import types
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "chem_graph", "descriptors", "fingerprints", "simcluster",
    "pdenet", "pharmacophore", "screenctl",
)
# Namespaces searched for bindings of layer functions: the layers
# themselves, the CLI and the package root.
NAMESPACES = ("screenforge", "screenforge.cli") + tuple(f"screenforge.{m}" for m in LAYERS)

NOT_WRAPPED = frozenset({
    # Called per atom or per permutation inside hot loops, where a wrapper
    # would cost more than the call; their time stays in the caller's self
    # time (fit_value, detect_features, hbd_hba).
    "pharmacophore.feature_distance", "descriptors.is_acceptor",
    # The MLP's numeric kernels, charged to their callers: the self time of
    # train is then the training compute, and that of predict_pic50 the
    # per-molecule inference.
    "pdenet.forward", "pdenet.backprop", "pdenet.adam_step", "pdenet.mse_loss",
})
# Counted and timed, but recorded without a span (see the module doc).
LEAVES = frozenset({"simcluster.string_similarity"})


def _ingest_counts(args, kwargs, result):
    stats = result[1]
    return {
        "rows_read": stats.read,
        "parse_errors": stats.parse_errors,
        "duplicates_removed": stats.duplicates_removed,
    }


def _cluster_counts(args, kwargs, result):
    dist = args[0] if args else kwargs["dist"]
    return {"items": len(dist)}


# Counts taken at a layer boundary from a call's arguments or result.
COUNTERS = {
    "screenctl.ingest": _ingest_counts,
    "simcluster.hier_cluster": _cluster_counts,
}


def layer_functions() -> dict[str, types.FunctionType]:
    """``{"module.function": function}`` for every public plain function
    defined in a layer module, minus generators (a span would end before
    their work starts) and the NOT_WRAPPED helpers."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"screenforge.{layer}")
        for attr, value in vars(module).items():
            if (
                attr.startswith("_")
                or not isinstance(value, types.FunctionType)
                or value.__module__ != module.__name__
                or inspect.isgeneratorfunction(value)
            ):
                continue
            name = f"{layer}.{attr}"
            if name not in NOT_WRAPPED:
                out[name] = value
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, run_id, leaf_s)
        self.leaf_calls: dict[tuple[str, str], int] = defaultdict(int)  # (name, run id)
        self.leaf_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, leaf seconds inside it]
        self._next_id = 0
        self.run_id = ""

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None):
        """Call ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.run_id, frame[1]))
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, kwargs, result).items():
                self.counts[f"{name}.{key}"] += value
        return result

    def leaf(self, name: str, fn, args, kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            key = (name, self.run_id)
            self.leaf_calls[key] += 1
            self.leaf_time[key] += elapsed
            if self._stack:
                self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        record = self.leaf if name in LEAVES else self.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return record(name, fn, args, kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of a layer function for its wrapper; restore
        the originals on exit."""
        originals = layer_functions()
        by_identity = {id(fn): name for name, fn in originals.items()}
        wrappers = {name: self._wrap(name, fn) for name, fn in originals.items()}
        swapped = []
        try:
            for ns in NAMESPACES:
                module = importlib.import_module(ns)
                for attr, value in list(vars(module).items()):
                    name = by_identity.get(id(value))
                    if name is not None and originals[name] is value:
                        setattr(module, attr, wrappers[name])
                        swapped.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(swapped):
                setattr(module, attr, value)

    # -- analysis ----------------------------------------------------------

    def function_stats(self, run_id: str | None = None) -> dict[str, dict[str, float]]:
        """Per function: calls and self seconds, over all runs or one."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for sid, parent, name, start, end, rid, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, parent, name, start, end, rid, leaf_s in self.spans:
            if run_id is not None and rid != run_id:
                continue
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - coverage(start, end, children.get(sid, ())) - leaf_s
        for (name, rid), calls in self.leaf_calls.items():
            if run_id is None or rid == run_id:
                entry = stats[name]
                entry["calls"] += calls
                entry["self_s"] += self.leaf_time[(name, rid)]
        return dict(stats)

    def write(self, path) -> None:
        """Write every span as one JSON document."""
        doc = {
            "fields": ["id", "parent", "name", "start_s", "end_s", "run_id", "leaf_s"],
            "spans": self.spans,
            "leaves": [
                {"name": name, "run_id": rid, "calls": calls, "time_s": self.leaf_time[(name, rid)]}
                for (name, rid), calls in sorted(self.leaf_calls.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def coverage(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total
