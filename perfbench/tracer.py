"""Span tracing of graphkbc from outside the package.

``install`` replaces the public functions and methods of each graphkbc
module with wrappers that record a span (name, start, end, parent) per call
and, for a few boundaries, a count read from the arguments or the result.
A function is replaced under every name it is looked up by: the module
attribute, every ``from .x import f`` copy in another graphkbc module, and
dispatch tables such as ``model._SEGMENT_POOL``. Spans stay in memory until
``write`` at the end of the run.

Span names are ``<layer>.<function>``; the layer is the graphkbc module
(``kg``, ``ookb``, ``autodiff``, ``nn``, ``model``, ``trainer``,
``evaluate``, ``cli``) or ``bench`` for the benchmark's own phase spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kg", "ookb", "autodiff", "nn", "model", "trainer", "evaluate", "cli")

_AUTODIFF_OPS = (
    "add", "sub", "mul", "power", "relu", "tanh", "affine_rows", "sum_all",
    "mean0", "gather_rows", "concat_rows", "segment_sum", "segment_mean",
    "segment_max", "rows_norm", "backward",
)


class Tracer:
    """In-memory span log plus counters keyed by (name, phase)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = [-1]
        self.phase = "none"
        self.counts: dict[tuple[str, str], float] = defaultdict(float)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float) -> None:
        self.counts[(name, self.phase)] += n

    def arrays(self):
        """(names, durations, self times, parents, phase of each span)."""
        names = np.array(self.names, dtype=object)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        root = np.arange(len(parents))
        for i in np.flatnonzero(has_parent):  # a parent precedes its children
            root[i] = root[parents[i]]
        return names, dur, dur - covered, parents, names[root] if len(root) else names

    def write(self, path) -> None:
        """One JSON line per span: [name, start, end, parent index]."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                name, start, end, parent = rec
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7), parent]))
                fh.write("\n")


def _traced(tracer: Tracer, name: str, fn, count=None):
    """``fn`` inside a span; ``count(args, result)`` records a counter after it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if count is not None:
            count(args, out)
        return out
    return wrapper


class Patches:
    """Replaced attributes, restorable in reverse order."""

    def __init__(self, modules):
        self.modules = modules
        self.undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def function(self, original, replacement) -> None:
        """Replace ``original`` under every graphkbc name that holds it."""
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.set(mod, attr, replacement)
                elif isinstance(val, dict):
                    for key, item in val.items():
                        if item is original:
                            self.undo.append((val, key, item))
                            val[key] = replacement

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self.undo.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap every traced boundary of graphkbc; returns the undo log."""
    from graphkbc import autodiff as ad, cli, evaluate as ev, kg, model, nn, ookb, trainer

    mods = {"kg": kg, "ookb": ookb, "autodiff": ad, "nn": nn, "model": model,
            "trainer": trainer, "evaluate": ev, "cli": cli}
    patches = Patches(list(mods.values()))

    def fn(layer, attr, count=None, span=None):
        original = getattr(mods[layer], attr)
        patches.function(original, _traced(tracer, f"{layer}.{span or attr}", original, count))

    def method(layer, cls, attr, span):
        original = getattr(cls, attr)
        patches.set(cls, attr, _traced(tracer, f"{layer}.{span}", original))

    def pooled(args, out):
        tracer.count("autodiff.pooled_rows", args[0].data.shape[0])

    for op in _AUTODIFF_OPS:
        fn("autodiff", op, pooled if op.startswith("segment_") else None)

    make = ad._make

    def counted_make(data, parents):
        out = make(data, parents)
        if out.requires_grad:
            tracer.count("autodiff.tape_nodes", 1)
        return out
    patches.set(ad, "_make", counted_make)

    fn("nn", "adam_step")
    fn("nn", "save_checkpoint")
    fn("nn", "load_checkpoint")
    method("nn", nn.BatchNorm, "__call__", "batchnorm")

    method("model", model.GraphModel, "score_ids", "score_ids")
    method("model", model.GraphModel, "propagate_batch", "propagate_batch")
    method("model", model.NeighborTable, "__init__", "build_table")
    method("model", model.NeighborSampler, "__init__", "sampler")
    fn("model", "save_model")
    fn("model", "load_model")

    fn("trainer", "init_model")
    fn("trainer", "corrupt_batch")

    def ookb_count(args, out):
        tracer.count("evaluate.ookb_vectors", 1)

    def scored(args, out):
        tracer.count("evaluate.triplets_scored", len(args[0]))

    for name in ("evaluate_standard", "evaluate_ookb", "propagated_vectors",
                 "tune_thresholds", "baseline_ookb_vector"):
        fn("evaluate", name)
    fn("evaluate", "ookb_vector", ookb_count)
    method("evaluate", ev.OokbContext, "__post_init__", "ookb_context")
    make_scorer = ev.make_scorer

    def traced_make_scorer(*args, **kwargs):
        return _traced(tracer, "evaluate.score", make_scorer(*args, **kwargs), scored)
    patches.function(make_scorer, traced_make_scorer)

    def split_count(args, out):
        tracer.count("ookb.ookb_entities", out.stats.ookb_entities)
        tracer.count("ookb.aux_triplets", out.stats.auxiliary_triplets)

    fn("ookb", "generate", split_count)
    fn("ookb", "write_split")
    fn("kg", "build_graph")
    fn("kg", "load_triplet_file")
    fn("cli", "main")
    fn("cli", "cmd_predict", span="predict")
    return patches
