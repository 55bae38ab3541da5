"""Learnable parameters, batch normalization, Adam, and checkpoint I/O.

The optimizer's global step size decays once per epoch as
``alpha1 / (alpha2 * epoch + 1.0)``; within an epoch it is constant. Every
Adam update steps all parameters together, so a store keeps one step count.
An update touches only live rows: a row is live once it has a nonzero
moment or a gradient names it. Any other row has a zero gradient and zero
moments, so its update is exactly zero and skipping it changes no bit.
A gradient, dense or row-sparse, is added into zeros: -0.0 counts as +0.0.
Checkpoints are a JSON manifest (name, kind, shape, dtype, byte offset of
each tensor, plus the step count) next to one flat little-endian binary
blob, covering parameters, running statistics, and optimizer moments so
training resumes exactly.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .autodiff import DTYPE, RowSparseGrad, Tensor, _each_run, _threads, group_transition

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint that does not match its manifest or the model reading it."""


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as (rows, row size): axis 0 holds the rows, and a scalar is one row."""
    return a.reshape(len(a) if a.ndim else 1, math.prod(a.shape[1:]))


class ParamStore:
    """Named parameter tensors with their Adam moments, plus buffers (initial values by name).

    Next to each parameter's moments the store keeps its live-row mask (see
    ``adam_step``), derived from the moments when Adam first asks for it, so
    that loading a checkpoint for inference does not compute it. A store
    loaded without its moments (``load_checkpoint(..., moments=False)``) can
    only be read: Adam and ``save_checkpoint`` refuse it.
    """

    def __init__(self, params: dict | None = None, buffers: dict | None = None):
        self._params: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._live: dict[str, np.ndarray] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self.adam_t = 0  # Adam updates taken so far
        for name, value in (params or {}).items():
            self.add_param(name, value)
        for name, value in (buffers or {}).items():
            self.add_buffer(name, value)

    # parameters --------------------------------------------------------
    def add_param(self, name: str, value) -> Tensor:
        """Add a copy of ``value`` with zero Adam moments."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(value, dtype=DTYPE, order="C"), requires_grad=True)
        self._params[name] = t
        self._moments[name] = (np.zeros_like(t.data), np.zeros_like(t.data))
        return t

    def param(self, name: str) -> Tensor:
        return self._params[name]

    def parameters(self) -> dict[str, Tensor]:
        return dict(self._params)

    def live_rows(self, name: str) -> np.ndarray:
        """The live-row mask of parameter ``name``: which rows have a moment that is not +0.0."""
        if name not in self._live:
            m, v = (_rows(a).view(np.uint64) for a in self.moments(name))
            # compared as bits: an update turns a -0.0 moment into +0.0, so it is live
            self._live[name] = m.any(axis=1) | v.any(axis=1)
        return self._live[name]

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Adam's first and second moments of parameter ``name``."""
        if self._moments is None:
            raise ValueError("this store was loaded without its Adam moments: it can "
                             "score, but not train or be saved")
        return self._moments[name]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    # buffers (non-learnable state such as BN running statistics) --------
    def add_buffer(self, name: str, value) -> np.ndarray:
        if name in self._buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        self._buffers[name] = np.array(value, dtype=DTYPE, order="C")
        return self._buffers[name]

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def buffers(self) -> dict[str, np.ndarray]:
        return dict(self._buffers)

    def check_layout(self, params: dict, buffers: dict) -> None:
        """Raise ``CheckpointError`` unless the store holds exactly these tensors.

        ``params`` and ``buffers`` map names to arrays of the wanted shapes.
        """
        held = {name: p.data.shape for name, p in self._params.items()}
        held |= {name: b.shape for name, b in self._buffers.items()}
        wanted = {name: np.shape(value) for name, value in (params | buffers).items()}
        problems = [f"checkpoint has no tensor {name!r}" for name in wanted if name not in held]
        problems += [f"checkpoint tensor {name!r} is not one of the model's tensors "
                     f"({', '.join(wanted)})" for name in held if name not in wanted]
        problems += [f"checkpoint tensor {name!r} has shape {held[name]}; the configuration "
                     f"and vocabularies need {shape}"
                     for name, shape in wanted.items() if held.get(name, shape) != shape]
        if problems:
            raise CheckpointError("; ".join(problems))


def step_size(epoch: int, alpha1: float = 0.01, alpha2: float = 0.0001) -> float:
    """Epoch-indexed Adam step size; ``epoch`` counts completed epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return alpha1 / (alpha2 * epoch + 1.0)


ADAM_BLOCK = 8192  # elements per Adam pass: a few arrays of this size stay in cache
# A parameter of at least this many live elements is updated in runs on the
# op pool (``autodiff._each_run``), in blocks of ``ADAM_POOL_BLOCK`` elements:
# each numpy call must run long enough to pay for handing the interpreter
# lock between the threads, which 8,192-element blocks do not
ADAM_POOL_FLOOR = 1 << 19
ADAM_POOL_BLOCK = 1 << 15


def adam_step(
    store: ParamStore,
    epoch: int,
    alpha1: float = 0.01,
    alpha2: float = 0.0001,
) -> float:
    """One bias-corrected Adam update over the live rows of every parameter.

    A row goes live when this step's gradient names it and stays live. Each
    gradient is read as a ``RowSparseGrad``: a dense one names every row, a
    missing one names none. The live rows are updated in blocks of
    ``ADAM_BLOCK`` elements (at least one row), each taken into scratch
    buffers, its gradient rows added into zeros (so -0.0 counts as +0.0),
    and written back. A parameter of ``ADAM_POOL_FLOOR`` live elements or
    more deals its blocks, of ``ADAM_POOL_BLOCK`` elements, into one run of
    consecutive blocks per thread, each with its own scratch; the arithmetic
    is elementwise, so no bit depends on the blocks or the threads. Returns
    the step size used.
    """
    lr = step_size(epoch, alpha1, alpha2)
    t = store.adam_t + 1
    for name, p in store._params.items():
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name!r}")
    for name, p in store._params.items():
        grad, live = p.grad, store.live_rows(name)
        if grad is None:
            grad = RowSparseGrad(np.empty(0, np.intp), np.empty((0,) + p.data.shape[1:]), p.data.shape)
        elif not isinstance(grad, RowSparseGrad):  # every row, on the array as it is
            grad = RowSparseGrad(np.arange(len(live)), grad, grad.shape)
        live[grad.rows] = True
        rows = np.flatnonzero(live)
        # store arrays are C-contiguous, so their row views are views (the gradient's is only read)
        w2, m2, v2, g2 = (_rows(a) for a in (p.data, *store.moments(name), grad.values))
        size = w2.shape[1]
        if not rows.size or not size:
            continue
        parts = _threads(rows.size * size) if rows.size * size >= ADAM_POOL_FLOOR else 1
        step = max(1, (ADAM_POOL_BLOCK if parts > 1 else ADAM_BLOCK) // size)
        firsts = range(0, len(rows), step)
        at = np.searchsorted(rows, grad.rows)  # the gradient's rows, by place among the live rows
        cuts = np.searchsorted(at, firsts).tolist() + [len(at)]

        def update_run(run):
            scratch, blocks = run
            for b in blocks:
                k0 = firsts[b]
                sel = rows[k0:k0 + step]
                w, m, v, g, update, denom = scratch[:, :len(sel)]
                for a, out in ((w2, w), (m2, m), (v2, v)):
                    np.take(a, sel, axis=0, out=out)
                g.fill(0.0)  # the gradient's rows added into zeros: -0.0 counts as +0.0
                g[at[cuts[b]:cuts[b + 1]] - k0] += g2[cuts[b]:cuts[b + 1]]
                m *= ADAM_BETA1
                m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
                v *= ADAM_BETA2
                np.multiply(g, g, out=update)
                v += np.multiply(1.0 - ADAM_BETA2, update, out=update)
                np.divide(m, 1.0 - ADAM_BETA1 ** t, out=update)
                np.sqrt(np.divide(v, 1.0 - ADAM_BETA2 ** t, out=denom), out=denom)
                denom += ADAM_EPS
                update /= denom
                update *= lr
                w -= update
                w2[sel], m2[sel], v2[sel] = w, m, v
        scratch = np.empty((parts, 6, step, size))
        bounds = [len(firsts) * k // parts for k in range(parts + 1)]
        _each_run(update_run, [(scratch[k], range(lo, hi))
                               for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo])
    store.adam_t = t
    return lr


class BatchNorm:
    """Batch normalization of G row groups, each by its own statistics.

    Reads the store's (G, d) ``{name}.gamma``/``.beta`` parameters and
    ``.running_mean``/``.running_var`` buffers (``tensors`` gives their
    initial values). Rows are sorted by group and split by ``offsets``, as
    for ``autodiff.group_transition``. Training mode normalizes each group by its
    batch statistics (a one-row group outputs its beta) and moves the EMA
    running statistics of the groups present; inference mode normalizes by
    the running statistics (mean 0, variance 1 before the first update).
    """

    def __init__(self, store: ParamStore, name: str, momentum: float = 0.9, eps: float = 1e-5):
        self.momentum = momentum
        self.eps = eps
        self.gamma = store.param(f"{name}.gamma")
        self.beta = store.param(f"{name}.beta")
        self.running_mean = store.buffer(f"{name}.running_mean")
        self.running_var = store.buffer(f"{name}.running_var")

    @staticmethod
    def tensors(name: str, groups: int, dim: int) -> tuple[dict, dict]:
        """Initial (parameters, buffers) of ``groups`` batch norms over ``dim`` features."""
        one, zero = np.ones((groups, dim)), np.zeros((groups, dim))
        return ({f"{name}.gamma": one, f"{name}.beta": zero},
                {f"{name}.running_mean": zero, f"{name}.running_var": one})

    def __call__(self, x: Tensor, offsets, training: bool) -> Tensor:
        return self.transition(x, offsets, training)

    def transition(self, x: Tensor, offsets, training: bool, weight=None, activation=None) -> Tensor:
        """``autodiff.group_transition`` with this batch norm between ``weight`` and ``activation``."""
        fixed = None if training else (self.running_mean, 1.0 / np.sqrt(self.running_var + self.eps))
        out, mean, var = group_transition(x, offsets, weight, (self.gamma, self.beta, self.eps, fixed),
                                          activation)
        if training:
            present = np.diff(offsets) > 0
            m = self.momentum
            self.running_mean[present] = self.running_mean[present] * m + (1.0 - m) * mean[present]
            self.running_var[present] = self.running_var[present] * m + (1.0 - m) * var[present]
        return out


# ---------------------------------------------------------------------------
# checkpoints

_MANIFEST = "manifest.json"
_BLOB = "params.bin"


def save_checkpoint(store: ParamStore, directory, extra: dict | None = None) -> None:
    """Write the store (params, buffers, Adam moments) plus metadata."""
    tensors = [(name, kind, array) for name, p in store._params.items()
               for kind, array in zip(("param", "adam_m", "adam_v"), (p.data, *store.moments(name)))]
    tensors += [(name, "buffer", b) for name, b in store._buffers.items()]
    os.makedirs(directory, exist_ok=True)
    entries = []
    offset = 0
    with open(os.path.join(directory, _BLOB), "wb") as fh:
        for name, kind, array in tensors:
            entries.append({"name": name, "kind": kind, "shape": list(array.shape),
                            "dtype": "<f8", "offset": offset})
            offset += fh.write(np.ascontiguousarray(array, dtype="<f8").data)
    manifest = {"tensors": entries, "adam_step": store.adam_t, "extra": extra or {}}
    with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _manifest_entries(tensors: list) -> tuple[list[tuple[str, str, tuple]], int]:
    """(name, kind, shape) of each entry, checked to be as saved, and the blob size."""
    entries, offset = [], 0
    for e in tensors:
        shape = e["shape"]
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)
                and e["dtype"] == "<f8" and e["kind"] in ("param", "adam_m", "adam_v", "buffer")
                and e["offset"] == offset):
            raise ValueError(f"entry {e} is not a '<f8' param, adam_m, adam_v or buffer "
                             f"with nonnegative int sizes at byte {offset}")
        entries.append((e["name"], e["kind"], tuple(shape)))
        offset += 8 * math.prod(shape)
    if len({entry[:2] for entry in entries}) < len(entries):
        raise ValueError("a (name, kind) entry is repeated")
    return entries, offset


def load_checkpoint(directory, moments: bool = True) -> tuple[ParamStore, dict]:
    """Rebuild a ParamStore from a checkpoint directory; returns (store, extra).

    The manifest must be one ``save_checkpoint`` writes: ``<f8`` tensors of
    nonnegative sizes, back to back in manifest order, each (name, kind)
    once, and a nonnegative integer step count. The tensors are read in
    order straight into the arrays the store keeps. Without ``moments`` the
    Adam moments are skipped, not read (they are two thirds of the blob),
    and the store can score but not train or be saved.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        entries, expected = _manifest_entries(manifest["tensors"])
    except (KeyError, TypeError, ValueError) as exc:  # torn, or not a manifest
        raise CheckpointError(f"{manifest_path} is not a checkpoint manifest "
                              f"({type(exc).__name__}: {exc})") from exc
    if "adam_step" not in manifest:  # bundles before the stacked layout count per tensor
        named = ", ".join(repr(name) for name in list(manifest.get("adam_steps", {}))[:3])
        raise CheckpointError(f"{manifest_path} has per-tensor Adam counts ({named}, ...): it "
                              "predates the stacked transition tensors; retrain the model")
    if type(manifest["adam_step"]) is not int or manifest["adam_step"] < 0:
        raise CheckpointError(f"{manifest_path} has adam_step {manifest['adam_step']!r}, "
                              "not a step count")
    blob_path = os.path.join(directory, _BLOB)
    arrays = {}
    with open(blob_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointError(f"{blob_path} holds {size} bytes, its manifest describes {expected}")
        for name, kind, shape in entries:
            if not moments and kind in ("adam_m", "adam_v"):
                fh.seek(8 * math.prod(shape), os.SEEK_CUR)
                continue
            array = np.empty(shape, dtype="<f8")
            fh.readinto(array)
            if not np.isfinite(array).all():
                raise CheckpointError(f"checkpoint tensor {name!r} ({kind}) holds a NaN or Inf")
            arrays[(name, kind)] = array
    shapes = {(name, kind): shape for name, kind, shape in entries}
    store = ParamStore()  # filled directly: add_param and add_buffer would copy
    store.adam_t = manifest["adam_step"]
    for (name, kind), array in arrays.items():
        if kind == "buffer":
            store._buffers[name] = array
        elif kind == "param":
            if any(shapes.get((name, m)) != array.shape for m in ("adam_m", "adam_v")):
                raise CheckpointError(f"{manifest_path}: tensor {name!r} lacks Adam moments of "
                                      f"its shape {array.shape}")
            store._params[name] = Tensor(array, requires_grad=True)
            if moments:
                store._moments[name] = (arrays[(name, "adam_m")], arrays[(name, "adam_v")])
    if not moments:
        store._moments = None
    return store, manifest.get("extra", {})
