"""Learnable parameters, batch normalization, Adam, and checkpoint I/O.

The optimizer's global step size decays once per epoch as
``alpha1 / (alpha2 * epoch + 1.0)``; within an epoch it is constant. Every
Adam update steps all parameters together, so a store keeps one step count.
An update rewrites every row in place, in blocks dealt over autodiff's op
pool; a row no gradient has named keeps its bits, since its update is
exactly zero. A gradient, dense or row-sparse, is added into zeros: -0.0
counts as +0.0.
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

from .autodiff import DTYPE, RowSparseGrad, Tensor, _each_run, _runs, _threads, group_transition

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
BN_MOMENTUM = 0.9  # weight of the old running statistics in each update
BN_EPS = 1e-5


class CheckpointError(ValueError):
    """A checkpoint that does not match its manifest or the model reading it."""


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as (rows, row size): axis 0 holds the rows, and a scalar is one row."""
    return a.reshape(len(a) if a.ndim else 1, math.prod(a.shape[1:]))


class ParamStore:
    """Named parameter tensors with their Adam moments, plus buffers (initial values by name).

    ``adam_step`` updates the parameters and moments in place. A store loaded
    without its moments (``load_checkpoint(..., moments=False)``) can only be
    read: Adam and ``save_checkpoint`` refuse it.
    """

    def __init__(self, params: dict | None = None, buffers: dict | None = None):
        self._params: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
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


ADAM_BLOCK = 49_152  # elements of each of Adam's two scratch arrays, shared out among its runs


def adam_step(
    store: ParamStore,
    epoch: int,
    alpha1: float = 0.01,
    alpha2: float = 0.0001,
) -> float:
    """One bias-corrected Adam update of every row of every parameter, in place.

    Each gradient is read as rows plus values: a dense one gives every row,
    a ``RowSparseGrad`` its own and a missing one none; a row no gradient has
    named has +0.0 moments and a +0.0 gradient, so its update is exactly zero.
    The arrays are updated in blocks of ``ADAM_BLOCK`` elements over the
    thread count (at least one row), views dealt into one run per thread of
    the op pool (``autodiff._each_run``), so all runs' scratch is two
    ``ADAM_BLOCK`` arrays. A run adds each block's gradient rows into its
    zeroed scratch (-0.0 counts as +0.0); the arithmetic is elementwise, so
    no bit depends on the blocks or the threads. Returns the step size used.
    """
    lr = step_size(epoch, alpha1, alpha2)
    t = store.adam_t + 1
    c1, c2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
    threads = _threads(sum(p.data.size for p in store._params.values()))
    tables, blocks, width = [], [], ADAM_BLOCK // threads
    for name, p in store._params.items():  # nothing is written before every table is checked
        if p.grad is not None and p.grad.shape != p.data.shape:
            raise ValueError(f"gradient shape {p.grad.shape} != param shape {p.data.shape} for {name!r}")
        # store arrays are C-contiguous, so their row views are views (the gradient's is only read)
        w2, m2, v2 = (_rows(a) for a in (p.data, *store.moments(name)))
        n, size = w2.shape
        if not n * size:
            continue
        if isinstance(p.grad, RowSparseGrad):
            rows, g2 = p.grad.rows, _rows(p.grad.values)
        elif p.grad is None:
            rows, g2 = np.empty(0, np.intp), w2[:0]
        else:  # every row, on the array as it is
            rows, g2 = None, _rows(p.grad)
        step = max(1, ADAM_BLOCK // threads // size)
        blocks += [(len(tables), r0 * size, min(r0 + step, n) * size) for r0 in range(0, n, step)]
        tables.append((w2, m2, v2, rows, g2, size))
        width = max(width, size)

    def update_run(run):
        scratch = np.empty((2, width))
        for k, lo, hi in run:
            w2, m2, v2, rows, g2, size = tables[k]
            r0, r1 = lo // size, hi // size
            w, m, v = w2[r0:r1], m2[r0:r1], v2[r0:r1]
            g, update = scratch[:, :hi - lo].reshape(2, r1 - r0, size)
            g.fill(0.0)  # the gradient's rows added into zeros: -0.0 counts as +0.0
            if rows is None:
                g += g2[r0:r1]
            else:
                at, stop = np.searchsorted(rows, (r0, r1)).tolist()
                g[rows[at:stop] - r0] += g2[at:stop]
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=update)
            v *= ADAM_BETA2
            np.multiply(g, g, out=update)
            v += np.multiply(1.0 - ADAM_BETA2, update, out=update)
            np.divide(m, c1, out=update)
            denom = np.sqrt(np.divide(v, c2, out=g), out=g)  # in the spent gradient block
            denom += ADAM_EPS
            update /= denom
            update *= lr
            w -= update

    _each_run(update_run, _runs(blocks, threads))
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

    def __init__(self, store: ParamStore, name: str):
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
        fixed = None if training else (self.running_mean, 1.0 / np.sqrt(self.running_var + BN_EPS))
        out, mean, var = group_transition(x, offsets, weight, (self.gamma, self.beta, BN_EPS, fixed),
                                          activation)
        if training:
            present = np.diff(offsets) > 0
            m = BN_MOMENTUM
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
