"""Learnable parameters, batch normalization, Adam, and checkpoint I/O.

The optimizer's global step size decays once per epoch as
``alpha1 / (alpha2 * epoch + 1.0)``; within an epoch it is constant. Every
Adam update steps all parameters together, so a store keeps one step count.
Checkpoints are a JSON manifest (name, kind, shape, dtype, byte offset of
each tensor, plus the step count) next to one flat little-endian binary
blob, covering parameters, running statistics, and optimizer moments so
training resumes exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .autodiff import DTYPE, Tensor, batch_norm_rows

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class CheckpointError(ValueError):
    """A checkpoint that does not match its manifest or the model reading it."""


class ParamStore:
    """Named parameter tensors with their Adam moments, plus buffers (initial values by name)."""

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


def adam_step(
    store: ParamStore,
    epoch: int,
    alpha1: float = 0.01,
    alpha2: float = 0.0001,
) -> float:
    """One bias-corrected Adam update over every parameter in the store.

    Parameters without an accumulated gradient are treated as having a zero
    gradient. Returns the step size used.
    """
    lr = step_size(epoch, alpha1, alpha2)
    t = store.adam_t + 1
    for name, p in store._params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m, v = store._moments[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        update = m / (1.0 - ADAM_BETA1 ** t)
        denom = np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
        denom += ADAM_EPS
        update /= denom
        update *= lr
        p.data -= update
    store.adam_t = t
    return lr


class BatchNorm:
    """Batch normalization of G row groups, each by its own statistics.

    Reads the store's (G, d) ``{name}.gamma``/``.beta`` parameters and
    ``.running_mean``/``.running_var`` buffers (``tensors`` gives their
    initial values). Rows are sorted by group and split by ``offsets``, as
    for ``autodiff.affine_rows``. Training mode normalizes each group by its
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
        if not training:
            fixed = (self.running_mean, 1.0 / np.sqrt(self.running_var + self.eps))
            return batch_norm_rows(x, offsets, self.gamma, self.beta, self.eps, fixed)[0]
        out, mean, var = batch_norm_rows(x, offsets, self.gamma, self.beta, self.eps)
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
    os.makedirs(directory, exist_ok=True)
    tensors = [(name, kind, array) for name, p in store._params.items()
               for kind, array in zip(("param", "adam_m", "adam_v"), (p.data, *store._moments[name]))]
    tensors += [(name, "buffer", b) for name, b in store._buffers.items()]
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


def load_checkpoint(directory) -> tuple[ParamStore, dict]:
    """Rebuild a ParamStore from a checkpoint directory; returns (store, extra).

    Each tensor is read at its offset straight into the array the store keeps.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        entries = [(e["name"], e["kind"], tuple(e["shape"]), np.dtype(e["dtype"]), int(e["offset"]))
                   for e in manifest["tensors"]]
    except (KeyError, TypeError, ValueError) as exc:  # torn, or not a manifest
        raise CheckpointError(f"{manifest_path} is not a checkpoint manifest "
                              f"({type(exc).__name__}: {exc})") from exc
    if "adam_step" not in manifest:  # bundles before the stacked layout count per tensor
        named = ", ".join(repr(name) for name in list(manifest.get("adam_steps", {}))[:3])
        raise CheckpointError(f"{manifest_path} has per-tensor Adam counts ({named}, ...): it "
                              "predates the stacked transition tensors; retrain the model")
    blob_path = os.path.join(directory, _BLOB)
    expected = max((offset + dtype.itemsize * int(np.prod(shape))
                    for _, _, shape, dtype, offset in entries), default=0)
    arrays = {}
    with open(blob_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise CheckpointError(f"{blob_path} holds {size} bytes, its manifest describes {expected}")
        for name, kind, shape, dtype, offset in entries:
            array = np.empty(shape, dtype=dtype)
            fh.seek(offset)
            fh.readinto(array)
            if not np.isfinite(array).all():
                raise CheckpointError(f"checkpoint tensor {name!r} ({kind}) holds a NaN or Inf")
            arrays[(name, kind)] = array.astype(DTYPE, copy=False)
    store = ParamStore()  # filled directly: add_param and add_buffer would copy
    store.adam_t = int(manifest["adam_step"])
    for (name, kind), array in arrays.items():
        if kind == "buffer":
            store._buffers[name] = array
        elif kind == "param":
            for moment in ("adam_m", "adam_v"):
                if (name, moment) not in arrays:
                    raise CheckpointError(f"checkpoint tensor {name!r} has no {moment} entry")
            store._params[name] = Tensor(array, requires_grad=True)
            store._moments[name] = (arrays[(name, "adam_m")], arrays[(name, "adam_v")])
    return store, manifest.get("extra", {})
