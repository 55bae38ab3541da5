"""Learnable parameters, batch normalization, Adam, and checkpoint I/O.

The optimizer's global step size decays once per epoch as
``alpha1 / (alpha2 * epoch + 1.0)``; within an epoch it is constant.
Checkpoints are a JSON manifest (name, kind, shape, dtype, byte offset)
next to one flat little-endian binary blob, covering parameters, running
statistics, and optimizer moments so training resumes exactly.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .autodiff import DTYPE, Tensor, mean0, power

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ParamStore:
    """Named parameter tensors plus per-parameter Adam state and buffers."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._adam: dict[str, dict] = {}

    # parameters --------------------------------------------------------
    def add_param(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(value, dtype=DTYPE), requires_grad=True)
        self._params[name] = t
        self._adam[name] = {
            "m": np.zeros_like(t.data),
            "v": np.zeros_like(t.data),
            "t": 0,
        }
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
        self._buffers[name] = np.array(value, dtype=DTYPE)
        return self._buffers[name]

    def buffer(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def buffers(self) -> dict[str, np.ndarray]:
        return dict(self._buffers)


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
    for name, p in store._params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name!r}")
        state = store._adam[name]
        state["t"] += 1
        t = state["t"]
        m, v = state["m"], state["v"]
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
    return lr


class BatchNorm:
    """Per-feature batch normalization with EMA running statistics.

    Training mode normalizes by the incoming batch's mean/variance and
    updates the running statistics; inference mode normalizes by the stored
    running statistics (initialized to mean 0, variance 1, so inference is
    well-defined even before the first update).
    """

    def __init__(self, store: ParamStore, name: str, dim: int,
                 momentum: float = 0.9, eps: float = 1e-5):
        self.name = name
        self.momentum = momentum
        self.eps = eps
        self._store = store
        self.gamma = store.add_param(f"{name}.gamma", np.ones(dim))
        self.beta = store.add_param(f"{name}.beta", np.zeros(dim))
        store.add_buffer(f"{name}.running_mean", np.zeros(dim))
        store.add_buffer(f"{name}.running_var", np.ones(dim))

    def __call__(self, x: Tensor, training: bool, update_running: bool = True) -> Tensor:
        if training:
            if x.data.shape[0] < 1:
                raise ValueError("batch normalization needs a nonempty batch")
            mu = mean0(x)
            centered = x - mu
            var = mean0(centered * centered)
            if update_running:
                m = self.momentum
                rmean = self._store.buffer(f"{self.name}.running_mean")
                rvar = self._store.buffer(f"{self.name}.running_var")
                rmean *= m
                rmean += (1.0 - m) * mu.data
                rvar *= m
                rvar += (1.0 - m) * var.data
            inv = power(var + self.eps, -0.5)
            return centered * inv * self.gamma + self.beta
        rmean = self._store.buffer(f"{self.name}.running_mean")
        rvar = self._store.buffer(f"{self.name}.running_var")
        inv = 1.0 / np.sqrt(rvar + self.eps)
        return (x - rmean) * inv * self.gamma + self.beta


# ---------------------------------------------------------------------------
# checkpoints

_MANIFEST = "manifest.json"
_BLOB = "params.bin"


class CheckpointError(ValueError):
    """A checkpoint whose blob does not match its manifest (torn or truncated)."""


def save_checkpoint(store: ParamStore, directory, extra: dict | None = None) -> None:
    """Write the store (params, buffers, Adam moments) plus metadata."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    offset = 0
    chunks: list[bytes] = []

    def put(name, kind, array):
        nonlocal offset
        raw = np.ascontiguousarray(array, dtype=DTYPE).astype("<f8").tobytes()
        entries.append({
            "name": name,
            "kind": kind,
            "shape": list(array.shape),
            "dtype": "<f8",
            "offset": offset,
        })
        chunks.append(raw)
        offset += len(raw)

    for name, p in store._params.items():
        put(name, "param", p.data)
        put(name, "adam_m", store._adam[name]["m"])
        put(name, "adam_v", store._adam[name]["v"])
    for name, b in store._buffers.items():
        put(name, "buffer", b)

    manifest = {
        "tensors": entries,
        "adam_steps": {name: store._adam[name]["t"] for name in store._params},
        "extra": extra or {},
    }
    with open(os.path.join(directory, _BLOB), "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    with open(os.path.join(directory, _MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_checkpoint(directory) -> tuple[ParamStore, dict]:
    """Rebuild a ParamStore from a checkpoint directory; returns (store, extra)."""
    with open(os.path.join(directory, _MANIFEST), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(directory, _BLOB), "rb") as fh:
        blob = fh.read()
    expected = max((e["offset"] + np.dtype(e["dtype"]).itemsize * int(np.prod(e["shape"]))
                    for e in manifest["tensors"]), default=0)
    if len(blob) != expected:
        raise CheckpointError(
            f"{os.path.join(directory, _BLOB)} holds {len(blob)} bytes, "
            f"its manifest describes {expected}"
        )

    arrays: dict[tuple[str, str], np.ndarray] = {}
    for entry in manifest["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        arr = np.frombuffer(blob, dtype=entry["dtype"], count=count, offset=start)
        arrays[(entry["name"], entry["kind"])] = arr.reshape(shape).astype(DTYPE)

    store = ParamStore()
    for entry in manifest["tensors"]:
        name, kind = entry["name"], entry["kind"]
        if kind == "param":
            store.add_param(name, arrays[(name, "param")])
            store._adam[name]["m"] = arrays[(name, "adam_m")].copy()
            store._adam[name]["v"] = arrays[(name, "adam_v")].copy()
            store._adam[name]["t"] = manifest["adam_steps"][name]
        elif kind == "buffer":
            store.add_buffer(name, arrays[(name, "buffer")])
    return store, manifest.get("extra", {})
