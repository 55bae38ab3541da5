"""Minimal reverse-mode differentiation over dense float64 numpy arrays.

Only the operations the propagation model needs: broadcasting arithmetic,
row-batched affine maps, activations, row gathers and segment reductions
(the building blocks of neighborhood pooling), per-row norms, and axis-0
statistics for batch normalization. Each operation records a backward
closure; ``backward`` walks the tape in reverse topological order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

DTYPE = np.float64

# When enabled, every op output is scanned for NaN/Inf (used by tests and
# the gradcheck command; off by default to keep training memory-bandwidth
# bound rather than scan bound).
CHECK_FINITE = False


class GradientError(ArithmeticError):
    """A non-finite value reached the loss or the backward pass."""


class Tensor:
    """A numpy array plus the tape metadata needed for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents: tuple = ()):
        self.data = np.asarray(data, dtype=DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operators ---------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(_ensure(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_ensure(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(_ensure(other), self)

    def __neg__(self):
        return mul(self, -1.0)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: Iterable[Tensor]) -> Tensor:
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    needs = any(p.requires_grad for p in parents)
    if CHECK_FINITE and not np.all(np.isfinite(data)):
        raise GradientError("non-finite value produced by an operation")
    return Tensor(data, requires_grad=needs, _parents=parents if needs else ())


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=DTYPE)  # own the buffer; g may be reused
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic

def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = _make(a.data + b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, _unbroadcast(g, a.data.shape))
            _accumulate(b, _unbroadcast(g, b.data.shape))
        out._backward = backward
    return out


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = _make(a.data - b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, _unbroadcast(g, a.data.shape))
            _accumulate(b, _unbroadcast(-g, b.data.shape))
        out._backward = backward
    return out


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    out = _make(a.data * b.data, (a, b))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
        out._backward = backward
    return out


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = _ensure(a)
    out = _make(a.data ** exponent, (a,))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, g * exponent * a.data ** (exponent - 1.0))
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# activations

def relu(a) -> Tensor:
    a = _ensure(a)
    out = _make(np.maximum(a.data, 0.0), (a,))
    if out.requires_grad:
        mask = a.data > 0.0  # subgradient at 0 is 0
        def backward(g):
            _accumulate(a, g * mask)
        out._backward = backward
    return out


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)
    out = _make(y, (a,))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, g * (1.0 - y * y))
        out._backward = backward
    return out


# ---------------------------------------------------------------------------
# linear algebra and reductions

def affine_rows(x, weight) -> Tensor:
    """Apply a square matrix to every row: ``out[i] = weight @ x[i]``."""
    x, weight = _ensure(x), _ensure(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ValueError(f"affine_rows wants (n,d) rows and (d,d) matrix, got {x.shape} and {weight.shape}")
    if x.data.shape[1] != weight.data.shape[1] or weight.data.shape[0] != weight.data.shape[1]:
        raise ValueError(f"shape mismatch: rows {x.shape} vs matrix {weight.shape}")
    out = _make(x.data @ weight.data.T, (x, weight))
    if out.requires_grad:
        def backward(g):
            _accumulate(x, g @ weight.data)
            _accumulate(weight, g.T @ x.data)
        out._backward = backward
    return out


def sum_all(a) -> Tensor:
    a = _ensure(a)
    out = _make(np.asarray(a.data.sum()), (a,))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
        out._backward = backward
    return out


def mean0(a) -> Tensor:
    """Mean over axis 0 (per-feature batch statistic)."""
    a = _ensure(a)
    n = a.data.shape[0]
    out = _make(a.data.mean(axis=0), (a,))
    if out.requires_grad:
        def backward(g):
            _accumulate(a, np.broadcast_to(g / n, a.data.shape).copy())
        out._backward = backward
    return out


def gather_rows(a, idx) -> Tensor:
    """Select rows by index; backward scatter-adds into the source rows."""
    a = _ensure(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = _make(a.data[idx], (a,))
    if out.requires_grad:
        def backward(g):
            if not a.requires_grad:
                return
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            scatter_add_rows(a.grad, idx, g)
        out._backward = backward
    return out


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = [_ensure(p) for p in parts]
    if not parts:
        raise ValueError("nothing to concatenate")
    sizes = [p.data.shape[0] for p in parts]
    out = _make(np.concatenate([p.data for p in parts], axis=0), parts)
    if out.requires_grad:
        offsets = np.cumsum([0] + sizes)
        def backward(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _accumulate(p, g[lo:hi])
        out._backward = backward
    return out


def _sorted_segments(seg: np.ndarray):
    order = np.argsort(seg, kind="stable")
    sseg = seg[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sseg)) + 1))
    return order, sseg, starts


def scatter_add_rows(out: np.ndarray, idx: np.ndarray, rows: np.ndarray) -> None:
    """``out[idx] += rows`` with repeated indices accumulated, vectorized."""
    if len(idx) == 0:
        return
    if len(idx) == 1 or np.all(idx[1:] > idx[:-1]):
        out[idx] += rows  # strictly increasing means no duplicates
        return
    order, sidx, starts = _sorted_segments(idx)
    sums = np.add.reduceat(rows[order], starts, axis=0)
    out[sidx[starts]] += sums


def _check_segments(seg: np.ndarray, n_segments: int) -> None:
    if n_segments <= 0:
        raise ValueError("need at least one segment")
    counts = np.bincount(seg, minlength=n_segments)
    if counts.min() == 0:
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"segment {empty} is empty; pooling an empty set is undefined")


def segment_sum(x, seg, n_segments: int) -> Tensor:
    """Per-segment row sums; every segment must be nonempty."""
    x = _ensure(x)
    seg = np.asarray(seg, dtype=np.intp)
    _check_segments(seg, n_segments)
    data = np.zeros((n_segments,) + x.data.shape[1:], dtype=DTYPE)
    scatter_add_rows(data, seg, x.data)
    out = _make(data, (x,))
    if out.requires_grad:
        def backward(g):
            _accumulate(x, g[seg])
        out._backward = backward
    return out


def segment_mean(x, seg, n_segments: int) -> Tensor:
    x = _ensure(x)
    seg = np.asarray(seg, dtype=np.intp)
    _check_segments(seg, n_segments)
    counts = np.bincount(seg, minlength=n_segments).astype(DTYPE)
    data = np.zeros((n_segments,) + x.data.shape[1:], dtype=DTYPE)
    scatter_add_rows(data, seg, x.data)
    data /= counts[:, None]
    out = _make(data, (x,))
    if out.requires_grad:
        def backward(g):
            _accumulate(x, g[seg] / counts[seg, None])
        out._backward = backward
    return out


def segment_max(x, seg, n_segments: int) -> Tensor:
    """Per-segment elementwise maxima.

    Gradient flows to every row attaining the maximum (ties share the full
    gradient; tests use inputs without exact ties).
    """
    x = _ensure(x)
    seg = np.asarray(seg, dtype=np.intp)
    _check_segments(seg, n_segments)
    order, sseg, starts = _sorted_segments(seg)
    maxima = np.maximum.reduceat(x.data[order], starts, axis=0)
    data = np.empty((n_segments,) + x.data.shape[1:], dtype=DTYPE)
    data[sseg[starts]] = maxima
    out = _make(data, (x,))
    if out.requires_grad:
        def backward(g):
            mask = x.data == data[seg]
            _accumulate(x, mask * g[seg])
        out._backward = backward
    return out


def rows_norm(x, p: int) -> Tensor:
    """Per-row L1 or L2 norm of a (n, d) batch; gradient at 0 is 0."""
    x = _ensure(x)
    if p == 1:
        data = np.abs(x.data).sum(axis=1)
        out = _make(data, (x,))
        if out.requires_grad:
            sign = np.sign(x.data)
            def backward(g):
                _accumulate(x, sign * g[:, None])
            out._backward = backward
        return out
    if p == 2:
        data = np.sqrt((x.data * x.data).sum(axis=1))
        out = _make(data, (x,))
        if out.requires_grad:
            safe = np.where(data > 0.0, data, 1.0)
            def backward(g):
                unit = x.data / safe[:, None]
                unit[data == 0.0] = 0.0
                _accumulate(x, unit * g[:, None])
            out._backward = backward
        return out
    raise ValueError(f"unsupported norm order {p} (expected 1 or 2)")


# ---------------------------------------------------------------------------
# backward pass and gradient checking

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every reachable tensor that requires gradients."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise GradientError(f"loss is not finite: {float(loss.data)}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def gradcheck(
    build_loss,
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_entries: int | None = None,
    rng: np.random.Generator | None = None,
) -> list[str]:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must rebuild the scalar loss from the live ``params``
    tensors on every call. Returns failure descriptions (empty = pass); the
    error measure is ``|a - n| / max(1, |a|, |n|)``. ``max_entries`` limits
    the probed coordinates per parameter (random subset) for larger models.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    backward(loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    failures: list[str] = []
    rng = rng or np.random.default_rng(0)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        indices = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            indices = rng.choice(flat.size, size=max_entries, replace=False)
        for i in indices:
            keep = flat[i]
            flat[i] = keep + eps
            up = float(build_loss().data)
            flat[i] = keep - eps
            down = float(build_loss().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > tol:
                failures.append(
                    f"{name}[{i}]: analytic {a:.6g} vs numeric {numeric:.6g} (rel err {err:.2e})"
                )
    return failures
