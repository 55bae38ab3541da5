"""Minimal reverse-mode differentiation over dense float64 numpy arrays.

The operations the propagation model trains and infers with: broadcasting
addition and subtraction, relu, the fused transition of rows sorted by group
(an affine map from a stack of matrices, batch normalization, an
activation), row gathers, per-row norms and sums. The transition also
gathers its rows and pools them per segment by sum, mean or max
(``group_transition``'s ``gather`` and ``pool``): one propagation step is
one op, which keeps one array of its records' size for the backward and
builds each group's gradient inside its runs. ``segment_sum``,
``segment_mean`` and ``segment_max`` are its pool alone, as ``affine_rows``
is its matrix alone. No command, ``gradcheck`` included, runs
``affine_rows``, ``mul`` (``Tensor.__mul__``), ``power``, ``tanh``,
``mean0`` or ``concat_rows``: they stay for the perfbench tracer, which
wraps them by name, and for the tests' reference chains. Each operation
hands its output and a backward closure to ``_record``, which keeps the
closure only when the output needs a gradient; a backward computes what it
needs when it runs, except max pooling's winning rows, which the forward
finds as it reduces, and only when a gradient will be taken.
``backward`` walks the tape in reverse topological order and frees it as it
goes: once it returns, a non-leaf's ``.grad`` and closure are gone, and only
the leaves keep their ``.grad``.

A leaf table gathered by strictly increasing row ids gets a
``RowSparseGrad``, the gathered rows and their gradients, instead of a
dense gradient of its full size; ``densify`` gives the dense form.

Every segment reduction (sum, mean and max pooling and the backward of a
gather that repeats rows) is one rank loop, ``_segment_reduce``, which
reduces each segment's rows in row order. The rank loops and the fused
transition run on one thread per CPU the process may use (``_threads``),
so ``taskset`` or a cpuset limits them: the transition deals its row
groups, and the rank loops their segments, into one run per thread
(``_each_run``). A run writes only its own groups' or segments' rows and
statistics, with the same numpy calls on any thread, so the result does
not depend on the thread count. The pool serves these ops and Adam's
blocks (``nn.adam_step``); besides it, ``trainer.train`` plans the next
minibatch on one thread of its own. ``cli.main`` holds BLAS at one
thread (``one_blas_thread``), so no BLAS setting changes a product's bits
either.

The index work of a gather or a segment reduction (``gather_plan``,
``segment_plan``) reads no tensor: a caller that knows the indices ahead
builds it apart from the tape and hands it to the op, which otherwise
builds it itself. Its id sorts, as every stable sort of ids in the package
(the neighbor table, a step's groups, the graph's dedup), go through
``stable_order``: numpy's stable argsort, in 16-bit radix passes.
"""

from __future__ import annotations

import ctypes
import glob
import os
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Sequence

import numpy as np

DTYPE = np.float64

# When a caller sets it, every op output is scanned for NaN/Inf. No command
# sets it; it is off by default to keep training memory-bandwidth bound
# rather than scan bound.
CHECK_FINITE = False

# Ops of fewer elements (rows x features) than this run on the calling
# thread alone: handing work to a thread costs tens of microseconds. A rank
# loop needs more (``_rank_plan``).
POOL_FLOOR = 1 << 16


def one_blas_thread() -> None:
    """Set numpy's bundled OpenBLAS to one thread; a BLAS without that setter is left as it is."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter(1)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_heap() -> None:
    """Have glibc's malloc keep the heap it grew instead of giving freed pages back.

    ``backward`` frees the tape as it walks it, last allocated first, so
    every step frees the top of the heap and the next forward takes it
    back. Trimmed, those pages fault in again on every step. Blocks of up to
    32 MiB (where glibc's own sliding threshold stops) come from the heap,
    and the heap is never trimmed; a libc without ``mallopt`` is left as it is.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, -1)


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


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    if CHECK_FINITE and not np.all(np.isfinite(data)):
        raise GradientError("non-finite value produced by an operation")
    return Tensor(data, requires_grad=needs, _parents=parents if needs else ())


def _record(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """An op's output; it keeps ``backward`` only if it needs a gradient."""
    out = _make(data, parents)
    if out.requires_grad:
        out._backward = backward
    return out


class RowSparseGrad:
    """A gradient that is zero outside ``rows``: ``values[k]`` belongs to row ``rows[k]``.

    ``rows`` is strictly increasing and ``shape`` is the dense shape. It has
    no array interface and no indexing, so code that reads it as a dense
    array fails; ``densify`` gives the dense form.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows, self.values, self.shape = rows, values, shape

    def __array__(self, *args, **kwargs):
        raise TypeError("a row-sparse gradient is not an array; use autodiff.densify")


def densify(g):
    """The dense array a gradient stands for (a dense gradient as it is)."""
    if not isinstance(g, RowSparseGrad):
        return g
    dense = np.zeros(g.shape, dtype=DTYPE)
    dense[g.rows] += g.values  # as a scatter-add into zeros: -0.0 becomes +0.0
    return dense


def _accumulate(t: Tensor, g) -> None:
    # the first gradient is stored as given, so it may be a sibling's or a view:
    # nothing writes a stored gradient in place, and later ones add out of place.
    # A second gradient turns a row-sparse one dense.
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else densify(t.grad) + densify(g)


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
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))
    return _record(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))
    return _record(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))
    return _record(a.data * b.data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a constant exponent."""
    a = _ensure(a)
    def backward(g):
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))
    return _record(a.data ** exponent, (a,), backward)


# ---------------------------------------------------------------------------
# activations

def relu(a) -> Tensor:
    a = _ensure(a)
    def backward(g):
        _accumulate(a, g * (a.data > 0.0))  # subgradient at 0 is 0
    return _record(np.maximum(a.data, 0.0), (a,), backward)


def tanh(a) -> Tensor:
    a = _ensure(a)
    y = np.tanh(a.data)
    def backward(g):
        _accumulate(a, g * (1.0 - y * y))
    return _record(y, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra and reductions

def _group_slices(offsets, n_rows: int, n_groups: int) -> list[tuple[int, int, int]]:
    """(group, start, stop) of each nonempty group ``g``: rows ``offsets[g]:offsets[g + 1]``."""
    bounds = np.asarray(offsets, dtype=np.intp).tolist()
    if len(bounds) != n_groups + 1 or bounds[0] < 0 or bounds[-1] != n_rows or sorted(bounds) != bounds:
        raise ValueError(f"offsets {bounds} do not split {n_rows} rows into {n_groups} groups")
    return [(g, lo, hi) for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None  # made on first use


def _drop_pool() -> None:
    global _pool
    _pool = None


# a forked child has none of its parent's threads: it makes its own pool
os.register_at_fork(after_in_child=_drop_pool)


def _threads(elements: int) -> int:
    """The threads an op of ``elements`` elements runs on: one per CPU, or one below ``POOL_FLOOR``."""
    return 1 if elements < POOL_FLOOR else _cpus()


def _runs(groups: list, parts: int) -> list[list]:
    """``groups`` dealt into at most ``parts`` runs of about equal row counts.

    Largest first, each group joins the run with the fewest rows so far, so
    no run has more than ``ceil(total / parts)`` rows plus the largest
    group's. Each run keeps its groups in row order; no groups make one
    empty run.
    """
    runs, rows = [[] for _ in range(parts)], [0] * parts
    for g, lo, hi in sorted(groups, key=lambda group: group[1] - group[2]):
        k = rows.index(min(rows))
        runs[k].append((g, lo, hi))
        rows[k] += hi - lo
    return [sorted(run) for run in runs if run] or [[]]


def _each_run(body, runs: list) -> None:
    """``body(run)`` on each of ``runs``; the runs may run at the same time.

    The calling thread runs the first run and pool threads the others.
    ``body`` calls numpy only: it may run off the calling thread.
    """
    global _pool
    if len(runs) > 1 and _pool is None:
        _pool = ThreadPoolExecutor(_cpus() - 1, thread_name_prefix="graphkbc-pool")
    futures = [_pool.submit(body, run) for run in runs[1:]]
    try:
        body(runs[0])
    finally:
        wait(futures)  # no pool thread may still be writing the outputs
    for future in futures:
        future.result()


def _column_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(a * b).sum(axis=0)`` of two (m, d) arrays, without the product array when d >= 2.

    numpy's axis-0 sum of a C-ordered (m, d) array adds the rows in order
    when d >= 2, as ``einsum`` does; at d = 1 it sums pairwise, so there the
    product is made.
    """
    if a.shape[1] > 1:
        return np.einsum("ij,ij->j", a, b)
    return (a * b).sum(axis=0)


# the elements of one block of the transition backward's elementwise passes: 256 KiB
_BLOCK_ELEMENTS = 1 << 15


def group_transition(x, offsets, weight=None, norm=None, activation=None, *,
                     gather=None, pool=None, training=True):
    """Each row group's affine map, batch norm and activation, fused into one op.

    The rows are sorted by group: group ``g`` is rows ``offsets[g]:offsets[g + 1]``.
    The rows before ``offsets[0]`` pass through: their output is their input
    and their gradient the incoming one (``offsets=None``: every row passes
    through). Each stage is optional, and each runs on one group's rows at a
    time:

    * ``gather = (idx, plan)``: the rows are ``x[idx]``, taken group by group
      inside the runs; the backward adds their gradients into ``x`` as
      ``gather_rows`` does (``plan``, the ``gather_plan`` of ``idx``, is made
      when backward runs unless given);
    * ``weight``, a (G, d, d) stack: ``y[i] = weight[g] @ x[i]``;
    * ``norm = (gamma, beta, eps, fixed)``, with (G, d) ``gamma`` and
      ``beta``: ``(y[i] - mean[g]) * inv[g] * gamma[g] + beta[g]``. Without
      ``fixed``, each group uses its batch mean and variance,
      ``inv = (var + eps) ** -0.5`` (a one-row group outputs its beta);
      ``fixed = (mean, inv)`` gives them;
    * ``activation``, ``"relu"`` or ``"tanh"``, which needs ``offsets``;
    * ``pool = (pooling, seg, n_segments, plan)``: the output is each
      segment's ``"sum"``, ``"avg"`` or ``"max"`` of the rows, which
      ``_segment_reduce`` reduces in row order (``plan``, the
      ``segment_plan`` of ``seg``, or None). Rows that are neither gathered
      nor transformed are pooled in place, without a copy.

    A gathered, transformed and pooled op is one propagation step. For its
    backward it keeps one array of the rows' size: the normalized rows, or
    the activation's output when there is no batch norm (none without
    either). The gathered rows and a pooled op's transformed rows are freed
    before it returns. The backward builds each group's gradient from the
    pooled one in a buffer of its run's largest group, regathers the group's
    rows, recomputes the activation's derivative from the normalized rows
    and writes the rows' gradient over the kept array. Max pooling keeps
    each (segment, feature)'s winning row, the lowest-index one that attains
    the maximum, as its rank in the segment, and only that rank's row gets
    the gradient; an inference forward (``training=False``) keeps none, and
    its output has no gradient.

    Returns the output and the (G, d) batch mean and variance (None unless
    ``norm`` uses batch statistics). The forward and the backward each split
    the nonempty groups into runs of about equal row counts, one per thread
    (``_each_run``); every group's arithmetic is the same on any thread.
    """
    x = _ensure(x)
    if x.data.ndim != 2:
        raise ValueError(f"group_transition wants (n,d) rows, got {x.shape}")
    idx, gather_runs = (None, None) if gather is None else gather
    if idx is not None:
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= len(x.data)):
            raise IndexError(f"gather ids must lie in [0, {len(x.data)})")
    n, d = (len(x.data) if idx is None else len(idx)), x.data.shape[1]
    if activation is not None and offsets is None:
        raise ValueError("an activation acts on row groups; it needs offsets")
    offsets = [n] if offsets is None else offsets
    parents, n_groups = [x], len(offsets) - 1
    if weight is not None:
        weight = _ensure(weight)
        if weight.data.ndim != 3 or weight.data.shape[1:] != (d, d):
            raise ValueError(f"group_transition wants a (G,d,d) stack for (n,d) rows, "
                             f"got {weight.shape} and {x.shape}")
        parents.append(weight)
        n_groups = weight.data.shape[0]
    batch, mean, var, normalized = False, None, None, None
    if norm is not None:
        gamma, beta, eps, fixed = norm
        gamma, beta = _ensure(gamma), _ensure(beta)
        parents += [gamma, beta]
        n_groups = gamma.data.shape[0]
        batch = fixed is None
        mean, inv = (np.zeros_like(gamma.data), np.zeros_like(gamma.data)) if batch else fixed
        var = np.zeros_like(gamma.data) if batch else None
        normalized = np.empty((n, d))
    if activation not in (None, "relu", "tanh"):
        raise ValueError(f"unknown activation {activation!r}")
    if pool is not None:
        pooling, seg, n_segments, segment_runs = pool
        if pooling not in ("sum", "avg", "max"):
            raise ValueError(f"unknown pooling {pooling!r}")
        seg = np.asarray(seg, dtype=np.intp)
        counts, segment_runs = (segment_plan(seg, n_segments, n * d) if segment_runs is None
                                else segment_runs)
    groups = _group_slices(offsets, n, n_groups)
    n_pass = int(offsets[0])
    runs = _runs(groups, _threads((n - n_pass) * d))

    def rows(lo, hi, into=None):
        """Input rows ``lo:hi``: a view of ``x``, or gathered into ``into`` (new if None)."""
        if idx is None:
            return x.data[lo:hi]
        # the ids are checked above; under mode="raise" take buffers its output
        return np.take(x.data, idx[lo:hi], axis=0, out=into, mode="clip")

    if idx is None and n_pass == n and pool is not None:  # only pooled: read the rows in place
        data = x.data
    else:
        data = np.empty((n, d))
        data[:n_pass] = rows(0, n_pass, data[:n_pass])

    def forward_run(run):
        for g, lo, hi in run:
            y = data[lo:hi]
            if weight is None:
                y[...] = rows(lo, hi, y)
            else:  # gathered into the normalized rows' slice, which centering overwrites
                np.matmul(rows(lo, hi, None if normalized is None else normalized[lo:hi]),
                          weight.data[g].T, out=y)
            if norm is not None:
                if batch:
                    mean[g] = y.mean(axis=0)
                c = np.subtract(y, mean[g], out=normalized[lo:hi])
                if batch:
                    var[g] = _column_dot(c, c) / (hi - lo)  # the bits of (c * c).mean(axis=0)
                    inv[g] = (var[g] + eps) ** -0.5
                c *= inv[g]  # kept for the backward
                np.multiply(c, gamma.data[g], out=y)
                y += beta.data[g]
            if activation == "relu":
                np.maximum(y, 0.0, out=y)
            elif activation == "tanh":
                np.tanh(y, out=y)
    _each_run(forward_run, runs)

    out, winners = data, None
    if pool is not None:
        if pooling == "max" and training:  # in the smallest dtype that holds every rank
            winners = np.empty((n_segments, d), np.min_scalar_type(int(counts.max()) - 1))
        out = _segment_reduce(np.maximum if pooling == "max" else np.add, data, segment_runs,
                              n_segments, winners)
        if pooling == "avg":
            counts = counts.astype(DTYPE)
            out /= counts[:, None]
    # what the backward reads; the records' gradient is written over it
    kept = normalized if norm is not None else data if activation is not None else None

    def backward(grad):
        if pool is not None and pooling == "max":
            if winners is None:
                raise ValueError("an inference forward keeps no max-pooling winners; "
                                 "build the op with training=True to differentiate it")
            rank = np.empty(n, winners.dtype)  # each record's rank in its segment
            for _, ranks in segment_runs:
                for k, ranked in enumerate(ranks):
                    rank[ranked] = k

        def records_grad(lo, hi, out):  # records lo:hi's gradient from the pooled one, into out
            if pool is None:  # copied: a stored gradient is not written in place
                out[...] = grad[lo:hi]
                return out
            np.take(grad, seg[lo:hi], axis=0, out=out, mode="clip")  # seg is checked by its plan
            if pooling == "avg":
                out /= counts[seg[lo:hi], None]
            elif pooling == "max":  # off the winning rank: g * False, a zero of g's sign
                out *= winners[seg[lo:hi]] == rank[lo:hi, None]
            return out

        gx = kept if kept is not None and kept is not out else np.empty((n, d))
        records_grad(0, n_pass, gx[:n_pass])  # the rows that passed through
        gw = None if weight is None else np.zeros_like(weight.data)
        if norm is not None:
            g_gamma, g_beta = np.zeros_like(gamma.data), np.zeros_like(beta.data)
        block = max(1, _BLOCK_ELEMENTS // d)

        def blocks(lo, hi):
            return [(b, min(b + block, hi)) for b in range(lo, hi, block)]

        def backward_run(run):
            scratch = np.empty((block, d))
            buffer = np.empty((max([hi - lo for _, lo, hi in run], default=0), d))  # largest group
            for g, lo, hi in run:
                dz = records_grad(lo, hi, buffer[:hi - lo])
                if activation is not None:  # the activation's derivative, block by block
                    for b0, b1 in blocks(lo, hi):
                        if norm is None:
                            y = kept[b0:b1]  # the output
                        else:  # the forward's own ops on the normalized rows
                            y = np.multiply(kept[b0:b1], gamma.data[g], out=scratch[:b1 - b0])
                            y += beta.data[g]
                            if activation == "tanh":
                                np.tanh(y, out=y)
                        if activation == "relu":
                            dz[b0 - lo:b1 - lo] *= y > 0.0  # subgradient at 0 is 0
                        else:
                            dz[b0 - lo:b1 - lo] *= 1.0 - y * y
                if norm is not None:
                    xhat = kept[lo:hi]
                    g_beta[g] = dz.sum(axis=0)
                    g_gamma[g] = _column_dot(dz, xhat)
                    dz *= gamma.data[g]
                    if batch:  # the batch statistics depend on the rows as well
                        m1 = dz.mean(axis=0)
                        m2 = _column_dot(dz, xhat) / (hi - lo)
                    for b0, b1 in blocks(lo, hi):
                        if batch:
                            t = np.multiply(kept[b0:b1], m2, out=scratch[:b1 - b0])
                            t += m1  # the bits of m1 + t: addition commutes
                            dz[b0 - lo:b1 - lo] -= t
                        dz[b0 - lo:b1 - lo] *= inv[g]
                # the group's kept rows are spent: its input rows go there, then their gradient
                if weight is None:
                    gx[lo:hi] = dz
                else:
                    gw[g] = dz.T @ rows(lo, hi, gx[lo:hi])
                    np.matmul(dz, weight.data[g], out=gx[lo:hi])
        _each_run(backward_run, runs)
        if idx is None:
            _accumulate(x, gx)
        else:
            _gather_grad(x, idx, gx, gather_runs)
        if weight is not None:
            _accumulate(weight, gw)
        if norm is not None:
            _accumulate(gamma, g_gamma)
            _accumulate(beta, g_beta)
    return _record(out, tuple(parents), backward), (mean if batch else None), var


def affine_rows(x, weight, offsets) -> Tensor:
    """Apply one of G square matrices to each group of rows.

    ``weight`` is a (G, d, d) stack and the rows of ``x`` are sorted by
    group: ``out[i] = weight[g] @ x[i]`` for ``offsets[g] <= i < offsets[g + 1]``.
    A single matrix is the stack of one, with offsets ``[0, n]``.
    """
    return group_transition(x, offsets, weight)[0]


def sum_all(a) -> Tensor:
    a = _ensure(a)
    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))
    return _record(np.asarray(a.data.sum()), (a,), backward)


def mean0(a) -> Tensor:
    """Mean over axis 0 (per-feature batch statistic)."""
    a = _ensure(a)
    n = a.data.shape[0]
    def backward(g):
        _accumulate(a, np.broadcast_to(g / n, a.data.shape))
    return _record(a.data.mean(axis=0), (a,), backward)


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of nonnegative integer keys below ``bound``.

    Least-significant digit first, one stable argsort per 16-bit digit on
    the order so far: numpy radix-sorts 16-bit keys, so the whole sort is
    linear, one pass while ``bound <= 2**16`` and one more per 16 bits.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the cast keeps the low digit
    for shift in range(16, (int(bound) - 1).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _rank_plan(seg: np.ndarray, counts: np.ndarray, elements: int) -> list[tuple]:
    """The rows of each nonempty segment, rank by rank, in runs of whole segments.

    Each run ``(segments, ranks)`` lists its segments largest first (ties
    by id), and ``ranks[k]`` holds the k-th row (in row order) of each of
    the first ``len(ranks[k])`` of them, the ones with more than k rows. A
    reduction over the ranks in turn, on prefixes of an array in
    ``segments`` order, visits each segment's rows in row order. The runs
    (``_each_run``) cut the segments, largest first, by cumulative rows;
    an op of ``elements`` elements is one run unless every thread gets
    ``POOL_FLOOR`` elements, and one ``POOL_FLOOR`` more per 16 ranks: each
    rank hands the interpreter lock between the threads.
    """
    order = stable_order(seg, len(counts))
    largest = int(counts.max())
    segments = stable_order(largest - counts, largest + 1)[:np.count_nonzero(counts)]
    sizes = counts[segments]
    starts = (np.cumsum(counts) - counts)[segments]
    active = np.searchsorted(-sizes, -np.arange(1, largest + 1), side="right")
    ranks = [order[starts[:n] + k] for k, n in enumerate(active.tolist())]
    parts = _cpus()
    if elements < POOL_FLOOR * (parts + len(ranks) // 16):
        parts = 1
    cuts = np.searchsorted(np.cumsum(sizes), len(seg) * np.arange(parts) / parts, side="right")
    bounds = np.unique(np.append(cuts, len(segments))).tolist()
    return [(segments[lo:hi], [rows[lo:hi] for rows in ranks[:sizes[lo]]])
            for lo, hi in zip(bounds, bounds[1:])]


def gather_plan(idx: np.ndarray, n_rows: int, elements: int) -> list[tuple]:
    """What the backward of a gather of ``n_rows`` rows by ``idx`` reduces over.

    Empty for strictly increasing ids (no row is picked twice); otherwise the
    ``_rank_plan`` of the picked rows, for a gradient of ``elements`` elements.
    """
    if np.all(idx[1:] > idx[:-1]):
        return []
    return _rank_plan(idx, np.bincount(idx, minlength=n_rows), elements)


def gather_rows(a, idx, plan=None) -> Tensor:
    """Select rows by index; backward scatter-adds into the source rows.

    A row picked more than once gets its gradients added in index order,
    as ``np.add.at`` does, rank by rank over runs of whole source rows
    (``plan``, the ``gather_plan`` of ``idx``, made when backward runs
    unless given). A leaf picked by strictly increasing ids gets the
    picked rows' gradients as a ``RowSparseGrad``.
    """
    a = _ensure(a)
    idx = np.asarray(idx, dtype=np.intp)
    def backward(g):
        _gather_grad(a, idx, g, plan)
    return _record(a.data[idx], (a,), backward)


def _gather_grad(a: Tensor, idx: np.ndarray, g: np.ndarray, plan) -> None:
    """Add ``g``, the gradient of ``a.data[idx]``, into ``a`` (``gather_rows``' backward)."""
    runs = gather_plan(idx, len(a.data), g.size) if plan is None else plan
    if not runs:  # no repeated row
        grad = RowSparseGrad(idx, g, a.data.shape)
        _accumulate(a, densify(grad) if a._parents else grad)
        return
    _accumulate(a, _segment_reduce(np.add, g, runs, len(a.data)))


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    parts = tuple(_ensure(p) for p in parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    def backward(g):
        offsets = np.cumsum([0] + [p.data.shape[0] for p in parts])
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, g[lo:hi])
    return _record(np.concatenate([p.data for p in parts], axis=0), parts, backward)


def segment_plan(seg: np.ndarray, n_segments: int, elements: int) -> tuple[np.ndarray, list]:
    """The rows of each segment and their ``_rank_plan``, for rows of ``elements`` elements.

    ``seg`` is an intp array; every one of the ``n_segments`` segments must
    have rows.
    """
    if n_segments <= 0:
        raise ValueError("need at least one segment")
    counts = np.bincount(seg, minlength=n_segments)
    if len(counts) > n_segments:
        raise ValueError(f"segment id {len(counts) - 1} is out of range for {n_segments} segments")
    if counts.min() == 0:
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"segment {empty} is empty; pooling an empty set is undefined")
    return counts, _rank_plan(seg, counts, elements)


def _segment_reduce(ufunc, values: np.ndarray, runs: list, n_segments: int,
                    winners: np.ndarray | None = None) -> np.ndarray:
    """``ufunc`` over each segment's rows of ``values``, in row order, by ``_rank_plan`` runs.

    A segment without rows is +0.0, and so is a zero result, whatever the
    signs of the zeros it came from. A max (``np.maximum``) given
    ``winners``, an (n_segments, d) unsigned array, writes there each
    (segment, feature)'s last rank strictly above the running maximum.
    """
    out = np.zeros((n_segments,) + values.shape[1:])

    def reduce_run(run):
        segments, ranks = run
        total = values[ranks[0]]
        won = None if winners is None else np.zeros(total.shape, winners.dtype)
        for k, rows in enumerate(ranks[1:], 1):
            head, rank_values = total[:len(rows)], values[rows]
            if won is not None:
                np.copyto(won[:len(rows)], k, where=rank_values > head)
            ufunc(head, rank_values, out=head)
        total += 0.0
        out[segments] = total
        if won is not None:
            winners[segments] = won
    _each_run(reduce_run, runs)
    return out


def _pool_alone(pooling: str, x, seg, n_segments: int) -> Tensor:
    """``group_transition``'s ``pooling`` alone; max keeps its winners if ``x`` needs a gradient."""
    x = _ensure(x)
    return group_transition(x, None, pool=(pooling, seg, n_segments, None),
                            training=x.requires_grad)[0]


def segment_sum(x, seg, n_segments: int) -> Tensor:
    """Each segment's row sum: ``group_transition``'s sum pool alone."""
    return _pool_alone("sum", x, seg, n_segments)


def segment_mean(x, seg, n_segments: int) -> Tensor:
    """Each segment's row mean: ``group_transition``'s avg pool alone."""
    return _pool_alone("avg", x, seg, n_segments)


def segment_max(x, seg, n_segments: int) -> Tensor:
    """Each segment's elementwise maxima: ``group_transition``'s max pool alone."""
    return _pool_alone("max", x, seg, n_segments)


def rows_norm(x, p: int) -> Tensor:
    """Per-row L1 or L2 norm of a (n, d) batch; gradient at 0 is 0."""
    x = _ensure(x)
    if p == 1:
        def backward(g):
            _accumulate(x, np.sign(x.data) * g[:, None])
        return _record(np.abs(x.data).sum(axis=1), (x,), backward)
    if p == 2:
        data = np.sqrt((x.data * x.data).sum(axis=1))
        def backward(g):
            unit = x.data / np.where(data > 0.0, data, 1.0)[:, None]
            unit[data == 0.0] = 0.0
            _accumulate(x, unit * g[:, None])
        return _record(data, (x,), backward)
    raise ValueError(f"unsupported norm order {p} (expected 1 or 2)")


# ---------------------------------------------------------------------------
# backward pass and gradient checking

def backward(loss: Tensor) -> None:
    """Populate ``.grad`` on every reachable leaf that requires gradients, freeing the tape.

    Once a non-leaf's backward has run, its gradient, closure and parents
    are dropped, so it is freed as soon as nothing else holds it: when
    ``backward`` returns, a non-leaf keeps only its ``data``.
    """
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
    while topo:
        node = topo.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad, node._backward, node._parents = None, None, ()


# the largest relative error ``gradcheck`` and the ``gradcheck`` command pass by default
GRADCHECK_TOLERANCE = 1e-4


def gradcheck(build_loss, params: dict[str, Tensor], tol: float = GRADCHECK_TOLERANCE) -> list[str]:
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must rebuild the scalar loss from the live ``params``
    tensors on every call. Every coordinate is probed. Returns failure
    descriptions (empty = pass): a coordinate fails unless its error
    ``|a - n| / max(1, |a|, |n|)`` is ``<= tol``, so a NaN error fails.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    backward(loss)
    analytic = {
        name: (np.array(densify(p.grad)) if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    failures: list[str] = []
    eps = 1e-5  # the central-difference step
    for name, p in params.items():
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = float(build_loss().data)
            flat[i] = keep - eps
            down = float(build_loss().data)
            flat[i] = keep
            numeric = (up - down) / (2.0 * eps)
            a = float(analytic[name].reshape(-1)[i])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if not err <= tol:
                failures.append(
                    f"{name}[{i}]: analytic {a:.6g} vs numeric {numeric:.6g} (rel err {err:.2e})"
                )
    return failures
