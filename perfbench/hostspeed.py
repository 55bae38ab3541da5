"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and the
host's speed changes under it: on a 2-vCPU VM the same ``evaluate_ookb``
call switched between about 0.50 s and 0.80 s in spells of seconds to
minutes, and 30-second medians of a fixed kernel moved from 87 to 62 ms
within five minutes. A run that lasts a minute cannot average that out, so
raw wall times of the same code differ between runs by more than any useful
bound.

``HostSpeed`` times a kernel that depends neither on graphkbc nor on the
workload seed, right before and right after every measured interval. The
kernel does what graphkbc spends its time on: Python object churn (the
autodiff tape, neighbor tables, per-triplet scoring), NumPy calls on tiny
arrays, row gathers with segment maxima over a large table, and parsing
triplet lines. A measured wall time ``w`` over ``[t0, t1]`` is reported as
``w * REFERENCE_S / k``, where ``k`` is the mean of the kernel runs that
bracket the interval: the time on a host that runs the kernel in
``REFERENCE_S``. A change to graphkbc moves that value exactly as it moves
the wall time; a spell in which the host runs everything slower moves the
kernel with it. Over five minutes of back-to-back inference operations, the
spread (IQR / median) of 10-call medians was 0.34-0.36 raw and 0.05-0.08
rescaled.

``REFERENCE_S`` and ``REFERENCE_MEMORY_S`` are part of the benchmark's
definition; changing them rescales every reported time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.060  # about the kernel's median on a 2-vCPU x86-64 VM
REFERENCE_MEMORY_S = 0.022  # about its memory part's median there


class _Node:
    """A value with parents, like a tape node of ``graphkbc.autodiff``."""

    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data = data
        self.parents = parents


class HostSpeed:
    """The kernel runs of one process, and the scale they give an interval."""

    def __init__(self):
        rng = np.random.default_rng(0x5EED)
        n_rows, n_gather = 40_000, 16_000
        self._rows = rng.standard_normal((n_rows, 64))
        self._index = rng.integers(0, n_rows, n_gather)
        self._segments = np.arange(0, n_gather, 8)
        self._weights = rng.standard_normal((64, 64))
        self._small = rng.standard_normal((200, 16))
        self._small_weights = rng.standard_normal((16, 16))
        self._small_index = [rng.integers(0, 200, 5) for _ in range(64)]
        ids = rng.integers(0, 40_000, (8_000, 3)).tolist()
        self._lines = [f"e{h:05d}\t_rel{r % 11:02d}\te{t:05d}" for h, r, t in ids]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.memory: list[float] = []  # each run's memory part, in seconds

    def _kernel(self) -> float:
        # the parts' shares (about 15, 19, 22 and 5 ms on a 2-vCPU VM) make
        # the kernel slow down with the host about as much as graphkbc's
        # operations do: alone, the interpreter parts over-react to the
        # host's slow spells and the memory part under-reacts
        # interpreter: build, index and walk small objects
        nodes, buckets = [], {}
        for i in range(20_000):
            node = _Node(i, (i - 1,))
            nodes.append(node)
            buckets[i % 997] = node
        total = float(sum(n.data + len(n.parents) for n in nodes) + len(buckets))
        # NumPy dispatch on tiny arrays, each result wrapped in a node
        for _ in range(30):
            for index in self._small_index:
                x = _Node(self._small[index], ())
                y = _Node(x.data @ self._small_weights, (x,))
                z = _Node(np.maximum(y.data, 0.0), (y,))
                total += _Node(z.data.max(axis=0), (z,)).data[0]
        # memory: row gather, segment maxima, a product
        start = time.perf_counter()
        pooled = np.maximum.reduceat(self._rows[self._index], self._segments, axis=0)
        total += float((pooled @ self._weights).sum())
        self.memory.append(time.perf_counter() - start)
        # text: split triplet lines into a dict, as the file loaders do
        parsed = {}
        for line in self._lines:
            head, relation, tail = line.split("\t")
            parsed[head, relation] = tail
        return total + len(parsed)

    def sample(self) -> None:
        # with the collector off, the kernel's time does not depend on how
        # many objects the rest of the process holds
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    @property
    def last(self) -> float:
        """perf_counter() at the end of the latest kernel run."""
        return self.ends[-1] if self.ends else float("-inf")

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scale(self, t0: float, t1: float, memory_bound: bool = False) -> float:
        """REFERENCE_S over the mean of the kernel runs that bracket [t0, t1]:
        the latest to end by t0 and the first to start at t1 or later.

        ``memory_bound`` uses the runs' memory part and its reference
        instead: training minibatch times, which stream ~10^5-row arrays,
        followed that part (over 90 s of ``wn11`` minibatches the spread of
        6-minibatch medians was 0.12 raw, 0.055 by the memory part and 0.075
        by the whole kernel), while the inference operations follow the
        whole kernel.
        """
        runs = self.memory if memory_bound else self.durations()
        near = []
        before = bisect.bisect_right(self.ends, t0) - 1
        if before >= 0:
            near.append(runs[before])
        after = bisect.bisect_left(self.starts, t1)
        if after < len(self.starts):
            near.append(runs[after])
        if not near:
            return 1.0
        return (REFERENCE_MEMORY_S if memory_bound else REFERENCE_S) / statistics.mean(near)

    def factor(self) -> float:
        """REFERENCE_S over the median of every kernel run; 1 before any."""
        runs = self.durations()
        return REFERENCE_S / statistics.median(runs) if runs else 1.0
