"""Seeded synthetic knowledge graph with the shape of WordNet11.

WN11 (Socher et al. 2013) has 38,696 entities, 11 relations and 112,581
training triplets, with 5,218 validation and 21,088 test triplets of which
half are positive. The files cannot be redistributed, so the benchmark draws
a graph of the same size from a seed:

* head degrees follow a Zipf(1.8) law (a few hubs, a long tail of entities
  that head one or two triplets), tails are uniform, and every entity
  occurs in at least one training triplet;
* relation frequencies are skewed like WN11's (one dominant relation);
* validation and test files alternate a held-out positive triplet with a
  tail-corrupted negative of it, so the first N test lines name about N/2
  distinct heads, as in the published head-N out-of-KB splits.

The same seed always yields the same triplets, names and file order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ENTITIES = 38_696
N_RELATIONS = 11
N_TRAIN = 112_581
N_VALID = 5_218
N_TEST = 21_088
ZIPF_A = 1.8
# caps a single entity's Zipf draw so that no hub swallows the graph
MAX_HEAD_WEIGHT = 2_000
RELATION_WEIGHTS = np.array([30, 18, 12, 9, 7, 6, 5, 4, 4, 3, 2], dtype=float)


@dataclass
class Wn11Shape:
    """Id arrays plus names; labels are booleans (True = positive) in file order."""

    train: np.ndarray  # (N_TRAIN, 3) head, relation, tail
    valid: np.ndarray  # (N_VALID, 3)
    valid_labels: np.ndarray  # (N_VALID,) bool, True = positive
    test: np.ndarray  # (N_TEST, 3)
    test_labels: np.ndarray
    entity_names: list[str]
    relation_names: list[str]


def _keys(triplets: np.ndarray) -> np.ndarray:
    h, r, t = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    return (h * N_RELATIONS + r) * N_ENTITIES + t


def _draw_entities(rng, weights: np.ndarray, size: int) -> np.ndarray:
    return rng.choice(N_ENTITIES, size=size, p=weights)


def _resample_clashes(rng, triplets, taken: np.ndarray, column: int, weights) -> None:
    """Redraw ``column`` of every row that is a self loop, repeats an earlier
    row, or repeats a key in ``taken``, until none remains."""
    while True:
        keys = _keys(triplets)
        _, first = np.unique(keys, return_index=True)
        repeat = np.ones(len(keys), dtype=bool)
        repeat[first] = False
        bad = np.flatnonzero(repeat | np.isin(keys, taken) | (triplets[:, 0] == triplets[:, 2]))
        if bad.size == 0:
            return
        triplets[bad, column] = _draw_entities(rng, weights, bad.size)


def _labeled(rng, n: int, taken: np.ndarray, rel_p, uniform) -> np.ndarray:
    """Alternating positive / tail-corrupted negative rows, none in ``taken``."""
    half = n // 2
    pos = np.stack([
        _draw_entities(rng, uniform, half),
        rng.choice(N_RELATIONS, size=half, p=rel_p),
        _draw_entities(rng, uniform, half),
    ], axis=1)
    _resample_clashes(rng, pos, taken, 2, uniform)
    taken = np.union1d(taken, _keys(pos))
    neg = pos.copy()
    neg[:, 2] = _draw_entities(rng, uniform, half)
    _resample_clashes(rng, neg, taken, 2, uniform)
    out = np.empty((n, 3), dtype=np.int64)
    out[0::2] = pos
    out[1::2] = neg
    return out


def generate(seed: int) -> Wn11Shape:
    """Draw the whole corpus from ``seed``."""
    rng = np.random.default_rng([seed, 0x11])
    head_w = np.minimum(rng.zipf(ZIPF_A, size=N_ENTITIES), MAX_HEAD_WEIGHT).astype(float)
    head_w /= head_w.sum()
    uniform = np.full(N_ENTITIES, 1.0 / N_ENTITIES)
    rel_p = RELATION_WEIGHTS / RELATION_WEIGHTS.sum()

    train = np.empty((N_TRAIN, 3), dtype=np.int64)
    train[:, 0] = _draw_entities(rng, head_w, N_TRAIN)
    train[:, 1] = rng.choice(N_RELATIONS, size=N_TRAIN, p=rel_p)
    # the first N_ENTITIES tails enumerate every entity once, so each entity
    # occurs in training; clashes are repaired on the head side to keep that
    train[:N_ENTITIES, 2] = rng.permutation(N_ENTITIES)
    train[N_ENTITIES:, 2] = _draw_entities(rng, uniform, N_TRAIN - N_ENTITIES)
    _resample_clashes(rng, train, np.empty(0, dtype=np.int64), 0, head_w)
    train = train[rng.permutation(N_TRAIN)]

    taken = np.unique(_keys(train))
    valid = _labeled(rng, N_VALID, taken, rel_p, uniform)
    taken = np.union1d(taken, _keys(valid))
    test = _labeled(rng, N_TEST, taken, rel_p, uniform)
    return Wn11Shape(
        train=train,
        valid=valid,
        valid_labels=np.arange(N_VALID) % 2 == 0,
        test=test,
        test_labels=np.arange(N_TEST) % 2 == 0,
        entity_names=[f"e{i:05d}" for i in range(N_ENTITIES)],
        relation_names=[f"_rel{r:02d}" for r in range(N_RELATIONS)],
    )
