"""Small synthetic corpora for end-to-end tests.

``grid_corpus`` is grid-structured, ``hub_corpus`` has one-to-many and
many-to-many relations.

Entities sit on a 7 x 5 grid; relation "right" steps one column east, "up"
one row north, and "jump" two columns east, so an exact translation
embedding exists (position scaled by any constant). Negative evaluation
triplets are wrong-offset links, which no consistent translation embedding
can satisfy.

The test file keeps two non-adjacent interior entities, g3_1 and g3_3, in
its tail slots. A tail-position split therefore holds exactly those two out
of the knowledge base, and since no edge connects them to each other, every
one of their edges survives as an auxiliary triplet: their query-time
neighborhoods look exactly like a trained entity's neighborhood.
"""

from __future__ import annotations

import numpy as np

from graphkbc.kg import LabeledTriplet, Triplet, Vocabulary

WIDTH, HEIGHT = 7, 5
HELD = [(3, 1), (3, 3)]


def grid_corpus(seed=0):
    ev, rv = Vocabulary(), Vocabulary()
    right, up, jump = rv.intern(["right", "up", "jump"]).tolist()

    def ent(i, j):
        return int(ev.intern([f"g{i}_{j}"])[0])

    train = []
    for i in range(WIDTH):
        for j in range(HEIGHT):
            if i + 1 < WIDTH:
                train.append(Triplet(ent(i, j), right, ent(i + 1, j)))
            if j + 1 < HEIGHT:
                train.append(Triplet(ent(i, j), up, ent(i, j + 1)))
            if i + 2 < WIDTH:
                train.append(Triplet(ent(i, j), jump, ent(i + 2, j)))

    rng = np.random.default_rng(seed)

    def wrong_head(tail_i, tail_j, relation):
        # any head that is not the correct offset from the tail
        while True:
            i = int(rng.integers(WIDTH))
            j = int(rng.integers(HEIGHT))
            if relation == right and (i + 1, j) == (tail_i, tail_j):
                continue
            if relation == jump and (i + 2, j) == (tail_i, tail_j):
                continue
            if relation == up and (i, j + 1) == (tail_i, tail_j):
                continue
            if (i, j) == (tail_i, tail_j):
                continue
            return ent(i, j)

    test = []
    for i, j in HELD:
        for rel, (hi, hj) in ((right, (i - 1, j)), (jump, (i - 2, j)), (up, (i, j - 1))):
            test.append(LabeledTriplet(Triplet(ent(hi, hj), rel, ent(i, j)), True))
            test.append(LabeledTriplet(
                Triplet(wrong_head(i, j, rel), rel, ent(i, j)), False))

    held = set(HELD)
    valid = []
    for i in range(WIDTH - 1):
        for j in range(HEIGHT):
            if (i, j) in held or (i + 1, j) in held:
                continue
            valid.append(LabeledTriplet(Triplet(ent(i, j), right, ent(i + 1, j)), True))
            valid.append(LabeledTriplet(
                Triplet(wrong_head(i + 1, j, right), right, ent(i + 1, j)), False))

    return train, valid, test, ev, rv


def hub_corpus(n_hubs=3, leaves_per_hub=6):
    """Hubs that each own a few leaves, as (train triplets, entity vocab, relation vocab).

    ``has`` links a hub to each of its leaves (one-to-many), ``part_of`` a
    leaf back to its hub (many-to-one) and ``sibling`` every ordered pair of
    leaves of one hub (many-to-many). Unlike the grid's one-to-one
    relations, many corruptions of these triplets are themselves training
    triplets: replacing the tail of ``(h, has, a)`` with another leaf of
    ``h``, or of ``(a, sibling, b)`` with another sibling of ``a``.
    """
    ev, rv = Vocabulary(), Vocabulary()
    has, part_of, sibling = rv.intern(["has", "part_of", "sibling"]).tolist()
    train = []
    for k in range(n_hubs):
        hub = int(ev.intern([f"hub{k}"])[0])
        leaves = ev.intern([f"leaf{k}_{i}" for i in range(leaves_per_hub)]).tolist()
        for a in leaves:
            train += [Triplet(hub, has, a), Triplet(a, part_of, hub)]
            train += [Triplet(a, sibling, b) for b in leaves if b != a]
    return train, ev, rv
