"""Deterministic construction of out-of-knowledge-base evaluation splits.

Starting from a standard triplet-classification benchmark (train / valid /
test files), carve out a set of entities that the trained model must never
see: pick candidate entities from the first N test triplets (by head, tail,
or both endpoints), keep the candidates that are connected to at least one
non-candidate through the training set, then partition the training triplets
by how many of their endpoints fall in that set. Triplets touching no such
entity stay in training, triplets bridging exactly one become the auxiliary
set available at query time, and triplets with two are discarded.

There is no randomness anywhere in this module: identical inputs produce
identical splits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .kg import (
    KnowledgeGraph,
    LabeledTriplet,
    Triplet,
    Vocabulary,
    build_graph,
    entities_of,
    save_triplet_file,
    triplet_array,
)


def _endpoints_in(triplets, entities) -> np.ndarray:
    """(n, 2) mask: whether each triplet's head and tail lie in ``entities``."""
    # a lookup table over the entities' id range: ids are dense vocabulary indices
    return np.isin(triplet_array(triplets)[:, ::2], np.fromiter(entities, dtype=np.intp), kind="table")


class OokbPosition(str, Enum):
    HEAD = "head"
    TAIL = "tail"
    BOTH = "both"


@dataclass
class SplitStats:
    """Flat counts describing one generated split."""

    training_triplets: int
    validation_triplets: int
    test_triplets: int
    auxiliary_triplets: int
    ookb_entities: int
    auxiliary_entities: int  # distinct non-OOKB entities occurring in aux
    auxiliary_entities_total: int  # distinct entities of either kind in aux
    discarded_triplets: int
    # aux triplets whose known endpoint never occurs in the kept training set;
    # nonzero values are possible on real data and are surfaced, not fatal
    aux_known_endpoint_outside_training: int

    def as_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in asdict(self).items())


@dataclass
class OokbSplit:
    """The full bundle produced for one (position, n) setting."""

    train: KnowledgeGraph
    aux: list[Triplet]
    ookb_entities: set[int]
    validation: list[LabeledTriplet]
    test: list[LabeledTriplet]
    stats: SplitStats

    def check(self) -> list[str]:
        """Machine-check the split invariants; returns violation messages."""
        ookb = self.ookb_entities
        train = self.train.triplets
        aux = triplet_array(self.aux)
        test = triplet_array([lt.triplet for lt in self.test])
        valid = triplet_array([lt.triplet for lt in self.validation])
        n_aux = _endpoints_in(aux, ookb).sum(axis=1)
        problems = [f"training triplet touches OOKB entity: {Triplet(*row)}"
                    for row in train[_endpoints_in(train, ookb).any(axis=1)].tolist()]
        problems += [f"aux triplet has {n} OOKB endpoints: {Triplet(*row)}"
                     for row, n in zip(aux.tolist(), n_aux.tolist()) if n != 1]
        problems += [f"test triplet has no OOKB endpoint: {Triplet(*row)}"
                     for row in test[~_endpoints_in(test, ookb).any(axis=1)].tolist()]
        problems += [f"validation triplet touches OOKB entity: {Triplet(*row)}"
                     for row in valid[_endpoints_in(valid, ookb).any(axis=1)].tolist()]
        return problems


def choose_candidates(
    test_file: Sequence[LabeledTriplet], n: int, position: OokbPosition
) -> set[int]:
    """Candidate entities from the first ``n`` test triplets, in file order.

    Both positive and negative test lines count toward ``n``.
    """
    if n > len(test_file):
        raise ValueError(f"requested first {n} triplets but file has {len(test_file)}")
    position = OokbPosition(position)
    candidates: set[int] = set()
    for lt in test_file[:n]:
        t = lt.triplet
        if position in (OokbPosition.HEAD, OokbPosition.BOTH):
            candidates.add(t.head)
        if position in (OokbPosition.TAIL, OokbPosition.BOTH):
            candidates.add(t.tail)
    return candidates


def finalize_ookb(candidates: set[int], train: Iterable[Triplet]) -> set[int]:
    """Keep the candidates linked to at least one non-candidate in training.

    A candidate survives when some training triplet pairs it with an entity
    outside the candidate set; candidates connected only to other candidates
    (or only to themselves) are dropped.
    """
    rows = triplet_array(train)
    candidate = _endpoints_in(rows, candidates)
    return set(rows[:, ::2][candidate & ~candidate[:, ::-1]].tolist())


def split_training(
    train: Sequence[Triplet], ookb: set[int]
) -> tuple[list[Triplet], list[Triplet], list[Triplet]]:
    """Three-way partition of training triplets by OOKB endpoint count.

    0 endpoints -> kept training set, 1 -> auxiliary set, 2 -> discarded.
    Input order is preserved within each part.
    """
    n_ookb = _endpoints_in(train, ookb).sum(axis=1)
    return tuple(list(compress(train, (n_ookb == n).tolist())) for n in (0, 1, 2))


def filter_eval_sets(
    test_file: Sequence[LabeledTriplet],
    valid_file: Sequence[LabeledTriplet],
    n: int,
    ookb: set[int],
) -> tuple[list[LabeledTriplet], list[LabeledTriplet]]:
    """Test = first-n triplets touching an OOKB entity; validation = the rest.

    Validation keeps only triplets touching no OOKB entity, over the whole
    validation file. Labels are preserved on both sides.
    """
    if n > len(test_file):
        raise ValueError(f"requested first {n} triplets but file has {len(test_file)}")
    test = [
        lt
        for lt in test_file[:n]
        if lt.triplet.head in ookb or lt.triplet.tail in ookb
    ]
    validation = [
        lt
        for lt in valid_file
        if lt.triplet.head not in ookb and lt.triplet.tail not in ookb
    ]
    return test, validation


def generate(
    train: Sequence[Triplet],
    valid_file: Sequence[LabeledTriplet],
    test_file: Sequence[LabeledTriplet],
    n: int,
    position: OokbPosition,
) -> OokbSplit:
    """Compose the full split for one (position, n) setting."""
    candidates = choose_candidates(test_file, n, position)
    ookb_entities = finalize_ookb(candidates, train)
    kept, aux, discarded = split_training(train, ookb_entities)
    test, validation = filter_eval_sets(test_file, valid_file, n, ookb_entities)

    graph = build_graph(kept)
    aux_entities_all = entities_of(aux)
    aux_known = aux_entities_all - ookb_entities
    aux_rows = triplet_array(aux)
    known_ends = aux_rows[:, ::2][~_endpoints_in(aux_rows, ookb_entities)]
    outside = int((~np.isin(known_ends, graph.triplets[:, ::2])).sum())

    stats = SplitStats(
        training_triplets=len(graph),
        validation_triplets=len(validation),
        test_triplets=len(test),
        auxiliary_triplets=len(aux),
        ookb_entities=len(ookb_entities),
        auxiliary_entities=len(aux_known),
        auxiliary_entities_total=len(aux_entities_all),
        discarded_triplets=len(discarded),
        aux_known_endpoint_outside_training=outside,
    )
    split = OokbSplit(
        train=graph,
        aux=aux,
        ookb_entities=ookb_entities,
        validation=validation,
        test=test,
        stats=stats,
    )
    problems = split.check()
    if problems:
        raise AssertionError("split construction violated invariants: " + problems[0])
    return split


def split_name(position: OokbPosition, n: int) -> str:
    return f"{OokbPosition(position).value}-{n}"


def write_split(
    split: OokbSplit,
    out_dir,
    name: str,
    entity_vocab: Vocabulary,
    relation_vocab: Vocabulary,
) -> dict[str, str]:
    """Write the split bundle as dataset-format files plus stats.

    Emits ``{name}.train.txt``/``.aux.txt`` (unlabeled), ``.valid.txt`` and
    ``.test.txt`` (labeled), ``.ookb.txt`` (one OOKB entity name per line),
    and the stats in both key=value text and JSON form.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    def path_of(key, part):
        p = os.path.join(out_dir, f"{name}.{part}")
        paths[key] = p
        return p

    save_triplet_file(path_of("train", "train.txt"), split.train.triplets.tolist(),
                      entity_vocab, relation_vocab)
    save_triplet_file(path_of("aux", "aux.txt"), split.aux, entity_vocab, relation_vocab)
    save_triplet_file(path_of("valid", "valid.txt"), split.validation, entity_vocab, relation_vocab, labeled=True)
    save_triplet_file(path_of("test", "test.txt"), split.test, entity_vocab, relation_vocab, labeled=True)
    with open(path_of("ookb", "ookb.txt"), "w", encoding="utf-8") as fh:
        for e in sorted(split.ookb_entities):
            fh.write(entity_vocab.name_of(e) + "\n")
    with open(path_of("stats", "stats.txt"), "w", encoding="utf-8") as fh:
        fh.write(split.stats.as_text())
    with open(path_of("stats_json", "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(asdict(split.stats), fh, indent=2)
        fh.write("\n")
    return paths
