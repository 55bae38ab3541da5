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
import os
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .kg import (
    KnowledgeGraph,
    LabeledTriplet,
    Triplet,
    Vocabulary,
    _read_lines,
    build_graph,
    labeled_arrays,
    load_triplet_file,
    read_json,
    save_triplet_file,
    triplet_array,
)


def _endpoints_in(rows: np.ndarray, entities: np.ndarray) -> np.ndarray:
    """(n, 2) mask: whether each row's head and tail lie in the id array ``entities``."""
    # a lookup table over the entities' id range: ids are dense vocabulary indices
    return np.isin(rows[:, ::2], entities, kind="table")


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
    """The full bundle produced for one (position, n) setting.

    ``ookb_entities`` is a sorted intp array. Read from files, ``aux`` is an
    id array and ``validation``/``test`` are ``(rows, labels)`` array pairs.
    """

    train: KnowledgeGraph
    aux: list[Triplet] | np.ndarray
    ookb_entities: np.ndarray
    validation: list[LabeledTriplet] | tuple[np.ndarray, np.ndarray]
    test: list[LabeledTriplet] | tuple[np.ndarray, np.ndarray]
    stats: SplitStats

    def check(self) -> list[str]:
        """Machine-check the split invariants; returns violation messages."""
        ookb = self.ookb_entities
        train = self.train.triplets
        aux = triplet_array(self.aux)
        test = labeled_arrays(self.test)[0]
        valid = labeled_arrays(self.validation)[0]
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


def choose_candidates(test_rows: np.ndarray, n: int, position: OokbPosition) -> np.ndarray:
    """Sorted candidate entity ids from the first ``n`` test rows.

    Both positive and negative test lines count toward ``n``.
    """
    if n > len(test_rows):
        raise ValueError(f"requested first {n} triplets but file has {len(test_rows)}")
    columns = {OokbPosition.HEAD: [0], OokbPosition.TAIL: [2], OokbPosition.BOTH: [0, 2]}
    return np.unique(test_rows[:n, columns[OokbPosition(position)]])


def finalize_ookb(candidates: np.ndarray, train: np.ndarray) -> np.ndarray:
    """Keep the candidates linked to at least one non-candidate in training.

    A candidate survives when some training row pairs it with an entity
    outside the candidate set; candidates connected only to other candidates
    (or only to themselves) are dropped. Returns sorted ids.
    """
    candidate = _endpoints_in(train, candidates)
    return np.unique(train[:, ::2][candidate & ~candidate[:, ::-1]])


def split_training(
    train: np.ndarray, ookb: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three-way partition of training rows by OOKB endpoint count.

    0 endpoints -> kept training set, 1 -> auxiliary set, 2 -> discarded.
    Input order is preserved within each part.
    """
    n_ookb = _endpoints_in(train, ookb).sum(axis=1)
    return tuple(train[n_ookb == n] for n in (0, 1, 2))


def filter_eval_sets(
    test_rows: np.ndarray, valid_rows: np.ndarray, n: int, ookb: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masks choosing the test rows among the first ``n`` and the validation rows.

    Test keeps the first-n rows touching an OOKB entity; validation keeps the
    rows touching none, over the whole validation file.
    """
    if n > len(test_rows):
        raise ValueError(f"requested first {n} triplets but file has {len(test_rows)}")
    return (_endpoints_in(test_rows[:n], ookb).any(axis=1),
            ~_endpoints_in(valid_rows, ookb).any(axis=1))


def generate(
    train,
    valid_file,
    test_file,
    n: int,
    position: OokbPosition,
) -> OokbSplit:
    """Compose the full split for one (position, n) setting.

    Each input (``train``: anything ``triplet_array`` takes, the others anything
    ``labeled_arrays`` takes) becomes an id array once.
    """
    rows = triplet_array(train)
    valid_rows, valid_labels = labeled_arrays(valid_file)
    test_rows, test_labels = labeled_arrays(test_file)
    ookb = finalize_ookb(choose_candidates(test_rows, n, position), rows)
    kept, aux, discarded = split_training(rows, ookb)
    test_keep, valid_keep = filter_eval_sets(test_rows, valid_rows, n, ookb)

    graph = build_graph(kept)
    aux_entities = np.unique(aux[:, ::2])
    known_ends = aux[:, ::2][~_endpoints_in(aux, ookb)]
    outside = int((~np.isin(known_ends, graph.triplets[:, ::2])).sum())

    stats = SplitStats(
        training_triplets=len(graph),
        validation_triplets=int(valid_keep.sum()),
        test_triplets=int(test_keep.sum()),
        auxiliary_triplets=len(aux),
        ookb_entities=len(ookb),
        auxiliary_entities=len(np.setdiff1d(aux_entities, ookb)),
        auxiliary_entities_total=len(aux_entities),
        discarded_triplets=len(discarded),
        aux_known_endpoint_outside_training=outside,
    )
    split = OokbSplit(
        train=graph,
        aux=[Triplet(*row) for row in aux.tolist()],
        ookb_entities=ookb,
        validation=_labeled_triplets(valid_rows[valid_keep], valid_labels[valid_keep]),
        test=_labeled_triplets(test_rows[:n][test_keep], test_labels[:n][test_keep]),
        stats=stats,
    )
    problems = split.check()
    if problems:
        raise AssertionError("split construction violated invariants: " + problems[0])
    return split


def _labeled_triplets(rows: np.ndarray, labels: np.ndarray) -> list[LabeledTriplet]:
    return [LabeledTriplet(Triplet(*row), label) for row, label in zip(rows.tolist(), labels.tolist())]


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
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, f"{name}.{part}") for key, part in (
        ("train", "train.txt"), ("aux", "aux.txt"), ("valid", "valid.txt"), ("test", "test.txt"),
        ("ookb", "ookb.txt"), ("stats", "stats.txt"), ("stats_json", "stats.json"))}
    save_triplet_file(paths["train"], split.train.triplets, entity_vocab, relation_vocab)
    save_triplet_file(paths["aux"], split.aux, entity_vocab, relation_vocab)
    for key, part in (("valid", split.validation), ("test", split.test)):
        rows, labels = labeled_arrays(part)
        save_triplet_file(paths[key], rows, entity_vocab, relation_vocab, labels)
    with open(paths["ookb"], "w", encoding="utf-8") as fh:
        fh.writelines(entity_vocab.name_of(e) + "\n" for e in split.ookb_entities.tolist())
    with open(paths["stats"], "w", encoding="utf-8") as fh:
        fh.write(split.stats.as_text())
    with open(paths["stats_json"], "w", encoding="utf-8") as fh:
        json.dump(asdict(split.stats), fh, indent=2)
        fh.write("\n")
    return paths


def read_split(prefix, entity_vocab: Vocabulary, relation_vocab: Vocabulary) -> OokbSplit:
    """The split ``write_split`` wrote as ``{out_dir}/{name}``, read back into the vocabularies.

    Names are interned in file order: train, aux, valid, test, then the OOKB
    list. A malformed ``stats.json`` is a ``DataError`` naming it.
    """
    def load(part, labeled=False):
        return load_triplet_file(f"{prefix}.{part}.txt", entity_vocab, relation_vocab, labeled)

    train = build_graph(load("train")[0])
    aux, _ = load("aux")
    valid, test = load("valid", labeled=True), load("test", labeled=True)
    ookb = np.unique(entity_vocab.intern(_read_lines(f"{prefix}.ookb.txt")))
    stats = read_json(f"{prefix}.stats.json", lambda fields: SplitStats(**fields))
    return OokbSplit(train=train, aux=aux, ookb_entities=ookb,
                     validation=valid, test=test, stats=stats)
