"""In-memory knowledge graph: interned vocabularies, the triplet array, file I/O.

Datasets are UTF-8 text, one triplet per line, tab-separated
``head<TAB>relation<TAB>tail`` with an optional fourth column ``1``/``-1``
for labeled (validation/test) files. Entity and relation names are interned
into dense 0-based ids so that the rest of the pipeline works on integers.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np


class TripletParseError(ValueError):
    """A triplet file line that cannot be parsed (carries path and line number)."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class Vocabulary:
    """Order-preserving string interner with contiguous 0-based ids."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        """Return the id of ``name``, interning it on first sight."""
        ident = self.index.get(name)
        if ident is None:
            ident = len(self.names)
            self.index[name] = ident
            self.names.append(name)
        return ident

    def id_of(self, name: str) -> int:
        return self.index[name]

    def name_of(self, ident: int) -> str:
        return self.names[ident]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def save(self, path) -> None:
        """Persist as a newline-delimited name list; the line number is the id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.names:
                fh.write(name + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            return cls(line.rstrip("\n") for line in fh)


class Triplet(NamedTuple):
    head: int
    relation: int
    tail: int


class LabeledTriplet(NamedTuple):
    triplet: Triplet
    label: bool  # True = positive


def triplet_array(triplets) -> np.ndarray:
    """(head, relation, tail) rows of Triplets, id tuples or an id array, as (n, 3) intp."""
    if isinstance(triplets, np.ndarray):
        return triplets.astype(np.intp, copy=False).reshape(-1, 3)
    return np.fromiter(chain.from_iterable(triplets), dtype=np.intp).reshape(-1, 3)


def labeled_arrays(labeled: Sequence[LabeledTriplet]) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) intp id array and the (n,) boolean labels of labeled triplets."""
    rows = triplet_array(lt.triplet for lt in labeled)
    return rows, np.fromiter((lt.label for lt in labeled), dtype=bool, count=len(rows))


class KnowledgeGraph:
    """Immutable triplet array with a sorted key index for membership.

    ``triplets`` is an (n, 3) intp array of (head, relation, tail) rows,
    deduplicated in first-seen order; ``keys`` holds each row's int64 key
    ``(head * n_relations + relation) * n_entities + tail``, sorted, where the
    counts are one past the largest ids. Duplicate input triplets collapse
    silently; the collapsed count is kept for load summaries. Neighborhoods
    live in ``model.NeighborTable``, built from the array.
    """

    def __init__(self, triplets: Iterable[Triplet]):
        rows = triplet_array(triplets)
        n_ent = int(rows[:, ::2].max()) + 1 if len(rows) else 0
        n_rel = int(rows[:, 1].max()) + 1 if len(rows) else 0
        if n_ent * n_ent * n_rel >= 2**63:
            raise ValueError("entity and relation ids too large for int64 triplet keys")
        self._bound = np.array([n_ent, n_rel, n_ent])
        self.keys, first = np.unique(self._key(rows), return_index=True)
        first.sort()
        self.triplets: np.ndarray = rows[first]
        self.duplicates_collapsed: int = len(rows) - len(first)

    def _key(self, rows: np.ndarray) -> np.ndarray:
        rows = rows.astype(np.int64, copy=False)
        return (rows[:, 0] * self._bound[1] + rows[:, 1]) * self._bound[0] + rows[:, 2]

    def __len__(self) -> int:
        return len(self.triplets)

    def contains(self, rows) -> np.ndarray:
        """Membership of every row of an (m, 3) id array."""
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, 3)
        found = ((rows >= 0) & (rows < self._bound)).all(axis=1)
        if found.any():
            keys = self._key(rows[found])
            pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
            found[found] = self.keys[pos] == keys
        return found


def build_graph(triplets: Iterable[Triplet]) -> KnowledgeGraph:
    return KnowledgeGraph(triplets)


def entities_of(source) -> set[int]:
    """All entity ids occurring as head or tail of a graph or of triplets."""
    rows = source.triplets if isinstance(source, KnowledgeGraph) else triplet_array(source)
    return set(np.unique(rows[:, ::2]).tolist())


def load_triplet_file(
    path,
    entity_vocab: Vocabulary,
    relation_vocab: Vocabulary,
    labeled: bool = False,
) -> list[LabeledTriplet]:
    """Read a triplet file, interning names into the given vocabularies.

    Unlabeled files yield positive labels. Labeled files must carry a fourth
    tab-separated column holding ``1`` or ``-1``. Blank lines are rejected:
    the distributed benchmark files contain none, so one is a corruption sign.
    """
    expected = 4 if labeled else 3
    out: list[LabeledTriplet] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                raise TripletParseError(path, line_no, "blank line")
            fields = line.split("\t")
            if len(fields) != expected:
                raise TripletParseError(
                    path,
                    line_no,
                    f"expected {expected} tab-separated fields, got {len(fields)}",
                )
            h = entity_vocab.add(fields[0])
            r = relation_vocab.add(fields[1])
            t = entity_vocab.add(fields[2])
            if labeled:
                if fields[3] == "1":
                    label = True
                elif fields[3] == "-1":
                    label = False
                else:
                    raise TripletParseError(
                        path, line_no, f"bad label {fields[3]!r} (expected 1 or -1)"
                    )
            else:
                label = True
            out.append(LabeledTriplet(Triplet(h, r, t), label))
    return out


def save_triplet_file(
    path,
    triplets,
    entity_vocab: Vocabulary,
    relation_vocab: Vocabulary,
    labels=None,
) -> None:
    """Write triplets in the tab-separated dataset format (inverse of load).

    ``triplets`` is anything ``triplet_array`` takes; ``labels``, when given,
    adds the ``1``/``-1`` column of a labeled file.
    """
    rows = triplet_array(triplets)
    entities = np.array(entity_vocab.names, dtype=object)
    columns = [entities[rows[:, 0]], np.array(relation_vocab.names, dtype=object)[rows[:, 1]],
               entities[rows[:, 2]]]
    if labels is not None:
        columns.append(np.where(labels, "1", "-1"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in map("\t".join, zip(*columns)))


def positives(labeled: Iterable[LabeledTriplet]) -> list[Triplet]:
    """The triplets carrying a positive label."""
    return [lt.triplet for lt in labeled if lt.label]
