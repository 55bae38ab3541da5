"""In-memory knowledge graph: interned vocabularies, the triplet array, file I/O.

Datasets are UTF-8 text, one triplet per line, tab-separated
``head<TAB>relation<TAB>tail`` with an optional fourth column ``1``/``-1``
for labeled (validation/test) files. Entity and relation names are interned
into dense 0-based ids so that the rest of the pipeline works on integers.
"""

from __future__ import annotations

import json
import re
from itertools import chain, filterfalse, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .autodiff import stable_order


class DataError(ValueError):
    """A malformed input data file (exit 2)."""


class TripletParseError(ValueError):
    """A triplet file line that cannot be parsed (carries path and line number)."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class Vocabulary:
    """Order-preserving string interner with contiguous 0-based ids."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = list(dict.fromkeys(names))
        self.index: dict[str, int] = dict(zip(self.names, range(len(self.names))))

    def intern(self, names: Sequence[str]) -> np.ndarray:
        """The intp ids of ``names``, interning unseen ones in first-seen order.

        One lookup pass when every name is known; the first unknown one
        interns the unseen names and looks them all up again.
        """
        try:
            return np.fromiter(map(self.index.__getitem__, names), np.intp, len(names))
        except KeyError:
            fresh = dict.fromkeys(filterfalse(self.index.__contains__, names))
        self.index.update(zip(fresh, range(len(self.names), len(self.names) + len(fresh))))
        self.names.extend(fresh)
        return np.fromiter(map(self.index.__getitem__, names), np.intp, len(names))

    def id_of(self, name: str) -> int:
        return self.index[name]

    def name_of(self, ident: int) -> str:
        return self.names[ident]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def save(self, path) -> None:
        """Persist as a newline-delimited name list; the line number is the id."""
        write_lines(path, self.names)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls(_read_lines(path))


def write_lines(path, lines: Sequence[str]) -> None:
    """Write ``lines`` as UTF-8, each ended by a newline, in one write (none: an empty file)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n" if lines else "")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file without their ends, split as iterating it splits them.

    A byte that is not UTF-8 raises ``TripletParseError`` naming its line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            escaped = fh.read().split("\n")  # a byte that is not UTF-8 reads as U+DC80..U+DCFF
        line_no = next(i for i, line in enumerate(escaped, 1)
                       if re.search("[\udc80-\udcff]", line))
        raise TripletParseError(path, line_no,
                                f"byte {exc.object[exc.start]:#04x} is not UTF-8") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def read_json(path, parse):
    """``parse`` of the JSON in ``path``; a malformed file is a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed ({type(exc).__name__}: {exc})") from exc


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


def labeled_arrays(labeled) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) intp id array and the (n,) boolean labels of labeled triplets.

    ``labeled`` is a ``LabeledTriplet`` sequence or a ``(rows, labels)`` array pair.
    """
    if isinstance(labeled, tuple) and len(labeled) == 2 and isinstance(labeled[1], np.ndarray):
        return triplet_array(labeled[0]), labeled[1].astype(bool, copy=False)
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
        n_keys = n_ent * n_ent * n_rel
        if n_keys >= 2**63:
            raise ValueError("entity and relation ids too large for int64 triplet keys")
        self._bound = np.array([n_ent, n_rel, n_ent])
        keys = self._key(rows)
        order = stable_order(keys, n_keys)
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)  # the first of each run of equal keys
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        self.keys = keys[first]
        kept = np.zeros(len(rows), dtype=bool)
        kept[order[first]] = True
        self.triplets: np.ndarray = rows[kept]
        self.duplicates_collapsed: int = len(rows) - len(self.keys)

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
) -> tuple[np.ndarray, np.ndarray]:
    """Read a triplet file as an (n, 3) intp id array and an (n,) boolean label array.

    Names are interned into the given vocabularies in first-seen order, head
    then tail on each line. Unlabeled files yield positive labels. Labeled
    files must carry a fourth tab-separated column holding ``1`` or ``-1``.
    Blank lines are rejected: the distributed benchmark files contain none,
    so one is a corruption sign. A file that fails to parse interns nothing.
    """
    width = 4 if labeled else 3
    lines = _read_lines(path)
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.intp, len(lines))
    misshapen = np.flatnonzero(tabs != width - 1)
    n = int(misshapen[0]) if len(misshapen) else len(lines)  # the leading well-shaped lines
    fields = "\t".join(lines[:n]).split("\t") if n else []
    labels = np.ones(n, dtype=bool)
    if labeled:
        tokens = np.array(fields[3::4], dtype=object)
        labels = tokens == "1"
        bad = np.flatnonzero(~labels & (tokens != "-1"))
        if len(bad):
            raise TripletParseError(path, int(bad[0]) + 1,
                                    f"bad label {tokens[bad[0]]!r} (expected 1 or -1)")
    if n < len(lines):
        message = (f"expected {width} tab-separated fields, got {tabs[n] + 1}" if lines[n]
                   else "blank line")
        raise TripletParseError(path, n + 1, message)
    ends = [None] * (2 * n)
    ends[0::2], ends[1::2] = fields[0::width], fields[2::width]
    rows = np.empty((n, 3), dtype=np.intp)
    rows[:, ::2] = entity_vocab.intern(ends).reshape(n, 2)
    rows[:, 1] = relation_vocab.intern(fields[1::width])
    return rows, labels


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
    write_lines(path, list(map("\t".join, zip(*columns))))

