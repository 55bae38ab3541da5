"""The propagation model and the translation-based output model.

An entity's vector at step n pools its neighbors' step n-1 vectors, each
passed through the transition of its (layer, direction, relation) group:
head-side or tail-side, per relation for ``relation-relu-bn``. All groups'
parameters are rows of one stacked tensor per kind, applied in one call per
step. Step 0 is the learned base embedding. The stacked variant keeps
independent transition parameters per step, the unrolled variant shares one
set; ``mode="none"`` skips propagation entirely and scores raw embeddings
(a plain translation model).

Scoring follows the translation geometry: a triplet (h, r, t) gets the
implausibility ``|| v_h + v_r - v_t ||``; smaller means more plausible.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kg import Vocabulary, triplet_array
from .nn import BatchNorm, CheckpointError, ParamStore, load_checkpoint, save_checkpoint

# what each transition applies: (a matrix, a batch norm, the activation, groups per relation)
TRANSITIONS = {
    "identity": (False, False, None, False),
    "tanh-layer": (True, False, "tanh", False),
    "relu-layer": (True, False, "relu", False),
    "relation-relu-bn": (True, True, "relu", True),
}
POOLINGS = ("sum", "avg", "max")
MODES = ("stacked", "unrolled", "none")

DIR_HEAD = 0  # neighbor is the head of (h, r, e)
DIR_TAIL = 1  # neighbor is the tail of (e, r, t)
DIR_SELF = 2  # fallback: entity keeps its own base vector


class InferenceError(RuntimeError):
    """An entity's vector cannot be resolved (no embedding, no neighbors)."""


@dataclass
class PropagationConfig:
    dim: int = 200
    depth: int = 1
    mode: str = "unrolled"
    pooling: str = "max"
    transition: str = "relation-relu-bn"
    neighbor_cap: int = 64
    norm_p: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if self.pooling not in POOLINGS:
            raise ValueError(f"unknown pooling {self.pooling!r} (expected one of {POOLINGS})")
        if self.transition not in TRANSITIONS:
            raise ValueError(f"unknown transition {self.transition!r} (expected one of {tuple(TRANSITIONS)})")
        if self.mode == "none":
            self.depth = 0
        elif self.depth < 1:
            raise ValueError("depth must be >= 1 unless mode is 'none'")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be >= 1")
        if self.norm_p not in (1, 2):
            raise ValueError("norm_p must be 1 or 2")

    @property
    def n_layers(self) -> int:
        if self.depth == 0:
            return 0
        return self.depth if self.mode == "stacked" else 1

    def layer_of(self, step: int) -> int:
        """Parameter layer used when computing step ``step`` (1-based)."""
        return step - 1 if self.mode == "stacked" else 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ObjectiveConfig:
    objective: str = "absolute"  # or "pairwise"
    margin: float = 300.0

    def __post_init__(self):
        if self.objective not in ("absolute", "pairwise"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not 0 <= self.margin < np.inf:
            raise ValueError(f"margin must be a finite number >= 0, got {self.margin}")


# ---------------------------------------------------------------------------
# pooling: segment reductions over grouped rows, by pooling name

_SEGMENT_POOL = {
    "sum": ad.segment_sum,
    "avg": ad.segment_mean,
    "max": ad.segment_max,
}


# ---------------------------------------------------------------------------
# packed adjacency: one CSR (compressed sparse row) over entity ids

def _rows_of(indptr: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of ``ids``' CSR rows; ids past the end have none."""
    start = np.zeros(len(ids), dtype=np.intp)
    count = np.zeros(len(ids), dtype=np.intp)
    inside = ids < len(indptr) - 1
    start[inside] = indptr[ids[inside]]
    count[inside] = indptr[ids[inside] + 1] - start[inside]
    return start, count


class NeighborTable:
    """(neighbor, relation, direction) records of every entity, as one CSR.

    Entity ``e``'s records are ``nbr``, ``rel`` and ``dir`` over
    ``indptr[e]:indptr[e + 1]``. Every triplet ``(h, r, t)``, of ``triplets``
    and then of ``extra``, gives ``t`` the record ``(h, r, DIR_HEAD)`` and
    then ``h`` the record ``(t, r, DIR_TAIL)``; an entity's records keep that
    order. ``exclude`` drops records whose *neighbor* is one of the given ids,
    which keeps embedding-less entities out of everyone else's neighborhoods.
    The rows cover ``n_entities`` and every id the triplets name.
    """

    def __init__(self, n_entities: int, triplets, extra=(), exclude=()):
        rows = np.concatenate([triplet_array(triplets), triplet_array(extra)])
        owner = rows[:, [2, 0]].ravel()
        nbr = rows[:, [0, 2]].ravel()
        keep = ~np.isin(nbr, np.asarray(exclude, dtype=np.intp))
        size = max(n_entities, int(rows[:, ::2].max()) + 1 if len(rows) else 0)
        order = ad.stable_order(owner[keep], size)
        self.nbr = nbr[keep][order]
        self.rel = np.repeat(rows[:, 1], 2)[keep][order]
        self.dir = np.tile(np.array([DIR_HEAD, DIR_TAIL], dtype=np.intp), len(rows))[keep][order]
        self.indptr = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner[keep], minlength=size), out=self.indptr[1:])

    def degrees(self, ids: np.ndarray) -> np.ndarray:
        return _rows_of(self.indptr, ids)[1]


class NeighborSampler(NeighborTable):
    """A table's records capped per entity, fixed for one epoch: a CSR like the table's.

    Every entity whose degree exceeds the cap keeps a without-replacement
    subset of its records, drawn once in ascending id order and kept in
    record order; entities at or under the cap keep their full
    neighborhoods, so the choice of seed is irrelevant for them.
    """

    def __init__(self, table: NeighborTable, cap: int, seed):
        rng = np.random.default_rng(seed)
        degree = np.diff(table.indptr)
        kept = np.minimum(degree, cap)
        self.indptr = np.zeros(len(table.indptr), dtype=np.intp)
        np.cumsum(kept, out=self.indptr[1:])
        pos = np.arange(self.indptr[-1]) + np.repeat(table.indptr[:-1] - self.indptr[:-1], kept)
        for e in np.flatnonzero(degree > cap).tolist():
            picked = rng.choice(int(degree[e]), size=cap, replace=False)
            picked.sort()
            pos[self.indptr[e]:self.indptr[e + 1]] = table.indptr[e] + picked
        self.nbr, self.rel, self.dir = table.nbr[pos], table.rel[pos], table.dir[pos]


# ---------------------------------------------------------------------------
# plans: the index work of a batch, which reads no parameter

class Plan(NamedTuple):
    """What ``GraphModel.score_ids`` runs on: a batch's index work (``GraphModel.plan``).

    The triplets' heads then tails are rows ``inverse`` of ``ids``, the
    sorted unique endpoints, whose vectors propagation yields: ``base`` is
    the final frontier, whose base rows step 1 pools, and ``steps`` the
    ``group_transition`` index arguments of each step (``_step_plan``).
    ``gathers`` holds the ``autodiff.gather_plan`` of the heads, tails and
    relations gathers.
    """

    ids: np.ndarray
    inverse: np.ndarray
    relations: np.ndarray
    base: np.ndarray
    steps: list[dict]
    gathers: tuple


# ---------------------------------------------------------------------------
# the model

class GraphModel:
    """Embedding tables plus stacked transition parameters over a fixed vocabulary.

    Row ``group_index(layer, direction, relation)`` of the (G, d, d) stack
    ``A`` and of the (G, d) ``bn.*`` tensors (``relation-relu-bn`` only) is
    that neighbor group's transition. A given ``store`` (a loaded
    checkpoint) must hold exactly the model's tensors in their shapes.
    ``name_of`` turns an entity id into the name that error messages show:
    the id itself, or the bundle's entity name once ``load_model`` sets it.
    """

    def __init__(
        self,
        n_entities: int,
        n_relations: int,
        cfg: PropagationConfig,
        store: ParamStore | None = None,
    ):
        self.cfg = cfg
        self.n_entities = n_entities
        self.n_relations = n_relations
        self.name_of = int
        weighted, normed, _, per_relation = TRANSITIONS[cfg.transition]
        self.n_groups = cfg.n_layers * 2 * (n_relations if per_relation else 1)
        d = cfg.dim
        params = {"entities": np.zeros((n_entities, d)), "relations": np.zeros((n_relations, d))}
        buffers = {}
        if self.n_groups and weighted:
            params["A"] = np.broadcast_to(np.eye(d), (self.n_groups, d, d))
        if self.n_groups and normed:
            # a step normalizes each group by its own batch statistics, so
            # inference needs each group's running statistics
            bn_params, buffers = BatchNorm.tensors("bn", self.n_groups, d)
            params |= bn_params
        if store is None:
            store = ParamStore(params, buffers)
        else:
            store.check_layout(params, buffers)
        self.store = store
        self.entities = store.param("entities")
        self.relations = store.param("relations")
        self.A = store.param("A") if "A" in params else None
        self.bn = BatchNorm(store, "bn") if buffers else None

    def init_params(self, rng: np.random.Generator) -> None:
        """Uniform embeddings in +-6/sqrt(d); near-identity transition matrices."""
        bound = 6.0 / np.sqrt(self.cfg.dim)
        self.entities.data[:] = rng.uniform(-bound, bound, size=self.entities.data.shape)
        self.relations.data[:] = rng.uniform(-bound, bound, size=self.relations.data.shape)
        if self.A is not None:
            self.A.data[:] = np.eye(self.cfg.dim) + rng.normal(0.0, 0.01, size=self.A.data.shape)

    def group_index(self, layer, dirs, rel) -> np.ndarray:
        """Row ``(layer * 2 + direction) * R' + relation`` of the stacked tensors.

        R' is ``n_relations`` for a transition whose groups are per relation
        (``relation-relu-bn``); otherwise it is 1 and the relation is ignored.
        """
        dirs = np.asarray(dirs, dtype=np.intp)
        if not TRANSITIONS[self.cfg.transition][3]:
            return layer * 2 + dirs
        rel = np.asarray(rel, dtype=np.intp)
        bad = rel[(rel < 0) | (rel >= self.n_relations)]
        if bad.size:
            raise IndexError(f"relation {bad[0]} is outside the model's {self.n_relations} relations")
        return (layer * 2 + dirs) * self.n_relations + rel

    # -- propagation ------------------------------------------------------

    def neighbor_records(
        self,
        ids: np.ndarray,
        table: NeighborTable,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(neighbor, relation, direction, segment) records of ``ids``.

        Records come in the order of ``ids``; ``segment`` is the position in
        ``ids``. No entity may have more records than the neighbor cap, so a
        table with larger neighborhoods comes capped, as a ``NeighborSampler``.
        An entity without records gets one self record: singleton pooling of
        its own vector is the identity for all poolings, realizing the
        base-embedding fallback.
        """
        ids = np.asarray(ids, dtype=np.intp)
        start, count = _rows_of(table.indptr, ids)
        over = count > self.cfg.neighbor_cap
        if over.any():
            i = int(np.argmax(over))
            raise ValueError(
                f"entity {ids[i]} has {count[i]} neighbors, above the cap "
                f"{self.cfg.neighbor_cap}; pass a NeighborSampler"
            )
        n_rows = np.maximum(count, 1)  # an entity without records gets its self record
        seg = np.repeat(np.arange(len(ids)), n_rows)
        real = np.repeat(count > 0, n_rows)
        pos = (np.arange(len(seg)) + np.repeat(start + n_rows - np.cumsum(n_rows), n_rows))[real]
        nbr = ids[seg]
        nbr[real] = table.nbr[pos]
        rel = np.full(len(seg), -1, dtype=np.intp)
        rel[real] = table.rel[pos]
        dirs = np.full(len(seg), DIR_SELF, dtype=np.intp)
        dirs[real] = table.dir[pos]
        return nbr, rel, dirs, seg

    def plan(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        table: NeighborTable | None,
    ) -> Plan:
        """A training minibatch's index work: parallel id arrays (one per triplet) over ``table``.

        It reads no parameter, so it may run while another step trains, and
        holds what its gathers' backward reduces over.
        """
        heads = np.asarray(heads, dtype=np.intp)
        tails = np.asarray(tails, dtype=np.intp)
        relations = np.asarray(relations, dtype=np.intp)
        ids, inverse = np.unique(np.concatenate([heads, tails]), return_inverse=True)
        base, steps = self._steps(ids, table, True)
        width, n = len(heads) * self.cfg.dim, len(heads)
        gathers = (ad.gather_plan(inverse[:n], len(ids), width),
                   ad.gather_plan(inverse[n:], len(ids), width),
                   ad.gather_plan(relations, self.n_relations, width))
        return Plan(ids, inverse, relations, base, steps, gathers)

    def _steps(self, ids: np.ndarray, table: NeighborTable | None, training: bool):
        """The final frontier whose base rows step 1 pools, and each step's ``_step_plan``.

        ``ids`` are sorted and unique. An entity with neither neighbors nor
        a base embedding row raises ``InferenceError``.
        """
        if self.cfg.depth and table is None:
            raise ValueError("propagation depth >= 1 requires a neighbor table")
        steps = []
        for step in range(self.cfg.depth, 0, -1):  # top-down: which vectors each step needs
            nbr, rel, dirs, seg = self.neighbor_records(ids, table)
            below, nbr_pos = np.unique(nbr, return_inverse=True)
            steps.append(self._step_plan(nbr_pos, rel, dirs, seg, len(ids), len(below),
                                         self.cfg.layer_of(step), training))
            ids = below
        bad = ids[ids >= self.n_entities]
        if bad.size:
            raise InferenceError(f"entity {self.name_of(int(bad[0]))!r} has no trained embedding")
        return ids, steps[::-1]

    def _step_plan(self, nbr_pos, rel, dirs, seg, n_targets, n_prev, layer, training) -> dict:
        """A step's ``group_transition`` index arguments: ``offsets``, ``gather`` and ``pool``.

        The records, whose neighbors are rows ``nbr_pos`` of ``n_prev``
        vectors, are stably sorted by transition group, self records first;
        ``offsets`` is None without transition matrices, and the gather's
        ``autodiff.gather_plan`` None unless ``training``.
        """
        real = dirs != DIR_SELF
        key = np.full(len(dirs), -1, dtype=np.intp)
        key[real] = self.group_index(layer, dirs[real], rel[real])
        order = ad.stable_order(key + 1, self.n_groups + 1)
        gather, seg, width = nbr_pos[order], seg[order], len(order) * self.cfg.dim
        offsets = None
        if self.A is not None:
            offsets = np.searchsorted(key[order], np.arange(self.n_groups + 1))
        return {"offsets": offsets,
                "gather": (gather, ad.gather_plan(gather, n_prev, width) if training else None),
                "pool": (self.cfg.pooling, seg, n_targets, ad.segment_plan(seg, n_targets, width))}

    def propagate_batch(self, entity_ids: np.ndarray, table: NeighborTable | None) -> Tensor:
        """Inference vectors after ``depth`` steps, one row per id of ``np.unique(entity_ids)``.

        Entities with no (post-exclusion) neighbors fall back to their base
        embedding at every step; an entity with neither neighbors nor a base
        embedding row cannot be resolved and raises ``InferenceError``.
        With ``depth == 0`` the table is ignored and base embeddings are
        returned directly.
        """
        ids = np.unique(np.asarray(entity_ids, dtype=np.intp))
        return self._propagate(*self._steps(ids, table, False), False)

    def _propagate(self, base: np.ndarray, steps: list[dict], training: bool) -> Tensor:
        vecs = ad.gather_rows(self.entities, base)
        for step in steps:
            vecs = self._propagate_step(vecs, step, training)
        return vecs

    def _propagate_step(self, prev_vecs: Tensor, step: dict, training: bool) -> Tensor:
        """One pooled propagation step, one op: ``step``'s records gathered in group order.

        Every group's rows go through its matrix, batch norm and the
        activation, the self records pass through unchanged, and each
        target pools its records.
        """
        activation = TRANSITIONS[self.cfg.transition][2]
        if self.bn is not None:
            return self.bn.transition(prev_vecs, training=training, weight=self.A,
                                      activation=activation, **step)
        return ad.group_transition(prev_vecs, weight=self.A, activation=activation,
                                   training=training, **step)[0]

    # -- scoring ----------------------------------------------------------

    def score_ids(self, plan: Plan) -> Tensor:
        """Implausibility scores of the triplets ``plan`` was made for, one per triplet."""
        vecs = self._propagate(plan.base, plan.steps, True)
        n = len(plan.relations)
        vh = ad.gather_rows(vecs, plan.inverse[:n], plan.gathers[0])
        vt = ad.gather_rows(vecs, plan.inverse[n:], plan.gathers[1])
        vr = ad.gather_rows(self.relations, plan.relations, plan.gathers[2])
        return ad.rows_norm(vh + vr - vt, self.cfg.norm_p)


# ---------------------------------------------------------------------------
# objectives

def _paired(pos_scores: Tensor, neg_scores: Tensor) -> None:
    if pos_scores.data.shape != neg_scores.data.shape:
        raise ValueError(
            f"positives and negatives must pair up 1:1, got {pos_scores.data.shape} vs {neg_scores.data.shape}"
        )


def loss_absolute(pos_scores: Tensor, neg_scores: Tensor, margin: float) -> Tensor:
    """Drive positive scores to zero and negative scores above the margin."""
    _paired(pos_scores, neg_scores)
    return ad.sum_all(pos_scores) + ad.sum_all(ad.relu(margin - neg_scores))


def loss_pairwise(pos_scores: Tensor, neg_scores: Tensor, margin: float) -> Tensor:
    """Hinge on the per-pair score gap."""
    _paired(pos_scores, neg_scores)
    return ad.sum_all(ad.relu(margin + pos_scores - neg_scores))


LOSSES = {"absolute": loss_absolute, "pairwise": loss_pairwise}


# ---------------------------------------------------------------------------
# model bundle: numerics checkpoint + config + vocabularies, self-describing

def save_model(
    model: GraphModel,
    directory,
    entity_vocab,
    relation_vocab,
    extra: dict | None = None,
) -> None:
    """Write the bundle into a sibling ``.partial`` directory, then move it into place.

    An existing bundle is renamed aside to ``.old`` first and removed after
    the move. An interrupted save leaves the old bundle whole, or no bundle
    (loading it is then a data error), never a mix of two states.
    """
    directory = os.path.normpath(directory)
    partial, aside = directory + ".partial", directory + ".old"
    shutil.rmtree(partial, ignore_errors=True)
    payload = {"propagation": model.cfg.to_dict()}
    if extra:
        payload.update(extra)
    try:
        save_checkpoint(model.store, partial, extra=payload)
        entity_vocab.save(os.path.join(partial, "entities.txt"))
        relation_vocab.save(os.path.join(partial, "relations.txt"))
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    if os.path.exists(directory):
        shutil.rmtree(aside, ignore_errors=True)
        os.replace(directory, aside)
    os.replace(partial, directory)
    shutil.rmtree(aside, ignore_errors=True)


def load_model(directory, moments: bool = True):
    """Returns (model, entity_vocab, relation_vocab, extra).

    Without ``moments`` the model can score but not train or be saved (see
    ``nn.load_checkpoint``).
    """
    store, extra = load_checkpoint(directory, moments)
    entity_vocab = Vocabulary.load(os.path.join(directory, "entities.txt"))
    relation_vocab = Vocabulary.load(os.path.join(directory, "relations.txt"))
    try:
        cfg = PropagationConfig(**extra.pop("propagation"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # extra may be no dict
        raise CheckpointError(f"{os.path.join(directory, 'manifest.json')} holds no valid "
                              f"propagation config ({type(exc).__name__}: {exc})") from exc
    model = GraphModel(len(entity_vocab), len(relation_vocab), cfg, store=store)
    model.name_of = entity_vocab.name_of
    return model, entity_vocab, relation_vocab, extra
