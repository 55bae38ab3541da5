"""The propagation model and the translation-based output model.

An entity's vector at step n is a pooled reduction over its transformed
neighbor vectors at step n-1: neighbors arriving through an edge in which
they are the head pass through the head-side transition, neighbors that are
tails pass through the tail-side transition, and the pooled union becomes
the new vector. Step 0 is the learned base embedding. The stacked variant
keeps independent transition parameters per step, the unrolled variant
shares one set; ``mode="none"`` skips propagation entirely and scores raw
embeddings (a plain translation model).

Scoring follows the translation geometry: a triplet (h, r, t) gets the
implausibility ``|| v_h + v_r - v_t ||``; smaller means more plausible.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kg import KnowledgeGraph, Triplet
from .nn import BatchNorm, ParamStore

TRANSITIONS = ("identity", "tanh-layer", "relu-layer", "relation-relu-bn")
POOLINGS = ("sum", "avg", "max")
MODES = ("stacked", "unrolled", "none")

DIR_HEAD = 0  # neighbor is the head of (h, r, e)
DIR_TAIL = 1  # neighbor is the tail of (e, r, t)
DIR_SELF = 2  # fallback: entity keeps its own base vector


class InferenceError(RuntimeError):
    """An entity's vector cannot be resolved (no embedding, no neighbors)."""


@dataclass
class PropagationConfig:
    dim: int
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
            raise ValueError(f"unknown transition {self.transition!r} (expected one of {TRANSITIONS})")
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
        if self.margin < 0:
            raise ValueError("margin must be nonnegative")


# ---------------------------------------------------------------------------
# pooling: segment reductions over grouped rows, by pooling name

_SEGMENT_POOL = {
    "sum": ad.segment_sum,
    "avg": ad.segment_mean,
    "max": ad.segment_max,
}


# ---------------------------------------------------------------------------
# packed adjacency

class NeighborTable:
    """Per-entity packed arrays of (neighbor, relation, direction) records.

    Built once from a graph's triplets (optionally plus auxiliary triplets);
    ``exclude`` drops records whose *neighbor* falls in the given entity set,
    which keeps embedding-less entities out of everyone else's neighborhoods.
    """

    def __init__(
        self,
        n_entities: int,
        triplets: Iterable[Triplet],
        extra: Iterable[Triplet] = (),
        exclude: set[int] | frozenset[int] = frozenset(),
    ):
        per_entity: dict[int, list[tuple[int, int, int]]] = {}
        for source in (triplets, extra):
            for h, r, t in source:
                if h not in exclude:
                    per_entity.setdefault(t, []).append((h, r, DIR_HEAD))
                if t not in exclude:
                    per_entity.setdefault(h, []).append((t, r, DIR_TAIL))
        self.records = {
            e: (
                np.array([rec[0] for rec in recs], dtype=np.intp),
                np.array([rec[1] for rec in recs], dtype=np.intp),
                np.array([rec[2] for rec in recs], dtype=np.intp),
            )
            for e, recs in per_entity.items()
        }
        self.n_entities = n_entities

    def degree(self, e: int) -> int:
        recs = self.records.get(e)
        return 0 if recs is None else len(recs[0])

    def over_cap_entities(self, cap: int) -> list[int]:
        return sorted(e for e, recs in self.records.items() if len(recs[0]) > cap)


class NeighborSampler:
    """Capped uniform neighbor subsampling, fixed for one epoch.

    For every entity whose degree exceeds the cap, draws a without-replacement
    subset of record indices once; entities at or under the cap keep their
    full neighborhoods, so the choice of seed is irrelevant for them.
    """

    def __init__(self, table: NeighborTable, cap: int, seed):
        rng = np.random.default_rng(seed)
        self.selection: dict[int, np.ndarray] = {}
        for e in table.over_cap_entities(cap):
            degree = table.degree(e)
            picked = rng.choice(degree, size=cap, replace=False)
            picked.sort()
            self.selection[e] = picked

    def indices(self, e: int) -> np.ndarray | None:
        return self.selection.get(e)


# ---------------------------------------------------------------------------
# the model

class GraphModel:
    """Embedding tables plus propagation parameters over a fixed vocabulary."""

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
        self.store = store if store is not None else ParamStore()
        attach = store is None
        if attach:
            self.entities = self.store.add_param("entities", np.zeros((n_entities, cfg.dim)))
            self.relations = self.store.add_param("relations", np.zeros((n_relations, cfg.dim)))
        else:
            self.entities = self.store.param("entities")
            self.relations = self.store.param("relations")

        self._matrices: dict[tuple[str, int, int], Tensor] = {}
        # batch normalization is stateful per (direction, relation, layer):
        # a step normalizes each (relation, direction) neighbor group by its
        # own batch statistics, so running statistics must be kept per group
        # for inference to see the distribution that was actually trained
        self._bn: dict[tuple[str, int, int], BatchNorm] = {}
        for layer in range(cfg.n_layers):
            for direction in ("head", "tail"):
                if cfg.transition in ("tanh-layer", "relu-layer"):
                    name = f"A.{direction}.l{layer}"
                    self._matrices[(direction, -1, layer)] = (
                        self.store.add_param(name, np.eye(cfg.dim)) if attach else self.store.param(name)
                    )
                elif cfg.transition == "relation-relu-bn":
                    for r in range(n_relations):
                        name = f"A.{direction}.r{r}.l{layer}"
                        self._matrices[(direction, r, layer)] = (
                            self.store.add_param(name, np.eye(cfg.dim)) if attach else self.store.param(name)
                        )
                        bn_name = f"bn.{direction}.r{r}.l{layer}"
                        if attach:
                            bn = BatchNorm(self.store, bn_name, cfg.dim)
                        else:
                            bn = BatchNorm.__new__(BatchNorm)
                            bn.name = bn_name
                            bn.momentum = 0.9
                            bn.eps = 1e-5
                            bn._store = self.store
                            bn.gamma = self.store.param(f"{bn_name}.gamma")
                            bn.beta = self.store.param(f"{bn_name}.beta")
                        self._bn[(direction, r, layer)] = bn

    def init_params(self, rng: np.random.Generator) -> None:
        """Uniform embeddings in +-6/sqrt(d); near-identity transition matrices."""
        bound = 6.0 / np.sqrt(self.cfg.dim)
        self.entities.data[:] = rng.uniform(-bound, bound, size=self.entities.data.shape)
        self.relations.data[:] = rng.uniform(-bound, bound, size=self.relations.data.shape)
        for mat in self._matrices.values():
            mat.data[:] = np.eye(self.cfg.dim) + rng.normal(0.0, 0.01, size=mat.data.shape)

    # -- transitions ------------------------------------------------------

    def _transition_group(
        self,
        vecs: Tensor,
        direction: int,
        relation: int,
        layer: int,
        training: bool,
        update_running: bool,
    ) -> Tensor:
        kind = self.cfg.transition
        dir_name = "head" if direction == DIR_HEAD else "tail"
        if kind == "identity":
            return vecs
        if kind == "tanh-layer":
            return ad.tanh(ad.affine_rows(vecs, self._matrices[(dir_name, -1, layer)]))
        if kind == "relu-layer":
            return ad.relu(ad.affine_rows(vecs, self._matrices[(dir_name, -1, layer)]))
        # relation-relu-bn
        out = ad.affine_rows(vecs, self._matrices[(dir_name, relation, layer)])
        out = self._bn[(dir_name, relation, layer)](out, training=training, update_running=update_running)
        return ad.relu(out)

    def transition(self, v: np.ndarray, relation: int, direction: str, layer: int = 0) -> np.ndarray:
        """Single-vector transition (inference mode), for probing and tests."""
        if not 0 <= relation < self.n_relations:
            raise InferenceError(f"unknown relation id {relation}")
        if self.cfg.n_layers == 0 and self.cfg.transition != "identity":
            raise ValueError("a depth-0 model holds no transition parameters")
        if self.cfg.n_layers and layer >= self.cfg.n_layers:
            raise ValueError(f"layer {layer} out of range for depth {self.cfg.depth} ({self.cfg.mode})")
        dir_code = DIR_HEAD if direction == "head" else DIR_TAIL
        batch = Tensor(np.asarray(v, dtype=float)[None, :])
        out = self._transition_group(batch, dir_code, relation, layer, training=False, update_running=False)
        return out.data[0]

    # -- propagation ------------------------------------------------------

    def neighbor_records(
        self,
        ids: np.ndarray,
        table: NeighborTable,
        sampler: NeighborSampler | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Capped (neighbor, relation, direction, segment) records of ``ids``.

        Records come in the order of ``ids``; ``segment`` is the position in
        ``ids``. An entity over the neighbor cap keeps the sampler's subset.
        An entity without records gets one self record: singleton pooling of
        its own vector is the identity for all poolings, realizing the
        base-embedding fallback.
        """
        cap = self.cfg.neighbor_cap
        all_nbr, all_rel, all_dirs, all_seg = [], [], [], []
        for seg, e in enumerate(ids.tolist()):
            recs = table.records.get(e)
            if recs is None:
                nbr = np.array([e], dtype=np.intp)
                rel = np.array([-1], dtype=np.intp)
                dirs = np.array([DIR_SELF], dtype=np.intp)
            else:
                nbr, rel, dirs = recs
                if len(nbr) > cap:
                    if sampler is None:
                        raise ValueError(
                            f"entity {e} has {len(nbr)} neighbors, above the cap "
                            f"{cap}; pass a NeighborSampler"
                        )
                    picked = sampler.indices(e)
                    nbr, rel, dirs = nbr[picked], rel[picked], dirs[picked]
            all_nbr.append(nbr)
            all_rel.append(rel)
            all_dirs.append(dirs)
            all_seg.append(np.full(len(nbr), seg, dtype=np.intp))
        return (np.concatenate(all_nbr), np.concatenate(all_rel),
                np.concatenate(all_dirs), np.concatenate(all_seg))

    def propagate_batch(
        self,
        entity_ids: np.ndarray,
        table: NeighborTable | None,
        *,
        training: bool = False,
        sampler: NeighborSampler | None = None,
        update_running: bool | None = None,
    ) -> Tensor:
        """Vectors after ``depth`` propagation steps for a batch of entities.

        Entities with no (post-exclusion) neighbors fall back to their base
        embedding at every step; an entity with neither neighbors nor a base
        embedding row cannot be resolved and raises ``InferenceError``.
        With ``depth == 0`` the table is ignored and base embeddings are
        returned directly.
        """
        if update_running is None:
            update_running = training
        ids = np.asarray(entity_ids, dtype=np.intp)
        if self.cfg.depth == 0:
            bad = ids[ids >= self.n_entities]
            if bad.size:
                raise InferenceError(f"entity id {int(bad[0])} has no trained embedding")
            return ad.gather_rows(self.entities, ids)
        if table is None:
            raise ValueError("propagation depth >= 1 requires a neighbor table")

        # top-down: discover which vectors each step needs
        plan = []
        need = ids
        for _ in range(self.cfg.depth, 0, -1):
            uniq = np.unique(need)
            nbr, rel, dirs, seg = self.neighbor_records(uniq, table, sampler)
            plan.append((uniq, nbr, rel, dirs, seg))
            need = nbr

        # bottom of the recursion: base embeddings of the final frontier
        base_ids = np.unique(need)
        bad = base_ids[base_ids >= self.n_entities]
        if bad.size:
            raise InferenceError(f"entity id {int(bad[0])} has no trained embedding")
        prev_ids = base_ids
        prev_vecs = ad.gather_rows(self.entities, base_ids)

        for step, (uniq, nbr, rel, dirs, seg) in zip(
            range(1, self.cfg.depth + 1), reversed(plan)
        ):
            # prev_ids is sorted and unique, so positions come from bisection
            nbr_pos = np.searchsorted(prev_ids, nbr)
            prev_vecs = self._propagate_step(
                prev_vecs, nbr_pos, rel, dirs, seg, len(uniq),
                self.cfg.layer_of(step), training, update_running,
            )
            prev_ids = uniq

        return ad.gather_rows(prev_vecs, np.searchsorted(prev_ids, ids))

    def _propagate_step(
        self,
        prev_vecs: Tensor,
        nbr_pos: np.ndarray,
        rel: np.ndarray,
        dirs: np.ndarray,
        seg: np.ndarray,
        n_targets: int,
        layer: int,
        training: bool,
        update_running: bool,
    ) -> Tensor:
        """One pooled propagation step over grouped neighbor records."""
        relation_dependent = self.cfg.transition == "relation-relu-bn"
        parts: list[Tensor] = []
        segments: list[np.ndarray] = []

        self_mask = dirs == DIR_SELF
        if self_mask.any():
            parts.append(ad.gather_rows(prev_vecs, nbr_pos[self_mask]))
            segments.append(seg[self_mask])

        real = ~self_mask
        if relation_dependent:
            keys = dirs[real] * self.n_relations + rel[real]
        else:
            keys = dirs[real]
        real_pos = nbr_pos[real]
        real_rel = rel[real]
        real_dirs = dirs[real]
        real_seg = seg[real]
        for key in np.unique(keys):
            mask = keys == key
            group_vecs = ad.gather_rows(prev_vecs, real_pos[mask])
            direction = int(real_dirs[mask][0])
            relation = int(real_rel[mask][0]) if relation_dependent else -1
            parts.append(
                self._transition_group(group_vecs, direction, relation, layer, training, update_running)
            )
            segments.append(real_seg[mask])

        combined = parts[0] if len(parts) == 1 else ad.concat_rows(parts)
        seg_all = segments[0] if len(segments) == 1 else np.concatenate(segments)
        return _SEGMENT_POOL[self.cfg.pooling](combined, seg_all, n_targets)

    # -- scoring ----------------------------------------------------------

    def score_ids(
        self,
        heads: np.ndarray,
        relations: np.ndarray,
        tails: np.ndarray,
        table: NeighborTable | None,
        *,
        training: bool = False,
        sampler: NeighborSampler | None = None,
        update_running: bool | None = None,
    ) -> Tensor:
        """Implausibility scores for parallel id arrays (one per triplet)."""
        heads = np.asarray(heads, dtype=np.intp)
        tails = np.asarray(tails, dtype=np.intp)
        relations = np.asarray(relations, dtype=np.intp)
        endpoints = np.concatenate([heads, tails])
        uniq, inverse = np.unique(endpoints, return_inverse=True)
        vecs = self.propagate_batch(
            uniq, table, training=training, sampler=sampler, update_running=update_running
        )
        n = len(heads)
        vh = ad.gather_rows(vecs, inverse[:n])
        vt = ad.gather_rows(vecs, inverse[n:])
        vr = ad.gather_rows(self.relations, relations)
        return ad.rows_norm(vh + vr - vt, self.cfg.norm_p)

    def score(self, triplet: Triplet, table: NeighborTable | None = None, **kw) -> float:
        """Implausibility of a single triplet."""
        s = self.score_ids(
            np.array([triplet.head]),
            np.array([triplet.relation]),
            np.array([triplet.tail]),
            table,
            **kw,
        )
        return float(s.data[0])


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


def build_table(graph: KnowledgeGraph, n_entities: int, **kw) -> NeighborTable:
    return NeighborTable(n_entities, graph.triplets, **kw)


# ---------------------------------------------------------------------------
# model bundle: numerics checkpoint + config + vocabularies, self-describing

def save_model(
    model: GraphModel,
    directory,
    entity_vocab,
    relation_vocab,
    extra: dict | None = None,
) -> None:
    from .nn import save_checkpoint

    os.makedirs(directory, exist_ok=True)
    payload = {"propagation": model.cfg.to_dict()}
    if extra:
        payload.update(extra)
    save_checkpoint(model.store, directory, extra=payload)
    entity_vocab.save(os.path.join(directory, "entities.txt"))
    relation_vocab.save(os.path.join(directory, "relations.txt"))


def load_model(directory):
    """Returns (model, entity_vocab, relation_vocab, extra)."""
    from .kg import Vocabulary
    from .nn import load_checkpoint

    store, extra = load_checkpoint(directory)
    entity_vocab = Vocabulary.load(os.path.join(directory, "entities.txt"))
    relation_vocab = Vocabulary.load(os.path.join(directory, "relations.txt"))
    cfg = PropagationConfig(**extra.pop("propagation"))
    model = GraphModel(len(entity_vocab), len(relation_vocab), cfg, store=store)
    return model, entity_vocab, relation_vocab, extra
