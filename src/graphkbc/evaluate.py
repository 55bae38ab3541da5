"""Triplet classification and out-of-KB evaluation over a frozen model.

Classification binarizes implausibility scores against per-relation
thresholds tuned on validation data (predict positive iff score is strictly
below the threshold). Entities absent from the trained embedding table are
resolved at query time by running the trained propagation step over their
auxiliary neighborhood; a simpler baseline instead pools the translation-
implied positions of the neighbors (head + relation, or tail - relation).
Both protocols and the ``predict`` command resolve vectors the same way: an
``OokbContext`` holds the neighbor table, ``resolve_vectors`` returns an
(n, d) array for sorted ids, and ``make_scorer`` scores id triplets from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .kg import KnowledgeGraph, LabeledTriplet, Triplet
from .model import (
    _SEGMENT_POOL,
    DIR_HEAD,
    GraphModel,
    InferenceError,
    NeighborSampler,
    NeighborTable,
)


@dataclass
class ThresholdTable:
    """Per-relation score cutoffs plus a fallback for unseen relations."""

    per_relation: dict[int, float]
    global_threshold: float

    def threshold_of(self, relations) -> np.ndarray:
        """Threshold of each relation id in ``relations`` (a scalar or an array)."""
        relations = np.asarray(relations)
        out = np.full(relations.shape, self.global_threshold)
        for r, thr in self.per_relation.items():
            out[relations == r] = thr
        return out

    def digest(self) -> str:
        payload = repr(sorted(self.per_relation.items())) + repr(self.global_threshold)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def labeled_arrays(labeled: Sequence[LabeledTriplet]) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) id array and the (n,) boolean labels of labeled triplets."""
    triplets, labels = zip(*labeled) if labeled else ((), ())
    return np.array(triplets, dtype=np.intp).reshape(-1, 3), np.array(labels, dtype=bool)


def _best_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Smallest threshold maximizing accuracy of ``score < threshold``.

    Candidates are the minimum score (predict nothing positive), midpoints
    between consecutive distinct scores, and +inf (predict everything
    positive); scanned in ascending order so the first maximum wins.
    """
    distinct = np.unique(scores)
    candidates = np.concatenate(
        [[distinct[0]], (distinct[:-1] + distinct[1:]) / 2.0, [np.inf]]
    )
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    y = labels[order].astype(np.int64)
    pos_below = np.concatenate([[0], np.cumsum(y)])
    total_neg = int((1 - y).sum())
    idx = np.searchsorted(sorted_scores, candidates, side="left")
    neg_below = idx - pos_below[idx]
    correct = pos_below[idx] + (total_neg - neg_below)
    best = int(np.argmax(correct))
    return float(candidates[best]), float(correct[best] / len(scores))


def tune_thresholds(
    validation: Sequence[LabeledTriplet],
    scorer: Callable[[np.ndarray], np.ndarray],
) -> ThresholdTable:
    """Per-relation thresholds maximizing validation accuracy.

    Relations absent from the validation set fall back to the single
    threshold that is optimal over the pooled validation scores.
    """
    if not validation:
        raise ValueError("cannot tune thresholds on an empty validation set")
    triplets, labels = labeled_arrays(validation)
    scores = np.asarray(scorer(triplets), dtype=float)
    global_thr, _ = _best_threshold(scores, labels)
    relations = triplets[:, 1]
    per: dict[int, float] = {}
    for r in np.unique(relations).tolist():
        mask = relations == r
        per[r], _ = _best_threshold(scores[mask], labels[mask])
    return ThresholdTable(per, global_thr)


def classify(triplets, thresholds: ThresholdTable, scores) -> np.ndarray:
    """Positive iff a score is strictly below its relation's threshold.

    Elementwise over a triplet and its score, or over an (n, 3) id array
    and n scores.
    """
    return np.asarray(scores) < thresholds.threshold_of(np.asarray(triplets)[..., 1])


# ---------------------------------------------------------------------------
# vector resolution

@dataclass
class OokbContext:
    """The neighbor table and sampler that every vector resolution runs on.

    The table spans training plus auxiliary triplets, with embedding-less
    entities (the OOKB set and anything beyond the trained vocabulary)
    excluded from neighbor lists so that intermediate propagation steps only
    ever touch entities that have base vectors. Standard evaluation passes
    no auxiliary triplets and an empty OOKB set; a model without propagation
    then reads base rows only, and no table is built. ``name_of`` turns an
    entity id into the name that error messages show.
    """

    train: KnowledgeGraph
    aux: list[Triplet]
    ookb_entities: frozenset[int]
    model: GraphModel
    sampler_seed: int = 0
    name_of: Callable[[int], object] = int
    table: NeighborTable | None = field(init=False)
    sampler: NeighborSampler | None = field(init=False)

    def __post_init__(self):
        self.ookb_entities = frozenset(self.ookb_entities)
        for t in self.aux:
            n = (t.head in self.ookb_entities) + (t.tail in self.ookb_entities)
            if n != 1:
                raise InferenceError(
                    f"auxiliary triplet ({self.name_of(t.head)!r}, {self.name_of(t.tail)!r}) "
                    f"links {n} out-of-KB entities; it must link exactly one to a known entity"
                )
        self.table = self.sampler = None
        if self.model.cfg.depth == 0 and not self.ookb_entities:
            return
        rowless = {
            e
            for t in self.aux
            for e in (t.head, t.tail)
            if e >= self.model.n_entities
        }
        exclude = set(self.ookb_entities) | rowless
        self.table = NeighborTable(
            self.model.n_entities, self.train.triplets, extra=self.aux, exclude=exclude
        )
        self.sampler = NeighborSampler(
            self.table, self.model.cfg.neighbor_cap, seed=[self.sampler_seed]
        )


def _require_aux(ids: np.ndarray, ctx: OokbContext) -> None:
    unlinked = sorted(set(ids.tolist()).difference(ctx.table.records))
    if unlinked:
        raise InferenceError(
            f"entity {ctx.name_of(unlinked[0])!r} is outside the knowledge base "
            "and has no auxiliary triplet"
        )


def ookb_vector(ids: np.ndarray, ctx: OokbContext) -> np.ndarray:
    """Vectors of OOKB entities from their auxiliary neighborhoods, no retraining.

    One batched run of the trained propagation step over the combined graph,
    one row per id; the entities' own base rows are never touched.
    """
    if ctx.model.cfg.depth == 0:
        raise InferenceError(
            "the trained model has no propagation step; use the pooled baseline"
        )
    _require_aux(ids, ctx)
    return ctx.model.propagate_batch(ids, ctx.table, training=False, sampler=ctx.sampler).data


def baseline_ookb_vector(
    ids: np.ndarray,
    ctx: OokbContext,
    pooling: str,
    raw_neighbors: bool = False,
) -> np.ndarray:
    """Pooled translation-implied positions of OOKB entities, one row per id.

    A neighbor arriving as the head of (h, r, u) contributes v_h + v_r (the
    position the translation geometry implies for u); a neighbor arriving as
    the tail of (u, r, t) contributes v_t - v_r. ``raw_neighbors`` pools the
    neighbors' own vectors instead. Neighborhoods over the cap are pooled
    over the sampler's subset, as in propagation.
    """
    _require_aux(ids, ctx)
    nbr, rel, dirs, seg = ctx.model.neighbor_records(ids, ctx.table, ctx.sampler)
    contributions = ctx.model.entities.data[nbr]
    if not raw_neighbors:
        signs = np.where(dirs == DIR_HEAD, 1.0, -1.0)[:, None]
        contributions = contributions + signs * ctx.model.relations.data[rel]
    return _SEGMENT_POOL[pooling](contributions, seg, len(ids)).data


def propagated_vectors(ids: np.ndarray, ctx: OokbContext, batch_size: int = 1024) -> np.ndarray:
    """Inference-mode vectors of sorted unique ``ids`` in batches, one row per id."""
    chunks = [
        ctx.model.propagate_batch(
            ids[start:start + batch_size], ctx.table, training=False, sampler=ctx.sampler
        ).data
        for start in range(0, len(ids), batch_size)
    ]
    return np.concatenate(chunks) if chunks else np.empty((0, ctx.model.cfg.dim))


def resolve_vectors(
    ids,
    ctx: OokbContext,
    method: str = "proposed",
    pooling: str | None = None,
    raw_neighbors: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique ``ids`` and their (n, d) vectors.

    Known entities are propagated over the context's table. The OOKB ones
    are composed from their auxiliary triplets in one batch: by the trained
    propagation step (``method="proposed"``) or by the pooled baseline.
    """
    ids = np.unique(np.asarray(ids, dtype=np.intp))
    ookb = np.isin(ids, np.fromiter(ctx.ookb_entities, dtype=np.intp))
    vectors = np.empty((len(ids), ctx.model.cfg.dim))
    vectors[~ookb] = propagated_vectors(ids[~ookb], ctx)
    if ookb.any():
        if method == "proposed":
            vectors[ookb] = ookb_vector(ids[ookb], ctx)
        else:
            vectors[ookb] = baseline_ookb_vector(ids[ookb], ctx, pooling, raw_neighbors)
    return ids, vectors


def make_scorer(
    model: GraphModel,
    ids: np.ndarray,
    vectors: np.ndarray,
) -> Callable[[np.ndarray], np.ndarray]:
    """Score triplets ((n, 3) ids) from resolved vectors of sorted ``ids``."""

    def scorer(triplets) -> np.ndarray:
        triplets = np.asarray(triplets, dtype=np.intp).reshape(-1, 3)
        heads = vectors[np.searchsorted(ids, triplets[:, 0])]
        tails = vectors[np.searchsorted(ids, triplets[:, 2])]
        diff = heads + model.relations.data[triplets[:, 1]] - tails
        return ad.rows_norm(diff, model.cfg.norm_p).data

    return scorer


# ---------------------------------------------------------------------------
# evaluation protocols

def _classification_report(
    ctx: OokbContext,
    validation: Sequence[LabeledTriplet],
    test: Sequence[LabeledTriplet],
    report: dict,
    thresholds: ThresholdTable | None,
    per_relation: bool,
    **resolve,
) -> tuple[dict, ThresholdTable]:
    """Resolve every entity once, tune thresholds unless given, score the test set."""
    valid_triplets, _ = labeled_arrays(validation)
    test_triplets, labels = labeled_arrays(test)
    needed = np.concatenate([valid_triplets[:, ::2], test_triplets[:, ::2]])
    scorer = make_scorer(ctx.model, *resolve_vectors(needed, ctx, **resolve))
    if thresholds is None:
        thresholds = tune_thresholds(validation, scorer)
        if not per_relation:
            thresholds = ThresholdTable({}, thresholds.global_threshold)
    correct = classify(test_triplets, thresholds, scorer(test_triplets)) == labels
    report.update(
        accuracy=int(correct.sum()) / len(test),
        n_test=len(test),
        threshold_digest=thresholds.digest(),
    )
    return report, thresholds


def evaluate_standard(
    train_graph: KnowledgeGraph,
    validation: Sequence[LabeledTriplet],
    test: Sequence[LabeledTriplet],
    model: GraphModel,
    *,
    per_relation: bool = True,
    sampler_seed: int = 0,
    dataset_name: str = "standard",
    thresholds: ThresholdTable | None = None,
) -> tuple[dict, ThresholdTable]:
    """Threshold tuning on validation followed by test accuracy."""
    if not test:
        raise ValueError("empty test set")
    ctx = OokbContext(train_graph, [], frozenset(), model, sampler_seed=sampler_seed)
    report = {
        "dataset": dataset_name,
        "method": "standard",
        "pooling": model.cfg.pooling if model.cfg.depth > 0 else "-",
    }
    return _classification_report(ctx, validation, test, report, thresholds, per_relation)


def evaluate_ookb(
    split,
    model: GraphModel,
    *,
    method: str = "proposed",
    pooling: str | None = None,
    raw_neighbors: bool = False,
    per_relation: bool = True,
    sampler_seed: int = 0,
    dataset_name: str = "ookb",
    thresholds: ThresholdTable | None = None,
) -> tuple[dict, ThresholdTable]:
    """Classify the OOKB test triplets of a split.

    ``method="proposed"`` resolves OOKB entities with the trained propagation
    step (the model's own pooling); ``method="baseline"`` pools translation-
    implied neighbor positions with the given ``pooling``. Thresholds are
    tuned on the split's validation set (which contains no OOKB entities)
    unless supplied.
    """
    if method not in ("proposed", "baseline"):
        raise ValueError(f"unknown method {method!r}")
    if not split.test:
        raise ValueError("OOKB split has an empty test set")
    if method == "baseline" and pooling not in _SEGMENT_POOL:
        raise ValueError(f"baseline evaluation needs a pooling out of {sorted(_SEGMENT_POOL)}")
    ctx = OokbContext(split.train, list(split.aux), frozenset(split.ookb_entities),
                      model, sampler_seed=sampler_seed)
    report = {
        "dataset": dataset_name,
        "method": method,
        "pooling": model.cfg.pooling if method == "proposed" else pooling,
    }
    return _classification_report(
        ctx, split.validation, split.test, report, thresholds, per_relation,
        method=method, pooling=pooling, raw_neighbors=raw_neighbors,
    )
