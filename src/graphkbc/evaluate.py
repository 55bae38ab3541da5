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
from typing import Callable

import numpy as np

from . import autodiff as ad
from .kg import DataError, KnowledgeGraph, labeled_arrays, triplet_array
from .model import (
    _SEGMENT_POOL,
    DIR_HEAD,
    POOLINGS,
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
    triplets: np.ndarray,
    labels: np.ndarray,
    scorer: Callable[[np.ndarray], np.ndarray],
) -> ThresholdTable:
    """Per-relation thresholds maximizing accuracy on labeled (n, 3) id rows.

    Relations absent from the rows fall back to the single threshold that
    is optimal over all their scores pooled.
    """
    if not len(triplets):
        raise DataError("cannot tune thresholds on an empty validation set")
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
    """The capped neighbor table that every vector resolution runs on.

    The table spans training plus auxiliary triplets, capped at the model's
    neighbor cap (a ``NeighborSampler`` seeded with ``sampler_seed``), with
    embedding-less entities (the OOKB set and anything beyond the trained
    vocabulary) excluded from neighbor lists so that intermediate propagation
    steps only ever touch entities that have base vectors. Standard
    evaluation passes no auxiliary triplets and an empty OOKB set; a model
    without propagation then reads base rows only, and no table is built.
    ``aux`` (anything ``triplet_array`` takes) and ``ookb_entities`` (ids)
    become an (n, 3) intp array and a sorted intp array.
    """

    train: KnowledgeGraph
    aux: np.ndarray
    ookb_entities: np.ndarray
    model: GraphModel
    sampler_seed: int = 0
    table: NeighborSampler | None = field(init=False)

    def __post_init__(self):
        self.aux = triplet_array(self.aux)
        self.ookb_entities = np.unique(np.asarray(self.ookb_entities, dtype=np.intp))
        aux = self.aux[:, ::2]
        ookb = np.isin(aux, self.ookb_entities)
        bad = ookb.sum(axis=1) != 1
        if bad.any():
            i = int(np.argmax(bad))
            raise InferenceError(
                f"auxiliary triplet ({self.model.name_of(int(aux[i, 0]))!r}, "
                f"{self.model.name_of(int(aux[i, 1]))!r}) links {int(ookb[i].sum())} out-of-KB "
                "entities; it must link exactly one to a known entity"
            )
        self.table = None
        if self.model.cfg.depth == 0 and not len(self.ookb_entities):
            return
        exclude = np.concatenate([self.ookb_entities, aux[aux >= self.model.n_entities]])
        table = NeighborTable(self.model.n_entities, self.train.triplets, extra=self.aux,
                              exclude=exclude)
        self.table = NeighborSampler(table, self.model.cfg.neighbor_cap, seed=[self.sampler_seed])


def _require_aux(ids: np.ndarray, ctx: OokbContext) -> None:
    unlinked = np.sort(ids[ctx.table.degrees(ids) == 0])
    if unlinked.size:
        raise InferenceError(
            f"entity {ctx.model.name_of(int(unlinked[0]))!r} is outside the knowledge base "
            "and has no auxiliary triplet"
        )


def ookb_vector(ids: np.ndarray, ctx: OokbContext) -> np.ndarray:
    """Vectors of OOKB entities from their auxiliary neighborhoods, no retraining.

    The trained propagation step over the combined graph in the batches of
    ``propagated_vectors``, one row per id; the entities' own base rows are
    never touched.
    """
    if ctx.model.cfg.depth == 0:
        raise InferenceError(
            "the trained model has no propagation step; use the pooled baseline"
        )
    _require_aux(ids, ctx)
    return propagated_vectors(ids, ctx)


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
    over the capped table's subset, as in propagation.
    """
    _require_aux(ids, ctx)
    nbr, rel, dirs, seg = ctx.model.neighbor_records(ids, ctx.table)
    contributions = ctx.model.entities.data[nbr]
    if not raw_neighbors:
        signs = np.where(dirs == DIR_HEAD, 1.0, -1.0)[:, None]
        contributions = contributions + signs * ctx.model.relations.data[rel]
    return _SEGMENT_POOL[pooling](contributions, seg, len(ids)).data


def propagated_vectors(ids: np.ndarray, ctx: OokbContext) -> np.ndarray:
    """Inference-mode vectors of sorted unique ``ids`` in 1024-id batches, one row per id."""
    chunks = [ctx.model.propagate_batch(ids[start:start + 1024], ctx.table).data
              for start in range(0, len(ids), 1024)]
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
    are composed from their auxiliary triplets: by the trained propagation
    step (``method="proposed"``) or, in one batch, by the pooled baseline.
    """
    ids = np.unique(np.asarray(ids, dtype=np.intp))
    ookb = np.isin(ids, ctx.ookb_entities)
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
    validation,
    test,
    report: dict,
    per_relation: bool,
    **resolve,
) -> tuple[dict, ThresholdTable]:
    """Resolve every entity once, tune thresholds on validation, score the test set."""
    valid_triplets, valid_labels = labeled_arrays(validation)
    test_triplets, labels = labeled_arrays(test)
    if not len(test_triplets):
        raise DataError(f"{report['dataset']}: empty test set")
    needed = np.concatenate([valid_triplets[:, ::2], test_triplets[:, ::2]])
    scorer = make_scorer(ctx.model, *resolve_vectors(needed, ctx, **resolve))
    thresholds = tune_thresholds(valid_triplets, valid_labels, scorer)
    if not per_relation:
        thresholds = ThresholdTable({}, thresholds.global_threshold)
    correct = classify(test_triplets, thresholds, scorer(test_triplets)) == labels
    report.update(
        accuracy=int(correct.sum()) / len(test_triplets),
        n_test=len(test_triplets),
        threshold_digest=thresholds.digest(),
    )
    return report, thresholds


def evaluate_standard(
    train_graph: KnowledgeGraph,
    validation,
    test,
    model: GraphModel,
    *,
    per_relation: bool = True,
    sampler_seed: int = 0,
    dataset_name: str = "standard",
) -> tuple[dict, ThresholdTable]:
    """Threshold tuning on validation, then test accuracy (anything ``labeled_arrays`` takes)."""
    ctx = OokbContext(train_graph, [], [], model, sampler_seed=sampler_seed)
    report = {
        "dataset": dataset_name,
        "method": "standard",
        "pooling": model.cfg.pooling if model.cfg.depth > 0 else "-",
    }
    return _classification_report(ctx, validation, test, report, per_relation)


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
) -> tuple[dict, ThresholdTable]:
    """Classify the OOKB test triplets of a split.

    ``method="proposed"`` resolves OOKB entities with the trained propagation
    step (the model's own pooling); ``method="baseline"`` pools translation-
    implied neighbor positions with the given ``pooling``. Thresholds are
    tuned on the split's validation set (which contains no OOKB entities).
    """
    if method not in ("proposed", "baseline"):
        raise ValueError(f"unknown method {method!r}")
    if method == "baseline" and pooling not in POOLINGS:
        raise ValueError(f"baseline evaluation needs a pooling out of {sorted(POOLINGS)}")
    ctx = OokbContext(split.train, split.aux, split.ookb_entities, model,
                      sampler_seed=sampler_seed)
    report = {
        "dataset": dataset_name,
        "method": method,
        "pooling": model.cfg.pooling if method == "proposed" else pooling,
    }
    return _classification_report(
        ctx, split.validation, split.test, report, per_relation,
        method=method, pooling=pooling, raw_neighbors=raw_neighbors,
    )
