"""Training loop: minibatching, relation-aware negative corruption, checkpoints.

Every epoch shuffles the positives, pairs each with one corrupted negative
(head or tail replaced, chosen per relation from the tails-per-head /
heads-per-tail statistics), scores both sides through the propagation
model, and applies one optimizer update per minibatch at the epoch's step
size. All randomness derives from (seed, epoch, stream) tuples, so a resumed
run continues bit-identically to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientError, backward
from .kg import KnowledgeGraph, Triplet, entities_of
from .model import (
    LOSSES,
    GraphModel,
    NeighborSampler,
    ObjectiveConfig,
    PropagationConfig,
    build_table,
)
from .nn import adam_step, step_size

_STREAM_SHUFFLE = 0
_STREAM_CORRUPT = 1
_STREAM_SAMPLE = 2
_STREAM_INIT = 3


@dataclass
class TrainConfig:
    epochs: int = 300
    minibatch_size: int = 5000
    alpha1: float = 0.01
    alpha2: float = 0.0001
    seed: int = 0
    checkpoint_every: int = 10
    project_entities: bool = False  # optional unit-ball projection after updates
    filter_false_negatives: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.minibatch_size < 1:
            raise ValueError("epochs and minibatch_size must be positive")
        if self.alpha1 <= 0 or self.alpha2 < 0:
            raise ValueError("alpha1 must be positive and alpha2 nonnegative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")


def compute_bernoulli_stats(graph: KnowledgeGraph) -> dict[int, tuple[float, float]]:
    """Per relation: (mean tails per head, mean heads per tail)."""
    if len(graph) == 0:
        raise ValueError("cannot compute corruption statistics of an empty graph")
    counts: dict[int, int] = {}
    heads: dict[int, set[int]] = {}
    tails: dict[int, set[int]] = {}
    for h, r, t in graph.triplets:
        counts[r] = counts.get(r, 0) + 1
        heads.setdefault(r, set()).add(h)
        tails.setdefault(r, set()).add(t)
    return {
        r: (counts[r] / len(heads[r]), counts[r] / len(tails[r]))
        for r in counts
    }


def head_replacement_probability(tph: float, hpt: float) -> float:
    return tph / (tph + hpt)


def corrupt_batch(
    pos: np.ndarray,
    p_head: np.ndarray,
    entity_pool: np.ndarray,
    rng: np.random.Generator,
    forbidden: frozenset | None = None,
) -> np.ndarray:
    """Vectorized corruption of a (B, 3) positive id block.

    Each row's head (with probability ``p_head`` of its relation) or tail is
    redrawn from the pool until it differs from the original and, when
    ``forbidden`` is given, the row is not a known positive.
    """
    out = pos.copy()
    cols = np.where(rng.random(len(pos)) < p_head[pos[:, 1]], 0, 2)
    if entity_pool.min() == entity_pool.max() and np.any(
        pos[np.arange(len(pos)), cols] == entity_pool[0]
    ):
        raise ValueError("entity pool too small to produce a differing corruption")
    pending = np.arange(len(pos))
    while pending.size:
        cand = entity_pool[rng.integers(0, len(entity_pool), size=pending.size)]
        ok = cand != pos[pending, cols[pending]]
        if forbidden is not None:
            for j in np.flatnonzero(ok):
                row = pending[j]
                trial = out[row].copy()
                trial[cols[row]] = cand[j]
                if Triplet(*map(int, trial)) in forbidden:
                    ok[j] = False
        rows = pending[ok]
        out[rows, cols[rows]] = cand[ok]
        pending = pending[~ok]
    return out


def _epoch_rng(seed: int, epoch: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, epoch, stream])


def init_model(
    n_entities: int,
    n_relations: int,
    prop_cfg: PropagationConfig,
    seed: int,
) -> GraphModel:
    model = GraphModel(n_entities, n_relations, prop_cfg)
    model.init_params(_epoch_rng(seed, 0, _STREAM_INIT))
    return model


def train(
    graph: KnowledgeGraph,
    model: GraphModel,
    cfg: TrainConfig,
    objective: ObjectiveConfig,
    start_epoch: int = 0,
):
    """Run the epoch loop, yielding one metrics dict per epoch.

    The caller owns persistence; this generator only mutates the model.
    """
    if len(graph) == 0:
        raise ValueError("cannot train on an empty graph")
    positives = np.array([[t.head, t.relation, t.tail] for t in graph.triplets], dtype=np.intp)
    stats = compute_bernoulli_stats(graph)
    p_head = np.full(model.n_relations, 0.5)
    for r, (tph, hpt) in stats.items():
        p_head[r] = head_replacement_probability(tph, hpt)
    entity_pool = np.array(sorted(entities_of(graph)), dtype=np.intp)
    table = build_table(graph, model.n_entities)
    loss_fn = LOSSES[objective.objective]
    forbidden = graph.triplet_set if cfg.filter_false_negatives else None
    n = len(positives)

    for epoch in range(start_epoch, cfg.epochs):
        wall_start = time.perf_counter()
        perm = _epoch_rng(cfg.seed, epoch, _STREAM_SHUFFLE).permutation(n)
        rng_corrupt = _epoch_rng(cfg.seed, epoch, _STREAM_CORRUPT)
        sampler = NeighborSampler(
            table, model.cfg.neighbor_cap, seed=[cfg.seed, epoch, _STREAM_SAMPLE]
        )
        lr = step_size(epoch, cfg.alpha1, cfg.alpha2)
        total_loss = 0.0
        total_pos = 0.0
        total_neg = 0.0
        for batch_index, start in enumerate(range(0, n, cfg.minibatch_size)):
            pos = positives[perm[start:start + cfg.minibatch_size]]
            neg = corrupt_batch(pos, p_head, entity_pool, rng_corrupt, forbidden)
            model.store.zero_grad()
            scores = model.score_ids(
                np.concatenate([pos[:, 0], neg[:, 0]]),
                np.concatenate([pos[:, 1], neg[:, 1]]),
                np.concatenate([pos[:, 2], neg[:, 2]]),
                table,
                training=True,
                sampler=sampler,
            )
            b = len(pos)
            pos_s = ad.gather_rows(scores, np.arange(b))
            neg_s = ad.gather_rows(scores, np.arange(b, 2 * b))
            loss = loss_fn(pos_s, neg_s, objective.margin)
            if not np.isfinite(loss.data):
                raise GradientError(
                    f"non-finite loss at epoch {epoch}, minibatch {batch_index}"
                )
            backward(loss)
            adam_step(model.store, epoch, cfg.alpha1, cfg.alpha2)
            if cfg.project_entities:
                _project_unit_ball(model.entities.data)
            total_loss += float(loss.data)
            total_pos += float(pos_s.data.sum())
            total_neg += float(neg_s.data.sum())
        yield {
            "epoch": epoch,
            "loss": total_loss / n,
            "mean_pos_score": total_pos / n,
            "mean_neg_score": total_neg / n,
            "step_size": lr,
            "wall_time": time.perf_counter() - wall_start,
        }


def _project_unit_ball(rows: np.ndarray) -> None:
    norms = np.sqrt((rows * rows).sum(axis=1))
    over = norms > 1.0
    if over.any():
        rows[over] /= norms[over, None]


def run_training(
    graph: KnowledgeGraph,
    model: GraphModel,
    cfg: TrainConfig,
    objective: ObjectiveConfig,
    out_dir,
    save_bundle,
    start_epoch: int = 0,
    log=None,
) -> list[dict]:
    """Drive ``train`` to completion, writing metrics and periodic checkpoints.

    ``save_bundle(directory, completed_epochs)`` persists the model; it is
    injected so this module stays ignorant of vocabularies.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    history = []
    mode = "a" if start_epoch > 0 and os.path.exists(metrics_path) else "w"
    with open(metrics_path, mode, encoding="utf-8") as fh:
        for record in train(graph, model, cfg, objective, start_epoch=start_epoch):
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            history.append(record)
            if log is not None:
                log(record)
            done = record["epoch"] + 1
            if done % cfg.checkpoint_every == 0 and done < cfg.epochs:
                save_bundle(os.path.join(out_dir, f"checkpoint-epoch{done:04d}"), done)
    save_bundle(os.path.join(out_dir, "checkpoint-final"), cfg.epochs)
    return history

