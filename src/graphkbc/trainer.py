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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import GradientError, backward
from .kg import DataError, KnowledgeGraph
from .model import (
    LOSSES,
    GraphModel,
    NeighborSampler,
    NeighborTable,
    ObjectiveConfig,
    PropagationConfig,
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
        if not 0 < self.alpha1 < np.inf:
            raise ValueError(f"alpha1 must be a finite number > 0, got {self.alpha1}")
        if not 0 <= self.alpha2 < np.inf:
            raise ValueError(f"alpha2 must be a finite number >= 0, got {self.alpha2}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")


def compute_bernoulli_stats(graph: KnowledgeGraph) -> dict[int, tuple[float, float]]:
    """Per relation: (mean tails per head, mean heads per tail)."""
    if len(graph) == 0:
        raise DataError("cannot compute corruption statistics of an empty graph")
    rows = graph.triplets
    relations = np.unique(rows[:, 1])
    counts = np.bincount(rows[:, 1])[relations]
    heads = np.bincount(np.unique(rows[:, :2], axis=0)[:, 1])[relations]
    tails = np.bincount(np.unique(rows[:, 1:], axis=0)[:, 0])[relations]
    return dict(zip(relations.tolist(), zip((counts / heads).tolist(), (counts / tails).tolist())))


def head_replacement_probability(tph: float, hpt: float) -> float:
    return tph / (tph + hpt)


def corrupt_batch(
    pos: np.ndarray,
    p_head: np.ndarray,
    entity_pool: np.ndarray,
    rng: np.random.Generator,
    forbidden: KnowledgeGraph | None = None,
) -> np.ndarray:
    """Vectorized corruption of a (B, 3) positive id block.

    Each row's head (with probability ``p_head`` of its relation) or tail is
    redrawn from the pool until it differs from the original and, when
    ``forbidden`` is given, the row is not one of that graph's triplets. A
    row without any such replacement raises ``ValueError`` before any
    entity is drawn.
    """
    out = pos.copy()
    cols = np.where(rng.random(len(pos)) < p_head[pos[:, 1]], 0, 2)
    _check_replaceable(pos, cols, np.flatnonzero(np.bincount(entity_pool)), forbidden)
    pending = np.arange(len(pos))
    while pending.size:
        cand = entity_pool[rng.integers(0, len(entity_pool), size=pending.size)]
        ok = cand != pos[pending, cols[pending]]
        if forbidden is not None:
            trial = out[pending]
            trial[np.arange(len(pending)), cols[pending]] = cand
            ok &= ~forbidden.contains(trial)
        rows = pending[ok]
        out[rows, cols[rows]] = cand[ok]
        pending = pending[~ok]
    return out


def _check_replaceable(pos, cols, pool, forbidden) -> None:
    """Raise unless every row's column ``cols`` has a replacement in the distinct ids
    ``pool`` that differs from it and, given ``forbidden``, leaves that graph's triplets.
    """
    # a row rules out its own entity, and at most one more per forbidden triplet
    # sharing its relation and its kept entity; only a row ruling out as many
    # entities as the pool holds can be left without a replacement
    ruled_out = np.ones(len(pos), dtype=np.intp)
    if forbidden is not None and len(forbidden):
        f = forbidden.triplets
        n = max(int(f.max()), int(pos.max(initial=0))) + 1
        sharing_kept = np.where(cols == 0, np.bincount(f[:, 2], minlength=n)[pos[:, 2]],
                                np.bincount(f[:, 0], minlength=n)[pos[:, 0]])
        ruled_out += np.minimum(sharing_kept, np.bincount(f[:, 1], minlength=n)[pos[:, 1]])
    for i in np.flatnonzero(ruled_out >= len(pool)).tolist():
        trial = np.repeat(pos[i:i + 1], len(pool), axis=0)
        trial[:, cols[i]] = pool
        allowed = pool != pos[i, cols[i]]
        if forbidden is not None:
            allowed &= ~forbidden.contains(trial)
        if not allowed.any():
            side = "head" if cols[i] == 0 else "tail"
            raise ValueError(f"entity pool too small to produce a differing corruption: no "
                             f"allowed {side} for triplet ids {tuple(pos[i].tolist())}")


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
    While a minibatch trains, the epoch's planner thread draws the next
    one's negatives and builds its ``GraphModel.plan``; an error there
    reaches the caller when that minibatch's turn comes. The planner is
    joined when the epoch's minibatches end, so no thread is held across a
    ``yield``.
    """
    if len(graph) == 0:
        raise DataError("cannot train on an empty graph")
    ad.keep_freed_heap()
    positives = graph.triplets
    stats = compute_bernoulli_stats(graph)
    p_head = np.full(model.n_relations, 0.5)
    for r, (tph, hpt) in stats.items():
        p_head[r] = head_replacement_probability(tph, hpt)
    entity_pool = np.unique(positives[:, ::2])
    table = NeighborTable(model.n_entities, positives)
    loss_fn = LOSSES[objective.objective]
    forbidden = graph if cfg.filter_false_negatives else None
    n = len(positives)

    def plan_of(start, perm, rng_corrupt, capped):
        pos = positives[perm[start:start + cfg.minibatch_size]]
        both = np.concatenate([pos, corrupt_batch(pos, p_head, entity_pool, rng_corrupt, forbidden)])
        return len(pos), model.plan(both[:, 0], both[:, 1], both[:, 2], capped)

    for epoch in range(start_epoch, cfg.epochs):
        wall_start = time.perf_counter()
        perm = _epoch_rng(cfg.seed, epoch, _STREAM_SHUFFLE).permutation(n)
        rng_corrupt = _epoch_rng(cfg.seed, epoch, _STREAM_CORRUPT)
        capped = NeighborSampler(table, model.cfg.neighbor_cap,
                                 seed=[cfg.seed, epoch, _STREAM_SAMPLE])
        lr = step_size(epoch, cfg.alpha1, cfg.alpha2)
        total_loss = 0.0
        total_pos = 0.0
        total_neg = 0.0
        starts = range(0, n, cfg.minibatch_size)
        # leaving the block waits for the plan in flight, also on an error
        with ThreadPoolExecutor(1, thread_name_prefix="graphkbc-planner") as planner:
            ahead = planner.submit(plan_of, starts[0], perm, rng_corrupt, capped)
            for batch_index in range(len(starts)):
                # minibatch k+1 draws and plans on the planner thread while k
                # trains: it reads no parameter, and rng_corrupt draws in order
                b, plan = ahead.result()
                if batch_index + 1 < len(starts):
                    ahead = planner.submit(plan_of, starts[batch_index + 1], perm,
                                           rng_corrupt, capped)
                model.store.zero_grad()
                # an overflow shows as a non-finite loss, checked right after
                with np.errstate(over="ignore", invalid="ignore"):
                    scores = model.score_ids(plan)
                    pos_s = ad.gather_rows(scores, np.arange(b))
                    neg_s = ad.gather_rows(scores, np.arange(b, 2 * b))
                    loss = loss_fn(pos_s, neg_s, objective.margin)
                if not np.isfinite(loss.data):
                    raise GradientError(
                        f"non-finite loss at epoch {epoch}, minibatch {batch_index}"
                    )
                backward(loss)
                adam_step(model.store, lr)  # trainer.adam_step, which the benchmark wraps
                if cfg.project_entities:
                    _project_unit_ball(model.entities.data)
                total_loss += float(loss.data)
                total_pos += float(pos_s.data.sum())
                total_neg += float(neg_s.data.sum())
                del scores, pos_s, neg_s, loss, plan  # no tensor or plan of this step outlives it
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
    # a resumed run keeps the records of the epochs it does not replay
    kept = _records_before(metrics_path, start_epoch) if start_epoch > 0 else []
    with open(metrics_path, "w", encoding="utf-8") as fh:
        fh.writelines(kept)
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


def _records_before(path, epoch: int) -> list[str]:
    """The leading lines of a metrics file that record epochs before ``epoch``."""
    kept: list[str] = []
    if not os.path.exists(path):
        return kept
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                if not (line.endswith("\n") and json.loads(line)["epoch"] < epoch):
                    break
            except (ValueError, KeyError, TypeError):  # torn by an interrupted write
                break
            kept.append(line)
    return kept
