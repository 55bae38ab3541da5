"""Self-check suites: gradient verification for the ops and the full model."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, gradcheck
from .model import GraphModel, NeighborSampler, NeighborTable, PropagationConfig, loss_absolute
from .nn import BatchNorm, ParamStore


def _op_suite(rng: np.random.Generator, tol: float) -> list[str]:
    x = Tensor(rng.uniform(-1, 1, size=(5, 4)), requires_grad=True)
    W = Tensor(rng.uniform(-1, 1, size=(1, 4, 4)), requires_grad=True)
    A = Tensor(rng.uniform(-1, 1, size=(3, 4, 4)), requires_grad=True)
    bn = BatchNorm(ParamStore(*BatchNorm.tensors("bn", 3, 4)), "bn")
    bn.gamma.data += rng.uniform(-0.5, 0.5, size=(3, 4))
    bn.beta.data += rng.uniform(-0.5, 0.5, size=(3, 4))
    seg = np.array([0, 1, 0, 1, 0])

    cases = {
        "affine+relu+l2": lambda: ad.sum_all(
            ad.rows_norm(ad.relu(ad.group_transition(x, [0, 5], W)[0]), 2)),
        # rows 0-1 take matrix 0 and rows 2-4 matrix 2; matrix 1 gets no rows
        # and so a zero gradient
        "tanh+l1": lambda: ad.sum_all(
            ad.rows_norm(ad.tanh(ad.group_transition(x, [0, 2, 2, 5], A)[0]), 1)),
        "segment_pool": lambda: ad.sum_all(ad.segment_max(x, seg, 2) + ad.segment_mean(x, seg, 2)),
        # group 0 holds one row (its output is its beta), group 1 none
        "batchnorm": lambda: ad.sum_all(
            ad.rows_norm(bn.transition(x, [0, 1, 1, 5], True), 2)),
        # the fused transition: matrix, batch norm and activation per group
        "transition:training": lambda: ad.sum_all(
            ad.rows_norm(bn.transition(x, [0, 1, 1, 5], True, A, "relu"), 2)),
        "transition:inference": lambda: ad.sum_all(
            ad.rows_norm(bn.transition(x, [0, 2, 2, 5], False, A, "tanh"), 1)),
        # row 0 passes through ahead of the groups, as a self record does
        "transition:pass-through": lambda: ad.sum_all(
            ad.rows_norm(bn.transition(x, [1, 3, 3, 5], True, A, "relu"), 2)),
        # a leaf gathered by sorted unique ids (a row-sparse gradient) and by
        # repeated ids, so that the two gradients add in dense form
        "gather:sparse+repeated": lambda: ad.sum_all(
            ad.rows_norm(ad.gather_rows(x, [0, 2, 3]) * ad.gather_rows(x, [3, 0, 3]), 2)),
    }
    failures = []
    params = {"x": x, "W": W, "A": A, "gamma": bn.gamma, "beta": bn.beta}
    for name, build in cases.items():
        failures += [f"op:{name}: {msg}" for msg in gradcheck(build, params, tol=tol)]
    return failures


def _model_suite(rng: np.random.Generator, tol: float) -> list[str]:
    # entity 0 has 3 records, one above the cap
    triplets = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 3], [3, 1, 4], [4, 0, 0], [5, 1, 0]])
    table = NeighborSampler(NeighborTable(6, triplets), 2, seed=0)
    pos = np.array([[0, 0, 1], [1, 1, 2], [2, 0, 3]])
    neg = np.array([[0, 0, 2], [4, 1, 2], [2, 0, 0]])
    both = np.concatenate([pos, neg])
    failures = []
    # transitions per (layer, direction, relation) and per (layer, direction),
    # and the benchmark's max-pooled relation-relu-bn
    for transition, pooling in (("relation-relu-bn", "avg"), ("tanh-layer", "avg"),
                                ("relation-relu-bn", "max")):
        cfg = PropagationConfig(dim=4, depth=1, mode="stacked", pooling=pooling,
                                transition=transition, neighbor_cap=2)
        model = GraphModel(6, 2, cfg)
        model.init_params(rng)
        # move gamma/beta off their exact defaults: a batch-of-one group
        # outputs beta verbatim, and beta = 0 would park the relu on its kink
        if model.bn is not None:
            model.bn.gamma.data += rng.uniform(0.1, 0.3, size=model.bn.gamma.data.shape)
            model.bn.beta.data += rng.uniform(0.2, 0.5, size=model.bn.beta.data.shape)

        def build_loss():
            # one joint scoring pass, as in training minibatches
            scores = model.score_ids(both[:, 0], both[:, 1], both[:, 2], table, training=True)
            pos_s = ad.gather_rows(scores, np.arange(len(pos)))
            neg_s = ad.gather_rows(scores, np.arange(len(pos), len(both)))
            return loss_absolute(pos_s, neg_s, margin=1.0)

        failures += [f"model {transition}/{pooling}: {msg}"
                     for msg in gradcheck(build_loss, model.store.parameters(), tol=tol)]
    return failures


def gradient_check_report(tolerance: float = 1e-4, seed: int = 0) -> tuple[bool, list[str]]:
    """Run both suites; returns (passed, failure messages)."""
    failures = _op_suite(np.random.default_rng(seed), tolerance)
    failures += _model_suite(np.random.default_rng(seed + 1), tolerance)
    return not failures, failures
