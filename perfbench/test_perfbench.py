"""Tests of the benchmark's own parts: the WN11-shaped generator, the tracer and
the host-speed scale.

Run from the repository root with
``PYTHONPATH=src:perfbench python -m pytest -q perfbench``.
"""

import numpy as np
import pytest

import hostspeed
import tracer as tracing
import wn11_shape as W
from graphkbc import autodiff, model, trainer
from graphkbc.kg import LabeledTriplet, Triplet, entities_of
from graphkbc.ookb import OokbPosition, generate


@pytest.fixture(scope="module")
def corpus():
    return W.generate(7)


def test_counts_match_wn11(corpus):
    assert corpus.train.shape == (W.N_TRAIN, 3)
    assert corpus.valid.shape == (W.N_VALID, 3)
    assert corpus.test.shape == (W.N_TEST, 3)
    assert len(corpus.entity_names) == W.N_ENTITIES
    assert len(corpus.relation_names) == W.N_RELATIONS
    assert set(np.unique(corpus.train[:, 1])) == set(range(W.N_RELATIONS))
    # every entity occurs in training
    assert len(np.unique(corpus.train[:, [0, 2]])) == W.N_ENTITIES


def test_no_duplicates_or_leaks(corpus):
    def keys(rows):
        return set(map(tuple, rows.tolist()))

    train = keys(corpus.train)
    assert len(train) == W.N_TRAIN
    assert not np.any(corpus.train[:, 0] == corpus.train[:, 2])
    valid, test = keys(corpus.valid), keys(corpus.test)
    assert len(valid) == W.N_VALID and len(test) == W.N_TEST
    assert not (train & valid) and not (train & test) and not (valid & test)


def test_labels_balanced(corpus):
    for labels in (corpus.valid_labels, corpus.test_labels):
        assert abs(int(labels.sum()) * 2 - len(labels)) <= 1
        assert labels[0] and not labels[1]


def test_head_degrees_are_heavy_tailed(corpus):
    degree = np.bincount(corpus.train[:, 0], minlength=W.N_ENTITIES)
    assert degree.max() > 64  # some heads exceed the neighbor cap
    assert np.median(degree) <= 2


def test_same_seed_same_corpus():
    a, b, c = W.generate(3), W.generate(3), W.generate(4)
    assert np.array_equal(a.train, b.train) and np.array_equal(a.test, b.test)
    assert not np.array_equal(a.train, c.train)


def test_head_1000_split_is_valid(corpus):
    def labeled(rows, labels):
        return [LabeledTriplet(Triplet(*row), bool(y))
                for row, y in zip(rows.tolist(), labels.tolist())]

    train = [Triplet(*row) for row in corpus.train.tolist()]
    split = generate(train, labeled(corpus.valid, corpus.valid_labels),
                     labeled(corpus.test, corpus.test_labels), 1000, OokbPosition.HEAD)
    assert split.check() == []
    assert len(split.ookb_entities) > 0
    assert len(entities_of(split.train)) > 0.9 * W.N_ENTITIES


def test_tracer_wraps_every_lookup_and_restores():
    originals = (trainer.backward, autodiff.backward, model._SEGMENT_POOL["max"],
                 model.GraphModel.score_ids)
    t = tracing.Tracer()
    patches = tracing.install(t)
    try:
        assert trainer.backward is autodiff.backward is not originals[0]
        assert model._SEGMENT_POOL["max"] is autodiff.segment_max is not originals[2]
        x = autodiff.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        loss = autodiff.sum_all(autodiff.segment_max(x, np.array([0, 0, 1]), 2))
        trainer.backward(loss)
    finally:
        patches.restore()
    assert (trainer.backward, autodiff.backward, model._SEGMENT_POOL["max"],
            model.GraphModel.score_ids) == originals
    assert t.names == ["autodiff.segment_max", "autodiff.sum_all", "autodiff.backward"]
    assert t.counts[("autodiff.pooled_rows", "none")] == 3
    assert t.counts[("autodiff.tape_nodes", "none")] == 2


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    outer = t.open("model.score_ids")
    inner = t.open("autodiff.add")
    t.close(inner)
    t.close(outer)
    t.starts, t.ends = [0.0, 1.0], [4.0, 2.5]
    names, dur, self_time, parents, roots = t.arrays()
    assert dur.tolist() == [4.0, 1.5]
    assert self_time.tolist() == [2.5, 1.5]
    assert parents.tolist() == [-1, 0]
    assert roots.tolist() == ["model.score_ids", "model.score_ids"]



def test_host_speed_scale_uses_the_bracketing_kernel_runs():
    h = hostspeed.HostSpeed()
    h.starts, h.ends = [0.0, 2.0, 5.0], [0.1, 2.3, 5.2]
    ref = hostspeed.REFERENCE_S
    # [1, 1.5] lies between the runs of 0.1 s and 0.3 s
    assert h.scale(1.0, 1.5) == pytest.approx(ref / 0.2)
    # an interval that starts as a kernel run ends is still bracketed by it
    assert h.scale(2.3, 4.0) == pytest.approx(ref / 0.25)
    # after the last run only the run before counts
    assert h.scale(6.0, 7.0) == pytest.approx(ref / 0.2)
    assert h.factor() == pytest.approx(ref / 0.2)
    h.memory = [0.05, 0.1, 0.05]
    assert h.scale(1.0, 1.5, memory_bound=True) == pytest.approx(
        hostspeed.REFERENCE_MEMORY_S / 0.075)
    h.sample()
    assert len(h.durations()) == len(h.memory) == 4 and 0 < h.memory[-1] < h.durations()[-1]
