import gc
import os

import numpy as np
import pytest

from graphkbc import autodiff as ad
from graphkbc.autodiff import GradientError
from graphkbc.kg import Triplet, Vocabulary, build_graph
from graphkbc.model import GraphModel, ObjectiveConfig, PropagationConfig, load_model, save_model
from graphkbc.nn import adam_step
from graphkbc.trainer import (
    TrainConfig,
    _records_before,
    compute_bernoulli_stats,
    corrupt_batch,
    head_replacement_probability,
    init_model,
    run_training,
    train,
)

A, B, C, D = range(4)
R = 0

CHAIN = [Triplet(A, R, B), Triplet(B, R, C), Triplet(C, R, D)]


class TestBernoulliStats:
    def test_single_triplet(self):
        stats = compute_bernoulli_stats(build_graph([Triplet(A, R, B)]))
        assert stats[R] == (1.0, 1.0)

    def test_one_head_two_tails(self):
        stats = compute_bernoulli_stats(build_graph([Triplet(A, R, B), Triplet(A, R, C)]))
        assert stats[R] == (2.0, 1.0)

    def test_two_heads_one_tail(self):
        stats = compute_bernoulli_stats(build_graph([Triplet(A, R, B), Triplet(C, R, B)]))
        assert stats[R] == (1.0, 2.0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            compute_bernoulli_stats(build_graph([]))


class TestCorrupt:
    def test_forced_head_choice(self):
        # p_head 1 forces head replacement; the only differing entity is B
        rng = np.random.default_rng(0)
        pos = np.array([[A, R, B]], dtype=np.intp)
        neg = corrupt_batch(pos, np.array([1.0]), np.array([A, B]), rng)
        assert neg.tolist() == [[B, R, B]]

    def test_differs_in_exactly_one_endpoint(self):
        rng = np.random.default_rng(1)
        pos = np.tile(np.array([[2, R, 4]], dtype=np.intp), (200, 1))
        neg = corrupt_batch(pos, np.array([0.5]), np.arange(6), rng)
        changed = (neg[:, 0] != pos[:, 0]).astype(int) + (neg[:, 2] != pos[:, 2])
        assert np.all(changed == 1)
        assert np.array_equal(neg[:, 1], pos[:, 1])

    def test_pool_too_small(self):
        rng = np.random.default_rng(0)
        pos = np.array([[A, R, B]], dtype=np.intp)
        with pytest.raises(ValueError, match="pool"):
            corrupt_batch(pos, np.array([1.0]), np.array([A]), rng)

    def test_one_entity_graph_raises_instead_of_hanging(self):
        # the only corruption candidate equals the original on both sides
        _, model, cfg, objective = toy_setup(train_kw={"epochs": 1})
        with pytest.raises(ValueError, match="pool"):
            list(train(build_graph([Triplet(A, R, A)]), model, cfg, objective))

    def test_filter_false_negatives(self):
        # always replace the head
        graph = build_graph([Triplet(A, R, B), Triplet(C, R, B)])
        rng = np.random.default_rng(2)
        pos = np.tile(np.array([[A, R, B]], dtype=np.intp), (50, 1))
        neg = corrupt_batch(pos, np.array([1.0]), np.arange(4), rng, forbidden=graph)
        assert not graph.contains(neg).any()
        for row in neg.tolist():
            assert row[0] in (B, D)  # A is the original, (C,R,B) is a positive

    def test_filter_leaving_no_replacement_raises_instead_of_hanging(self):
        # over {A, B} every head and every tail completes a triplet of the graph
        graph = build_graph([Triplet(h, R, t) for h in (A, B) for t in (A, B)])
        pos = np.array([[A, R, B]], dtype=np.intp)
        with pytest.raises(ValueError, match=r"pool too small.*triplet ids \(0, 0, 1\)"):
            corrupt_batch(pos, np.array([0.5]), np.array([A, B]), np.random.default_rng(0),
                          forbidden=graph)

    def test_filter_leaving_one_replacement_finds_it(self):
        # (A, R, B) and (C, R, B) rule out two of the three heads
        graph = build_graph([Triplet(A, R, B), Triplet(C, R, B)])
        pos = np.tile(np.array([[A, R, B]], dtype=np.intp), (20, 1))
        neg = corrupt_batch(pos, np.array([1.0]), np.array([A, B, C]),
                            np.random.default_rng(5), forbidden=graph)
        assert neg.tolist() == [[B, R, B]] * 20

    def test_head_replacement_rate_balanced(self):
        # empirical frequency matches tph/(tph+hpt) = 0.5 within +-0.01
        pos = np.tile(np.array([[2, R, 4]], dtype=np.intp), (100_000, 1))
        p_head = np.array([head_replacement_probability(1.0, 1.0)])
        rng = np.random.default_rng(3)
        neg = corrupt_batch(pos, p_head, np.arange(6, dtype=np.intp), rng)
        rate = np.mean(neg[:, 0] != pos[:, 0])
        assert abs(rate - 0.5) < 0.01

    def test_batch_changes_exactly_one_column(self):
        pos = np.array([[A, R, B], [B, R, C], [C, R, D]], dtype=np.intp)
        rng = np.random.default_rng(4)
        neg = corrupt_batch(pos, np.array([0.5]), np.arange(4, dtype=np.intp), rng)
        diff = (neg != pos).sum(axis=1)
        assert np.array_equal(diff, [1, 1, 1])
        assert np.array_equal(neg[:, 1], pos[:, 1])


def toy_setup(prop_kw=None, train_kw=None, objective=None):
    graph = build_graph(CHAIN)
    prop_cfg = PropagationConfig(dim=8, transition="identity", pooling="avg",
                                 **(prop_kw or {}))
    train_args = {"epochs": 200, "minibatch_size": 16, "seed": 11}
    train_args.update(train_kw or {})
    cfg = TrainConfig(**train_args)
    objective = objective or ObjectiveConfig(objective="absolute", margin=2.0)
    model = init_model(4, 1, prop_cfg, cfg.seed)
    return graph, model, cfg, objective


class TestTrain:
    def test_determinism_across_runs(self):
        records = []
        for _ in range(2):
            graph, model, cfg, objective = toy_setup(train_kw={"epochs": 2})
            history = list(train(graph, model, cfg, objective))
            for h in history:
                h.pop("wall_time")
            records.append(history)
        assert records[0] == records[1]

    def test_step_size_schedule(self):
        graph, model, cfg, objective = toy_setup(train_kw={"epochs": 3})
        history = list(train(graph, model, cfg, objective))
        sizes = [h["step_size"] for h in history]
        assert sizes[0] == 0.01
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_toy_convergence(self):
        # run to convergence on the chain fixture: windowed mean positive
        # score decreases and lands well under the margin
        graph, model, cfg, objective = toy_setup()
        history = list(train(graph, model, cfg, objective))
        pos = np.array([h["mean_pos_score"] for h in history])
        windows = pos.reshape(20, 10).mean(axis=1)
        assert all(a > b for a, b in zip(windows, windows[1:]))
        assert pos[-1] < 0.1 * objective.margin

    def test_non_finite_loss_reports_minibatch(self):
        graph, model, cfg, objective = toy_setup(train_kw={"epochs": 1})
        model.entities.data[0, 0] = np.nan
        with pytest.raises(GradientError, match="minibatch 0"):
            list(train(graph, model, cfg, objective))

    def test_unit_ball_projection_flag(self):
        graph, model, cfg, objective = toy_setup(
            train_kw={"epochs": 2, "project_entities": True}
        )
        list(train(graph, model, cfg, objective))
        norms = np.sqrt((model.entities.data ** 2).sum(axis=1))
        assert np.all(norms <= 1.0 + 1e-12)

    def test_empty_graph_rejected(self):
        _, model, cfg, objective = toy_setup()
        with pytest.raises(ValueError):
            list(train(build_graph([]), model, cfg, objective))

    def test_each_epoch_consumes_every_positive_once(self, monkeypatch):
        import graphkbc.trainer as trainer_mod

        graph, model, cfg, objective = toy_setup(train_kw={"epochs": 3, "minibatch_size": 2})
        seen = []
        original = trainer_mod.corrupt_batch

        def spy(pos, *args, **kw):
            seen.append(pos)
            return original(pos, *args, **kw)

        monkeypatch.setattr(trainer_mod, "corrupt_batch", spy)
        list(train(graph, model, cfg, objective))
        per_epoch = len(graph)
        assert sum(len(p) for p in seen) == 3 * per_epoch
        # within one epoch the minibatches partition the positives exactly
        first_epoch = np.concatenate(seen[:2])  # 3 positives, minibatch 2 -> 2 slices
        assert sorted(map(tuple, first_epoch.tolist())) == sorted(map(tuple, graph.triplets.tolist()))


class TestRunTraining:
    def make_bundle_saver(self, model, out={}):
        ev = Vocabulary(["a", "b", "c", "d"])
        rv = Vocabulary(["r"])

        def save_bundle(directory, completed):
            save_model(model, directory, ev, rv, extra={"completed_epochs": completed})

        return save_bundle

    def test_writes_metrics_and_checkpoints(self, tmp_path):
        graph, model, cfg, objective = toy_setup(train_kw={"epochs": 5, "checkpoint_every": 2})
        run_training(graph, model, cfg, objective, tmp_path, self.make_bundle_saver(model))
        lines = (tmp_path / "metrics.jsonl").read_text().strip().split("\n")
        assert len(lines) == 5
        assert (tmp_path / "checkpoint-epoch0002").is_dir()
        assert (tmp_path / "checkpoint-epoch0004").is_dir()
        assert (tmp_path / "checkpoint-final").is_dir()

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        graph, model, cfg, objective = toy_setup(train_kw={"epochs": 6, "checkpoint_every": 3})
        run_training(graph, model, cfg, objective, tmp_path / "full",
                     self.make_bundle_saver(model))
        full, _, _, _ = load_model(tmp_path / "full" / "checkpoint-final")

        graph2, model2, cfg2, objective2 = toy_setup(train_kw={"epochs": 6, "checkpoint_every": 3})
        half_cfg = TrainConfig(epochs=3, minibatch_size=cfg2.minibatch_size,
                               seed=cfg2.seed, checkpoint_every=3)
        run_training(graph2, model2, half_cfg, objective2, tmp_path / "half",
                     self.make_bundle_saver(model2))
        resumed, ev, rv, extra = load_model(tmp_path / "half" / "checkpoint-final")
        assert extra["completed_epochs"] == 3
        cfg_rest = TrainConfig(epochs=6, minibatch_size=cfg2.minibatch_size,
                               seed=cfg2.seed, checkpoint_every=3)
        rest_model_graph = build_graph(CHAIN)
        run_training(rest_model_graph, resumed, cfg_rest, objective2, tmp_path / "rest",
                     lambda d, c: save_model(resumed, d, ev, rv, extra={"completed_epochs": c}),
                     start_epoch=3)
        assert np.array_equal(full.entities.data, resumed.entities.data)
        assert np.array_equal(full.relations.data, resumed.relations.data)


@pytest.mark.parametrize("last", ['{"epoch": 1, "lo\n', '{"epoch": 1, "loss": 0.5}'],
                         ids=["torn", "without-newline"])
def test_a_resumed_run_keeps_no_record_of_an_interrupted_write(tmp_path, last):
    # the metrics file a resumed run rewrites in place: its last write was cut short
    path = tmp_path / "metrics.jsonl"
    path.write_text('{"epoch": 0, "loss": 1.0}\n' + last, encoding="utf-8")
    assert _records_before(path, 3) == ['{"epoch": 0, "loss": 1.0}\n']


@pytest.mark.parametrize("depth, mode, ops", [(1, "unrolled", 15), (2, "stacked", 16)])
def test_tape_ops_per_training_minibatch(monkeypatch, depth, mode, ops):
    # one minibatch of the perfbench workloads' model (relation-relu-bn, max
    # pooling): base gather, then one op per step (gather, transition and pool),
    # then 13 scoring and loss ops; a change that adds an op per step shows here
    made = []
    make = ad._make
    monkeypatch.setattr(ad, "_make", lambda data, parents: made.append(1) or make(data, parents))
    prop_cfg = PropagationConfig(dim=8, depth=depth, mode=mode)
    model = init_model(4, 1, prop_cfg, seed=0)
    next(train(build_graph(CHAIN), model, TrainConfig(epochs=1, minibatch_size=len(CHAIN)),
               ObjectiveConfig(margin=2.0)))
    assert len(made) == ops


def test_a_minibatch_starts_beside_no_spent_tape(monkeypatch):
    # with the collector off only reference counts free anything: the second
    # minibatch's forward starts with as many live tensors as the first
    counts = []
    score_ids = GraphModel.score_ids

    def counted(self, *args, **kwargs):
        counts.append(sum(isinstance(o, ad.Tensor) for o in gc.get_objects()))
        return score_ids(self, *args, **kwargs)

    monkeypatch.setattr(GraphModel, "score_ids", counted)
    model = init_model(4, 1, PropagationConfig(dim=8, depth=2, mode="stacked"), seed=0)
    epochs = train(build_graph(CHAIN), model, TrainConfig(epochs=1, minibatch_size=2),
                   ObjectiveConfig(margin=2.0))
    enabled = gc.isenabled()
    gc.disable()
    try:
        next(epochs)
    finally:
        if enabled:
            gc.enable()
    assert len(counts) == 2 and counts[1] == counts[0]


def ring_setup(**train_kw):
    """Two relations over a ring of 10 entities: 20 positives, 5 minibatches of 4."""
    triplets = [Triplet(i, 0, (i + 1) % 10) for i in range(10)]
    triplets += [Triplet(i, 1, (i + 3) % 10) for i in range(10)]
    cfg = TrainConfig(**({"epochs": 2, "minibatch_size": 4, "seed": 5} | train_kw))
    model = init_model(10, 2, PropagationConfig(dim=4, depth=1), cfg.seed)
    return build_graph(triplets), model, cfg


def test_minibatches_run_the_negatives_drawn_in_minibatch_order(monkeypatch):
    # the planner draws minibatch k+1 while k trains; what each minibatch
    # scores must be what one thread drawing every minibatch in turn draws
    import graphkbc.trainer as trainer_mod

    graph, model, cfg = ring_setup()
    executed = []
    score_ids = GraphModel.score_ids

    def spy(self, plan):
        both = np.stack([plan.ids[plan.inverse[:len(plan.relations)]], plan.relations,
                         plan.ids[plan.inverse[len(plan.relations):]]], axis=1)
        executed.append(both)
        return score_ids(self, plan)

    monkeypatch.setattr(GraphModel, "score_ids", spy)
    list(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    positives = graph.triplets
    p_head = np.full(2, 0.5)
    for r, (tph, hpt) in compute_bernoulli_stats(graph).items():
        p_head[r] = head_replacement_probability(tph, hpt)
    pool = np.unique(positives[:, ::2])
    reference = []
    for epoch in range(cfg.epochs):
        perm = trainer_mod._epoch_rng(cfg.seed, epoch, trainer_mod._STREAM_SHUFFLE).permutation(20)
        rng = trainer_mod._epoch_rng(cfg.seed, epoch, trainer_mod._STREAM_CORRUPT)
        for start in range(0, 20, cfg.minibatch_size):
            pos = positives[perm[start:start + cfg.minibatch_size]]
            reference.append(np.concatenate([pos, corrupt_batch(pos, p_head, pool, rng)]))
    assert len(executed) == len(reference) == 10
    for k, (got, want) in enumerate(zip(executed, reference)):
        assert np.array_equal(got, want), k


def test_a_planning_error_reaches_the_caller_after_the_minibatch_before_it():
    # relation 0 is complete over {0, 1}, so with false negatives filtered
    # none of its triplets has a corruption; the seed puts the one triplet of
    # relation 1 first, so minibatch 0 trains and planning minibatch 1 fails
    triplets = [Triplet(h, 0, t) for h in (0, 1) for t in (0, 1)] + [Triplet(0, 1, 1)]
    graph = build_graph(triplets)
    n = len(graph)
    seed = next(s for s in range(100)
                if graph.triplets[np.random.default_rng([s, 0, 0]).permutation(n)[0], 1] == 1)
    cfg = TrainConfig(epochs=1, minibatch_size=1, seed=seed, filter_false_negatives=True)
    model = init_model(2, 2, PropagationConfig(dim=4, depth=1), seed)
    with pytest.raises(ValueError, match="entity pool too small to produce a differing "
                                         "corruption: no allowed (head|tail) for triplet ids"):
        next(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    assert model.store.adam_t == 1  # minibatch 0's update ran; no later one did


def test_no_plan_runs_once_training_stops(monkeypatch):
    # a failed minibatch and a closed generator each wait for the plan ahead:
    # no draw starts or ends after the caller sees training stop
    import time

    import graphkbc.trainer as trainer_mod

    stamps = []
    original = trainer_mod.corrupt_batch

    def slow(*args, **kwargs):
        stamps.append(time.perf_counter())
        time.sleep(0.05)
        out = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        return out

    def failing(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(trainer_mod, "corrupt_batch", slow)
    graph, model, cfg = ring_setup()
    monkeypatch.setattr(trainer_mod, "adam_step", failing)
    with pytest.raises(RuntimeError, match="stop"):
        next(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    stopped = time.perf_counter()
    monkeypatch.setattr(trainer_mod, "adam_step", adam_step)
    epochs = train(graph, model, cfg, ObjectiveConfig(margin=2.0))
    next(epochs)
    epochs.close()
    closed = time.perf_counter()
    time.sleep(0.2)
    assert len(stamps) == 2 * 2 + 2 * 5  # minibatches 0 and 1, then one whole epoch
    assert stamps[3] < stopped and stamps[-1] < closed


def planner_threads():
    import threading

    return [t.name for t in threading.enumerate() if t.name.startswith("graphkbc-planner")]


def test_no_planner_thread_outlives_training(monkeypatch):
    # each epoch joins its planner: a finished run, a closed generator and a
    # run stopped by an error all leave no planner thread alive
    import graphkbc.trainer as trainer_mod

    graph, model, cfg = ring_setup()
    list(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    assert planner_threads() == []
    epochs = train(graph, model, cfg, ObjectiveConfig(margin=2.0))
    next(epochs)
    assert planner_threads() == []  # none is held across a yield
    epochs.close()
    assert planner_threads() == []

    def failing(*args, **kwargs):
        raise RuntimeError("stop")

    monkeypatch.setattr(trainer_mod, "adam_step", failing)
    with pytest.raises(RuntimeError, match="stop"):
        next(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    assert planner_threads() == []


def in_forked_child(body) -> int:
    """The exit code of a forked child that runs ``body()`` (0 if it returns True)."""
    import signal
    import time
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if body() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung in training")
    return os.waitstatus_to_exitcode(done[1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_trains_with_its_own_planner():
    def trained():
        graph, model, cfg = ring_setup(epochs=1)
        list(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
        return model.entities.data.tobytes()

    want = trained()  # the parent has trained with a planner thread
    assert in_forked_child(lambda: trained() == want) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_at_a_yield_finishes_the_run():
    # the child resumes the parent's generator after epoch 0 and trains
    # epoch 1 on a planner thread of its own, to the bits of a whole run
    graph, model, cfg = ring_setup()
    list(train(graph, model, cfg, ObjectiveConfig(margin=2.0)))
    want = model.entities.data.tobytes()
    graph, model, cfg = ring_setup()
    epochs = train(graph, model, cfg, ObjectiveConfig(margin=2.0))
    assert next(epochs)["epoch"] == 0

    def finished():
        return [m["epoch"] for m in epochs] == [1] and model.entities.data.tobytes() == want

    assert in_forked_child(finished) == 0
    epochs.close()
