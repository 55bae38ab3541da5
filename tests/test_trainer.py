import numpy as np
import pytest

from graphkbc.autodiff import GradientError
from graphkbc.kg import Triplet, Vocabulary, build_graph
from graphkbc.model import ObjectiveConfig, PropagationConfig, load_model, save_model
from graphkbc.trainer import (
    TrainConfig,
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
        neg = corrupt_batch(pos, np.array([1.0]), np.arange(4), rng,
                            forbidden=graph.triplet_set)
        for row in neg.tolist():
            assert Triplet(*row) not in graph.triplet_set
            assert row[0] in (B, D)  # A is the original, (C,R,B) is a positive

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
        assert sorted(map(tuple, first_epoch)) == sorted(
            (t.head, t.relation, t.tail) for t in graph.triplets
        )


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
