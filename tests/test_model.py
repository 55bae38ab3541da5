import numpy as np
import pytest

from graphkbc.autodiff import Tensor, gradcheck
from graphkbc.kg import Triplet, build_graph
from graphkbc.model import (
    _SEGMENT_POOL,
    GraphModel,
    InferenceError,
    NeighborSampler,
    ObjectiveConfig,
    PropagationConfig,
    build_table,
    loss_absolute,
    loss_pairwise,
)

A, B, C, D, E = range(5)
R, S = 0, 1


def make_model(n_entities, n_relations, seed=0, **cfg_kw):
    cfg = PropagationConfig(**cfg_kw)
    m = GraphModel(n_entities, n_relations, cfg)
    m.init_params(np.random.default_rng(seed))
    return m


def propagate(m, e, table, **kw):
    """Propagated vector of one entity, through the batch path."""
    return m.propagate_batch(np.array([e]), table, **kw).data[0]


def summed_neighborhood_reference(graph, base, depth):
    """Direct, independent implementation of the pure summation recurrence.

    Loops over the explicit neighborhood lists; with integer-valued inputs
    every addition is exact, so any summation order gives identical bits.
    """
    vecs = {e: base[e].copy() for e in range(len(base))}
    for _ in range(depth):
        nxt = {}
        for e in vecs:
            g = graph.head_neighborhood(e)
            gg = graph.tail_neighborhood(e)
            if not g and not gg:
                nxt[e] = base[e].copy()
                continue
            acc = np.zeros_like(base[e])
            for (h, _, _t) in g:
                acc = acc + vecs[h]
            for (_h, _, t) in gg:
                acc = acc + vecs[t]
            nxt[e] = acc
        vecs = nxt
    return vecs


def pool(vectors, kind):
    """One segment holding every vector, reduced by the op propagation runs."""
    rows = np.asarray(vectors, dtype=float)
    return _SEGMENT_POOL[kind](rows, np.zeros(len(rows), dtype=np.intp), 1).data[0]


class TestPooling:
    def test_singleton_fixed_point(self):
        v = np.array([1.5, -2.0])
        for kind in ("sum", "avg", "max"):
            assert np.array_equal(pool([v], kind), v)

    def test_hand_values(self):
        s = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        assert np.array_equal(pool(s, "sum"), [1.0, 1.0])
        assert np.array_equal(pool(s, "avg"), [0.5, 0.5])
        assert np.array_equal(pool(s, "max"), [1.0, 1.0])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vs = [rng.normal(size=4) for _ in range(6)]
        perm = [vs[i] for i in rng.permutation(6)]
        for kind in ("sum", "avg", "max"):
            assert np.allclose(pool(vs, kind), pool(perm, kind), rtol=1e-12, atol=1e-12)

    def test_empty_rejected(self):
        for op in _SEGMENT_POOL.values():
            with pytest.raises(ValueError, match="empty"):
                op(np.zeros((0, 2)), np.zeros(0, dtype=np.intp), 1)


class TestTransition:
    def test_identity(self):
        m = make_model(3, 1, dim=4, transition="identity")
        v = np.array([1.0, -2.0, 3.0, 0.5])
        assert np.array_equal(m.transition(v, R, "head"), v)

    def test_relu_layer_zero_matrix(self):
        m = make_model(3, 1, dim=3, transition="relu-layer")
        m.store.param("A.head.l0").data[:] = 0.0
        assert np.array_equal(m.transition(np.ones(3), R, "head"), np.zeros(3))

    def test_relation_relu_bn_inference_hand_value(self):
        m = make_model(3, 1, dim=3, transition="relation-relu-bn")
        m.store.param("A.head.r0.l0").data[:] = np.eye(3)
        v = np.array([1.0, -1.0, 2.0])
        expected = np.maximum(v / np.sqrt(1.0 + 1e-5), 0.0)
        assert np.allclose(m.transition(v, R, "head"), expected, rtol=1e-12)

    def test_unknown_relation(self):
        m = make_model(3, 1, dim=3)
        with pytest.raises(InferenceError):
            m.transition(np.ones(3), 5, "head")


class TestPropagation:
    def test_singleton_neighbor_identity_avg(self):
        # e's only record is (h, r, e): propagated vector equals v_h
        m = make_model(3, 1, dim=4, transition="identity", pooling="avg")
        graph = build_graph([Triplet(A, R, B)])
        table = build_table(graph, 3)
        assert np.array_equal(propagate(m, B, table), m.entities.data[A])

    def test_two_neighbors_identity_sum(self):
        # records of e: (a, r, e) and (e, s, b) -> v_a + v_b
        m = make_model(4, 2, dim=4, transition="identity", pooling="sum")
        graph = build_graph([Triplet(A, R, C), Triplet(C, S, B)])
        table = build_table(graph, 4)
        expected = m.entities.data[A] + m.entities.data[B]
        assert np.array_equal(propagate(m, C, table), expected)

    def test_matches_summation_reference_on_random_graphs(self):
        # oracle equivalence: identity transition + sum pooling vs the
        # loop-based summation recurrence, bitwise on integer embeddings
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(2, 11))
            n_rel = int(rng.integers(1, 4))
            n_edges = int(rng.integers(1, 2 * n))
            triplets = [
                Triplet(int(rng.integers(n)), int(rng.integers(n_rel)), int(rng.integers(n)))
                for _ in range(n_edges)
            ]
            graph = build_graph(triplets)
            depth = int(rng.integers(1, 3))
            m = make_model(n, n_rel, dim=5, transition="identity", pooling="sum",
                           mode="unrolled", depth=depth)
            m.entities.data[:] = rng.integers(-8, 9, size=m.entities.data.shape)
            table = build_table(graph, n)
            reference = summed_neighborhood_reference(graph, m.entities.data, depth)
            got = m.propagate_batch(np.arange(n), table).data
            for e in range(n):
                assert np.array_equal(got[e], reference[e]), (trial, e)

    def test_depth2_unrolled_equals_double_application(self):
        m = make_model(3, 1, dim=4, transition="identity", pooling="sum",
                       mode="unrolled", depth=2)
        graph = build_graph([Triplet(A, R, B), Triplet(B, R, C)])
        table = build_table(graph, 3)
        ref = summed_neighborhood_reference(graph, m.entities.data, 2)
        for e in (A, B, C):
            assert np.array_equal(propagate(m, e, table), ref[e])

    def test_stacked_depth2_uses_one_parameter_set_per_step(self):
        # single edge a -> b; with per-step scalings 2 and 3 the two-step
        # vector of b is 3 * 2 * v0(b), while weight sharing would give 4x
        graph = build_graph([Triplet(A, R, B)])
        table = build_table(graph, 2)

        def run(mode):
            m = make_model(2, 1, dim=3, transition="relu-layer", pooling="avg",
                           mode=mode, depth=2)
            m.entities.data[:] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
            m.store.param("A.head.l0").data[:] = 2.0 * np.eye(3)
            m.store.param("A.tail.l0").data[:] = 2.0 * np.eye(3)
            if mode == "stacked":
                m.store.param("A.head.l1").data[:] = 3.0 * np.eye(3)
                m.store.param("A.tail.l1").data[:] = 3.0 * np.eye(3)
            return propagate(m, B, table)

        assert np.array_equal(run("stacked"), 6.0 * np.array([4.0, 5.0, 6.0]))
        assert np.array_equal(run("unrolled"), 4.0 * np.array([4.0, 5.0, 6.0]))

    def test_stacked_equals_unrolled_at_depth_one(self):
        graph = build_graph([Triplet(A, R, B), Triplet(B, S, C), Triplet(C, R, A)])
        outs = {}
        for mode in ("stacked", "unrolled"):
            m = make_model(3, 2, seed=9, dim=4, transition="relation-relu-bn",
                           pooling="avg", mode=mode, depth=1)
            table = build_table(graph, 3)
            outs[mode] = m.propagate_batch(np.arange(3), table).data
        assert np.array_equal(outs["stacked"], outs["unrolled"])

    def test_isolated_entity_falls_back_to_base(self):
        m = make_model(3, 1, dim=4, transition="relation-relu-bn", depth=2)
        graph = build_graph([Triplet(A, R, B)])
        table = build_table(graph, 3)
        assert np.array_equal(propagate(m, C, table), m.entities.data[C])

    def test_unknown_neighborless_entity_raises(self):
        m = make_model(3, 1, dim=4)
        graph = build_graph([Triplet(A, R, B)])
        table = build_table(graph, 3)
        with pytest.raises(InferenceError, match="7"):
            propagate(m, 7, table)

    def test_deterministic_when_cap_covers_degree(self):
        graph = build_graph([Triplet(A, R, C), Triplet(B, R, C), Triplet(C, S, D)])
        m = make_model(5, 2, dim=4, neighbor_cap=64)
        table = build_table(graph, 5)
        a = propagate(m, C, table, sampler=NeighborSampler(table, 64, seed=1))
        b = propagate(m, C, table, sampler=NeighborSampler(table, 64, seed=2))
        assert np.array_equal(a, b)

    def test_cap_subsamples_without_replacement(self):
        triplets = [Triplet(i, R, 9) for i in range(9)]
        graph = build_graph(triplets)
        table = build_table(graph, 10)
        sampler = NeighborSampler(table, 4, seed=3)
        picked = sampler.indices(9)
        assert len(picked) == 4
        assert len(set(picked.tolist())) == 4
        m = make_model(10, 1, dim=3, transition="identity", pooling="sum", neighbor_cap=4)
        out = propagate(m, 9, table, sampler=sampler)
        expected = m.entities.data[picked].sum(axis=0)  # neighbor i sits at record i
        assert np.allclose(out, expected)

    def test_over_cap_without_sampler_is_an_error(self):
        triplets = [Triplet(i, R, 9) for i in range(9)]
        table = build_table(build_graph(triplets), 10)
        m = make_model(10, 1, dim=3, neighbor_cap=4)
        with pytest.raises(ValueError, match="Sampler"):
            propagate(m, 9, table)


class TestScore:
    def test_exact_translation_scores_zero(self):
        m = make_model(2, 1, dim=2, mode="none")
        m.entities.data[:] = [[0.0, 0.0], [1.0, 1.0]]
        m.relations.data[:] = [[1.0, 1.0]]
        assert m.score(Triplet(0, 0, 1)) == 0.0

    def test_l1_and_l2_hand_values(self):
        for norm_p, expected in ((1, 2.0), (2, np.sqrt(2.0))):
            m = make_model(2, 1, dim=2, mode="none", norm_p=norm_p)
            m.entities.data[:] = [[1.0, 0.0], [0.0, 0.0]]
            m.relations.data[:] = [[0.0, 1.0]]
            assert m.score(Triplet(0, 0, 1)) == pytest.approx(expected)

    def test_score_is_nonnegative(self):
        rng = np.random.default_rng(0)
        m = make_model(6, 2, dim=5, mode="none")
        for _ in range(20):
            h, t = rng.integers(6, size=2)
            r = rng.integers(2)
            assert m.score(Triplet(int(h), int(r), int(t))) >= 0.0


class TestObjectives:
    def run(self, fn, pos, neg, margin):
        return float(fn(Tensor(np.array(pos)), Tensor(np.array(neg)), margin).data)

    def test_absolute_hand_values(self):
        tau = 7.0
        assert self.run(loss_absolute, [0.0], [tau], tau) == 0.0
        assert self.run(loss_absolute, [0.0], [tau + 5.0], tau) == 0.0
        assert self.run(loss_absolute, [2.0], [tau - 3.0], tau) == 5.0

    def test_pairwise_hand_values(self):
        assert self.run(loss_pairwise, [1.0], [1.0 + 4.0], 4.0) == 0.0
        assert self.run(loss_pairwise, [2.5], [2.5], 1.0) == 1.0
        assert self.run(loss_pairwise, [3.0], [1.0], 2.0) == 4.0

    def test_absolute_reduces_to_positive_sum_when_negatives_clear_margin(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 5, size=8)
        neg = rng.uniform(10, 20, size=8)
        got = self.run(loss_absolute, pos, neg, 10.0)
        assert got == pytest.approx(pos.sum())

    def test_unpaired_batches_rejected(self):
        with pytest.raises(ValueError):
            self.run(loss_absolute, [1.0, 2.0], [1.0], 1.0)

    def test_objective_config_validation(self):
        with pytest.raises(ValueError):
            ObjectiveConfig(objective="nonsense")
        with pytest.raises(ValueError):
            ObjectiveConfig(margin=-1.0)


class TestConfig:
    def test_mode_none_forces_depth_zero(self):
        cfg = PropagationConfig(dim=4, mode="none", depth=3)
        assert cfg.depth == 0
        assert cfg.n_layers == 0

    def test_stacked_layer_count(self):
        cfg = PropagationConfig(dim=4, mode="stacked", depth=3)
        assert cfg.n_layers == 3
        assert [cfg.layer_of(s) for s in (1, 2, 3)] == [0, 1, 2]

    def test_unrolled_shares_one_layer(self):
        cfg = PropagationConfig(dim=4, mode="unrolled", depth=3)
        assert cfg.n_layers == 1
        assert [cfg.layer_of(s) for s in (1, 2, 3)] == [0, 0, 0]

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PropagationConfig(dim=4, pooling="median")
        with pytest.raises(ValueError):
            PropagationConfig(dim=4, depth=0)
        with pytest.raises(ValueError):
            PropagationConfig(dim=0)


class TestFullModelGradients:
    def build_fixture(self, transition="relation-relu-bn", pooling="avg", depth=1,
                      mode="stacked", seed=123):
        triplets = [
            Triplet(A, R, B),
            Triplet(B, S, C),
            Triplet(C, R, D),
            Triplet(D, S, E),
            Triplet(E, R, A),
        ]
        graph = build_graph(triplets)
        m = make_model(5, 2, seed=seed, dim=4, transition=transition,
                       pooling=pooling, depth=depth, mode=mode)
        rng = np.random.default_rng(seed + 1000)
        for name, p in m.store.parameters().items():
            # beta = 0 would leave batch-of-one groups exactly on the relu kink
            if name.endswith(".gamma") or name.endswith(".beta"):
                p.data += rng.uniform(0.1, 0.4, size=p.data.shape)
        table = build_table(graph, 5)
        pos = np.array([[A, R, B], [B, S, C], [C, R, D]])
        neg = np.array([[A, R, C], [E, S, C], [C, R, A]])
        both = np.concatenate([pos, neg])

        def build_loss():
            from graphkbc import autodiff as ad
            scores = m.score_ids(both[:, 0], both[:, 1], both[:, 2], table,
                                 training=True, update_running=False)
            pos_s = ad.gather_rows(scores, np.arange(3))
            neg_s = ad.gather_rows(scores, np.arange(3, 6))
            return loss_absolute(pos_s, neg_s, margin=1.0)

        return m, build_loss

    def test_gradcheck_relation_relu_bn(self):
        m, build_loss = self.build_fixture()
        failures = gradcheck(build_loss, m.store.parameters())
        assert failures == [], failures[:5]

    def test_gradcheck_depth2_unrolled_tanh(self):
        m, build_loss = self.build_fixture(transition="tanh-layer", pooling="sum",
                                           depth=2, mode="unrolled", seed=7)
        failures = gradcheck(build_loss, m.store.parameters())
        assert failures == [], failures[:5]

    def test_gradcheck_max_pooling(self):
        m, build_loss = self.build_fixture(pooling="max", seed=5)
        failures = gradcheck(build_loss, m.store.parameters())
        assert failures == [], failures[:5]
