import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphkbc.autodiff import Tensor, backward, densify, gradcheck, sum_all
from graphkbc.kg import Triplet, Vocabulary, build_graph
from graphkbc.model import (
    _SEGMENT_POOL,
    DIR_HEAD,
    DIR_SELF,
    DIR_TAIL,
    GraphModel,
    InferenceError,
    NeighborSampler,
    NeighborTable,
    ObjectiveConfig,
    PropagationConfig,
    load_model,
    loss_absolute,
    loss_pairwise,
    save_model,
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


def summed_neighborhood_reference(triplets, base, depth):
    """Direct, independent implementation of the pure summation recurrence.

    Loops over the distinct raw triplets; with integer-valued inputs every
    addition is exact, so any summation order gives identical bits.
    """
    vecs = [row.copy() for row in base]
    for _ in range(depth):
        acc = [None] * len(base)
        for h, _, t in set(triplets):
            for e, nbr in ((t, h), (h, t)):
                acc[e] = vecs[nbr] if acc[e] is None else acc[e] + vecs[nbr]
        vecs = [base[e].copy() if a is None else a for e, a in enumerate(acc)]
    return vecs


def reference_records(triplets, extra=(), exclude=()):
    """Per-entity (neighbor, relation, direction) lists, one triplet at a time."""
    records = {}
    for h, r, t in list(triplets) + list(extra):
        if h not in exclude:
            records.setdefault(t, []).append((h, r, DIR_HEAD))
        if t not in exclude:
            records.setdefault(h, []).append((t, r, DIR_TAIL))
    return records


def csr_records(table, e):
    span = slice(table.indptr[e], table.indptr[e + 1])
    return list(zip(table.nbr[span].tolist(), table.rel[span].tolist(), table.dir[span].tolist()))


def transition(m, v, relation, direction=DIR_HEAD):
    """Inference-mode transition of one vector: a one-record propagation step."""
    batch = Tensor(np.asarray(v, dtype=float)[None, :])
    one = np.zeros(1, dtype=np.intp)
    step = m._step_plan(one, np.array([relation]), np.array([direction]), one, 1, 1, 0, False)
    return m._propagate_step(batch, step, training=False).data[0]


def matrix(m, layer, direction, relation=0):
    """The transition matrix of one (layer, direction, relation) group."""
    return m.A.data[int(m.group_index(layer, direction, relation))]


def score(m, h, r, t):
    return float(m.score_ids(m.plan([h], [r], [t], None)).data[0])


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
        assert np.array_equal(transition(m, v, R), v)

    def test_relu_layer_zero_matrix(self):
        m = make_model(3, 1, dim=3, transition="relu-layer")
        matrix(m, 0, DIR_HEAD)[:] = 0.0
        assert np.array_equal(transition(m, np.ones(3), R), np.zeros(3))

    def test_relation_relu_bn_inference_hand_value(self):
        m = make_model(3, 1, dim=3, transition="relation-relu-bn")
        matrix(m, 0, DIR_HEAD, R)[:] = np.eye(3)
        v = np.array([1.0, -1.0, 2.0])
        expected = np.maximum(v / np.sqrt(1.0 + 1e-5), 0.0)
        assert np.allclose(transition(m, v, R), expected, rtol=1e-12)

    def test_unknown_relation(self):
        m = make_model(3, 1, dim=3)
        with pytest.raises(IndexError, match="relation 5"):
            transition(m, np.ones(3), 5)


class TestStackedParameters:
    def test_one_tensor_per_kind(self):
        m = make_model(4, 11, dim=3, transition="relation-relu-bn", mode="stacked", depth=2)
        params = m.store.parameters()
        assert list(params) == ["entities", "relations", "A", "bn.gamma", "bn.beta"]
        assert params["A"].data.shape == (2 * 2 * 11, 3, 3)
        assert params["bn.gamma"].data.shape == (44, 3)
        assert sorted(m.store.buffers()) == ["bn.running_mean", "bn.running_var"]
        layer = make_model(4, 11, dim=3, transition="tanh-layer", mode="unrolled", depth=2)
        assert list(layer.store.parameters()) == ["entities", "relations", "A"]
        assert layer.A.data.shape == (2, 3, 3)
        for kw in (dict(transition="identity"), dict(mode="none")):
            bare = make_model(4, 11, dim=3, **kw)
            assert list(bare.store.parameters()) == ["entities", "relations"]
            assert bare.store.buffers() == {}

    def test_group_index_order(self):
        # layer-major, then head before tail, then relation
        m = make_model(4, 3, dim=2, transition="relation-relu-bn", mode="stacked", depth=2)
        groups = [(layer, d, r) for layer in range(2) for d in (DIR_HEAD, DIR_TAIL) for r in range(3)]
        layers, dirs, rels = (np.array(col) for col in zip(*groups))
        assert m.group_index(layers, dirs, rels).tolist() == list(range(12))
        tanh = make_model(4, 3, dim=2, transition="tanh-layer", mode="stacked", depth=2)
        assert tanh.group_index(1, np.array([DIR_HEAD, DIR_TAIL]), np.array([2, 0])).tolist() == [2, 3]

    def test_init_params_matches_sequential_per_group_draws(self):
        # one (G, d, d) draw equals one (d, d) draw per group in group order
        for transition, n_rel in (("relation-relu-bn", 3), ("relu-layer", 3)):
            m = make_model(5, n_rel, seed=17, dim=4, transition=transition, mode="stacked", depth=2)
            rng = np.random.default_rng(17)
            bound = 6.0 / np.sqrt(4)
            assert np.array_equal(m.entities.data, rng.uniform(-bound, bound, size=(5, 4)))
            assert np.array_equal(m.relations.data, rng.uniform(-bound, bound, size=(n_rel, 4)))
            per_direction = n_rel if transition == "relation-relu-bn" else 1
            for layer in range(2):
                for d in (DIR_HEAD, DIR_TAIL):
                    for r in range(per_direction):
                        expected = np.eye(4) + rng.normal(0.0, 0.01, size=(4, 4))
                        assert np.array_equal(matrix(m, layer, d, r), expected), (layer, d, r)


class TestPropagation:
    def test_singleton_neighbor_identity_avg(self):
        # e's only record is (h, r, e): propagated vector equals v_h
        m = make_model(3, 1, dim=4, transition="identity", pooling="avg")
        graph = build_graph([Triplet(A, R, B)])
        table = NeighborTable(3, graph.triplets)
        assert np.array_equal(propagate(m, B, table), m.entities.data[A])

    def test_two_neighbors_identity_sum(self):
        # records of e: (a, r, e) and (e, s, b) -> v_a + v_b
        m = make_model(4, 2, dim=4, transition="identity", pooling="sum")
        graph = build_graph([Triplet(A, R, C), Triplet(C, S, B)])
        table = NeighborTable(4, graph.triplets)
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
            table = NeighborTable(n, graph.triplets)
            reference = summed_neighborhood_reference(triplets, m.entities.data, depth)
            got = m.propagate_batch(np.arange(n), table).data
            for e in range(n):
                assert np.array_equal(got[e], reference[e]), (trial, e)

    def test_depth2_unrolled_equals_double_application(self):
        m = make_model(3, 1, dim=4, transition="identity", pooling="sum",
                       mode="unrolled", depth=2)
        triplets = [Triplet(A, R, B), Triplet(B, R, C)]
        table = NeighborTable(3, triplets)
        ref = summed_neighborhood_reference(triplets, m.entities.data, 2)
        for e in (A, B, C):
            assert np.array_equal(propagate(m, e, table), ref[e])

    def test_stacked_depth2_uses_one_parameter_set_per_step(self):
        # single edge a -> b; with per-step scalings 2 and 3 the two-step
        # vector of b is 3 * 2 * v0(b), while weight sharing would give 4x
        graph = build_graph([Triplet(A, R, B)])
        table = NeighborTable(2, graph.triplets)

        def run(mode):
            m = make_model(2, 1, dim=3, transition="relu-layer", pooling="avg",
                           mode=mode, depth=2)
            m.entities.data[:] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
            matrix(m, 0, DIR_HEAD)[:] = 2.0 * np.eye(3)
            matrix(m, 0, DIR_TAIL)[:] = 2.0 * np.eye(3)
            if mode == "stacked":
                matrix(m, 1, DIR_HEAD)[:] = 3.0 * np.eye(3)
                matrix(m, 1, DIR_TAIL)[:] = 3.0 * np.eye(3)
            return propagate(m, B, table)

        assert np.array_equal(run("stacked"), 6.0 * np.array([4.0, 5.0, 6.0]))
        assert np.array_equal(run("unrolled"), 4.0 * np.array([4.0, 5.0, 6.0]))

    def test_stacked_equals_unrolled_at_depth_one(self):
        graph = build_graph([Triplet(A, R, B), Triplet(B, S, C), Triplet(C, R, A)])
        outs = {}
        for mode in ("stacked", "unrolled"):
            m = make_model(3, 2, seed=9, dim=4, transition="relation-relu-bn",
                           pooling="avg", mode=mode, depth=1)
            table = NeighborTable(3, graph.triplets)
            outs[mode] = m.propagate_batch(np.arange(3), table).data
        assert np.array_equal(outs["stacked"], outs["unrolled"])

    def test_isolated_entity_falls_back_to_base(self):
        m = make_model(3, 1, dim=4, transition="relation-relu-bn", depth=2)
        graph = build_graph([Triplet(A, R, B)])
        table = NeighborTable(3, graph.triplets)
        assert np.array_equal(propagate(m, C, table), m.entities.data[C])

    def test_unknown_neighborless_entity_raises(self):
        m = make_model(3, 1, dim=4)
        graph = build_graph([Triplet(A, R, B)])
        table = NeighborTable(3, graph.triplets)
        with pytest.raises(InferenceError, match="7"):
            propagate(m, 7, table)

    def test_depth0_unknown_entity_raises(self):
        m = make_model(3, 1, dim=4, mode="none")
        with pytest.raises(InferenceError, match="entity 5 has no trained embedding"):
            m.propagate_batch(np.array([1, 5]), None)

    def test_self_record_in_a_training_batch_passes_through(self):
        # C has no records, so it is no one's neighbor and its self record
        # passes through each step; the batch without C is the reference
        graph = build_graph([Triplet(A, R, B), Triplet(B, S, D), Triplet(D, R, A), Triplet(A, S, D)])
        table = NeighborTable(5, graph.triplets)
        upstream = np.random.default_rng(4).normal(size=(4, 4))
        runs = []
        for ids, rows in (([A, B, D], [0, 1, 3]), ([A, B, C, D], [0, 1, 2, 3])):
            m = make_model(5, 2, seed=3, dim=4, transition="relation-relu-bn", pooling="max",
                           depth=2, mode="stacked")
            out = m._propagate(*m._steps(np.array(ids), table, True), True)
            backward(sum_all(out * upstream[rows]))
            runs.append((m, out.data))
        (ref, ref_out), (m, out) = runs
        assert out[2].tobytes() == m.entities.data[C].tobytes()
        assert out[[0, 1, 3]].tobytes() == ref_out.tobytes()
        assert m.bn.running_mean.tobytes() == ref.bn.running_mean.tobytes()
        assert m.bn.running_var.tobytes() == ref.bn.running_var.tobytes()
        grad, ref_grad = densify(m.entities.grad), densify(ref.entities.grad)
        assert grad[C].tobytes() == upstream[2].tobytes()
        others = [A, B, D, E]
        assert grad[others].tobytes() == ref_grad[others].tobytes()
        for name in ("A", "bn.gamma", "bn.beta"):
            assert m.store.param(name).grad.tobytes() == ref.store.param(name).grad.tobytes()

    def test_a_plan_trains(self):
        # a plan is a training minibatch's: its max-pooled scores keep their
        # winners for the backward, and batch statistics move the running ones
        graph = build_graph([Triplet(A, R, B), Triplet(B, S, D), Triplet(D, R, A), Triplet(A, S, D)])
        m = make_model(5, 2, seed=3, dim=4, transition="relation-relu-bn", pooling="max")
        mean, var = m.bn.running_mean.copy(), m.bn.running_var.copy()
        plan = m.plan([A, B, D], [R, S, R], [B, D, A], NeighborTable(5, graph.triplets))
        backward(sum_all(m.score_ids(plan)))
        assert np.abs(m.A.grad).sum() > 0
        assert not np.array_equal(m.bn.running_mean, mean)
        assert not np.array_equal(m.bn.running_var, var)

    def test_deterministic_when_cap_covers_degree(self):
        graph = build_graph([Triplet(A, R, C), Triplet(B, R, C), Triplet(C, S, D)])
        m = make_model(5, 2, dim=4, neighbor_cap=64)
        table = NeighborTable(5, graph.triplets)
        a = propagate(m, C, NeighborSampler(table, 64, seed=1))
        b = propagate(m, C, NeighborSampler(table, 64, seed=2))
        assert np.array_equal(a, b)

    def test_cap_subsamples_without_replacement(self):
        triplets = [Triplet(i, R, 9) for i in range(9)]
        graph = build_graph(triplets)
        table = NeighborTable(10, graph.triplets)
        sampler = NeighborSampler(table, 4, seed=3)
        # the same draw, made independently: record i of entity 9 is neighbor i
        picked = np.sort(np.random.default_rng(3).choice(9, size=4, replace=False))
        assert csr_records(sampler, 9) == [(i, R, DIR_HEAD) for i in picked.tolist()]
        assert all(csr_records(sampler, e) == [(9, R, DIR_TAIL)] for e in range(9))
        m = make_model(10, 1, dim=3, transition="identity", pooling="sum", neighbor_cap=4)
        out = propagate(m, 9, sampler)
        assert np.allclose(out, m.entities.data[picked].sum(axis=0))

    def test_sampler_within_cap_equals_its_table(self):
        triplets = [Triplet(A, R, C), Triplet(B, R, C), Triplet(C, S, D), Triplet(D, S, D)]
        table = NeighborTable(5, triplets)
        sampler = NeighborSampler(table, 3, seed=4)
        for name in ("indptr", "nbr", "rel", "dir"):
            assert np.array_equal(getattr(sampler, name), getattr(table, name)), name

    def test_over_cap_without_sampler_is_an_error(self):
        triplets = [Triplet(i, R, 9) for i in range(9)]
        table = NeighborTable(10, triplets)
        m = make_model(10, 1, dim=3, neighbor_cap=4)
        with pytest.raises(ValueError, match="Sampler"):
            propagate(m, 9, table)


@given(
    triplets=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), st.integers(0, 7)),
                      max_size=25),
    extra=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2), st.integers(0, 9)),
                   max_size=10),
    exclude=st.lists(st.integers(0, 9), max_size=4, unique=True).map(sorted),
)
def test_neighbor_table_matches_per_triplet_loop(triplets, extra, exclude):
    # duplicates and self-loops stay in the table; ids 6..9 lie past n_entities.
    # From base 65,530 the ids pass 2**16, so the owners take two radix passes
    for base in (0, 65_530):
        def shift(rows):
            return [(h + base, r, t + base) for h, r, t in rows]
        rows, aux, dropped = shift(triplets), shift(extra), [e + base for e in exclude]
        table = NeighborTable(6 + base, [Triplet(*t) for t in rows], extra=aux, exclude=dropped)
        reference = reference_records(rows, aux, dropped)
        named = [e for h, _, t in rows + aux for e in (h, t)]
        assert len(table.indptr) - 1 == max([6 + base] + [e + 1 for e in named])
        assert table.indptr[base] == 0  # no id below base has records
        for e in range(base, len(table.indptr) - 1):
            assert csr_records(table, e) == reference.get(e, []), (base, e)
        assert table.degrees(np.array([99 + base])).tolist() == [0]


def test_neighbor_records_match_per_entity_loop():
    # an entity over the cap keeps the sampler's draw: one rng.choice per
    # over-cap entity in ascending id order, sorted back into record order
    rng = np.random.default_rng(11)
    cap = 3
    for trial in range(30):
        n = int(rng.integers(4, 12))
        triplets = [(int(rng.integers(n - 1)), int(rng.integers(2)), int(rng.integers(n - 1)))
                    for _ in range(int(rng.integers(1, 4 * n)))]
        table = NeighborTable(n, triplets)
        seed = int(rng.integers(1000))
        sampler = NeighborSampler(table, cap, seed=seed)
        m = make_model(n, 2, dim=2, neighbor_cap=cap)
        ids = rng.permutation(n)  # entity n - 1 has no records: the self fallback
        records = reference_records(triplets)
        draws = np.random.default_rng(seed)
        picks = {}
        for e in sorted(records):
            if len(records[e]) > cap:
                picks[e] = np.sort(draws.choice(len(records[e]), size=cap, replace=False))
        capped = {e: [recs[i] for i in picks[e]] if e in picks else recs
                  for e, recs in records.items()}
        for e in range(n):
            assert csr_records(sampler, e) == capped.get(e, []), (trial, e)
        expected = []
        for seg, e in enumerate(ids.tolist()):
            expected += [(*rec, seg) for rec in capped.get(e, [(e, -1, DIR_SELF)])]
        got = m.neighbor_records(ids, sampler)
        assert list(zip(*(col.tolist() for col in got))) == expected, trial


class TestScore:
    def test_exact_translation_scores_zero(self):
        m = make_model(2, 1, dim=2, mode="none")
        m.entities.data[:] = [[0.0, 0.0], [1.0, 1.0]]
        m.relations.data[:] = [[1.0, 1.0]]
        assert score(m, 0, 0, 1) == 0.0

    def test_l1_and_l2_hand_values(self):
        for norm_p, expected in ((1, 2.0), (2, np.sqrt(2.0))):
            m = make_model(2, 1, dim=2, mode="none", norm_p=norm_p)
            m.entities.data[:] = [[1.0, 0.0], [0.0, 0.0]]
            m.relations.data[:] = [[0.0, 1.0]]
            assert score(m, 0, 0, 1) == pytest.approx(expected)

    def test_score_is_nonnegative(self):
        rng = np.random.default_rng(0)
        m = make_model(6, 2, dim=5, mode="none")
        for _ in range(20):
            h, t = rng.integers(6, size=2)
            r = rng.integers(2)
            assert score(m, h, r, t) >= 0.0


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
        table = NeighborTable(5, graph.triplets)
        pos = np.array([[A, R, B], [B, S, C], [C, R, D]])
        neg = np.array([[A, R, C], [E, S, C], [C, R, A]])
        both = np.concatenate([pos, neg])

        def build_loss():
            from graphkbc import autodiff as ad
            scores = m.score_ids(m.plan(both[:, 0], both[:, 1], both[:, 2], table))
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


def _training_step(pooling):
    """The benchmark's model (relation-relu-bn) on a mid-size graph: its first step and input."""
    rng = np.random.default_rng(3)
    triplets = np.stack([rng.integers(0, 2000, 8000), rng.integers(0, 11, 8000),
                         rng.integers(0, 2000, 8000)], axis=1)
    m = make_model(2000, 11, dim=32, pooling=pooling, neighbor_cap=16)
    table = NeighborSampler(NeighborTable(2000, triplets), 16, seed=0)
    batch = triplets[:500]
    plan = m.plan(batch[:, 0], batch[:, 1], batch[:, 2], table)
    return m, plan.steps[0], Tensor(m.entities.data[plan.base], requires_grad=True)


def test_a_training_step_holds_one_record_sized_array_and_the_winners():
    # with max pooling, after the forward, the step keeps its normalized rows
    # for the backward and the winning rank of each (target, feature), and
    # returns the pooled vectors; the gathered and transformed records are freed
    import tracemalloc

    m, step, prev = _training_step("max")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = m._propagate_step(prev, step, training=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (gather, _), (_, _, n_targets, _) = step["gather"], step["pool"]
    record_bytes = len(gather) * 32 * 8
    assert record_bytes > 1 << 20 and len(gather) > 4 * n_targets
    winners = n_targets * 32  # one byte per rank: no target has more than 16 records
    assert held <= record_bytes + winners + out.data.nbytes + (64 << 10)


@pytest.mark.parametrize("pooling", ["sum", "avg", "max"])
def test_a_training_steps_backward_allocates_no_second_record_sized_array(pooling):
    # the backward writes the records' gradient over the kept normalized rows
    # and builds each group's share of the pooled gradient in a buffer of one
    # group's size; besides those, it allocates the input's gradient
    import tracemalloc

    m, step, prev = _training_step(pooling)
    loss = sum_all(m._propagate_step(prev, step, training=True))
    record_bytes = len(step["gather"][0]) * 32 * 8
    assert record_bytes > 1 << 20 and prev.data.nbytes < record_bytes / 3
    tracemalloc.start()
    try:
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * record_bytes


def _filled_model(seed, adam_t):
    m = make_model(3, 1, seed=seed, dim=4)
    rng = np.random.default_rng(seed)
    for moments in m.store._moments.values():
        for array in moments:
            array[...] = rng.random(array.shape)
    m.store.adam_t = adam_t
    return m


@pytest.mark.parametrize("fault", ["manifest", "swap"])
def test_interrupted_bundle_overwrite_never_mixes_states(tmp_path, monkeypatch, fault):
    # both bundles share one layout, so a blob of the new state under the
    # manifest of the old one would pass the size check; the load must give
    # the old state bit for bit, or fail as a data error
    from graphkbc import nn
    from graphkbc.cli import EXIT_DATA, main

    ev, rv = Vocabulary(["a", "b", "c"]), Vocabulary(["r"])
    old, new = _filled_model(1, adam_t=7), _filled_model(2, adam_t=9)
    bundle = tmp_path / "bundle"
    save_model(old, bundle, ev, rv)
    if fault == "manifest":  # fail after params.bin is written, before manifest.json
        def failing_open(path, mode="r", *args, **kwargs):
            if str(path).endswith("manifest.json") and "w" in mode:
                raise OSError("no space left on device")
            return open(path, mode, *args, **kwargs)
        monkeypatch.setattr(nn, "open", failing_open, raising=False)
    else:  # fail moving the finished bundle into place
        replace = os.replace

        def failing_replace(src, dst):
            if str(src).endswith(".partial"):
                raise OSError("interrupted")
            return replace(src, dst)
        monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_model(new, bundle, ev, rv)
    monkeypatch.undo()

    if fault == "swap":  # a well-formed eval, which reads the checkpoint first
        train, labeled = tmp_path / "train.txt", tmp_path / "labeled.txt"
        train.write_text("a\tr\tb\n")
        labeled.write_text("a\tr\tb\t1\nb\tr\ta\t-1\n")
        assert main(["eval", "--checkpoint", str(bundle), "--out", str(tmp_path / "e"),
                     "--train", str(train), "--valid", str(labeled), "--test", str(labeled)]) \
            == EXIT_DATA
        return
    loaded = load_model(bundle)[0].store
    assert loaded.adam_t == 7
    for name, p in old.store.parameters().items():
        assert np.array_equal(loaded.param(name).data, p.data), name
        for got, want in zip(loaded._moments[name], old.store._moments[name]):
            assert np.array_equal(got, want), name
    for name, b in old.store.buffers().items():
        assert np.array_equal(loaded.buffer(name), b), name
