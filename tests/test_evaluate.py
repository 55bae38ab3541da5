import numpy as np
import pytest

from graphkbc.evaluate import (
    OokbContext,
    ThresholdTable,
    baseline_ookb_vector,
    classify,
    evaluate_ookb,
    evaluate_standard,
    make_scorer,
    ookb_vector,
    propagated_vectors,
    resolve_vectors,
    tune_thresholds,
)
from graphkbc.kg import LabeledTriplet, Triplet, build_graph, labeled_arrays
from graphkbc.model import DIR_HEAD, DIR_TAIL, GraphModel, InferenceError, PropagationConfig
from graphkbc.ookb import generate

A, B, C, D, E = range(5)
R, S = 0, 1


def lt(h, r, t, label=True):
    return LabeledTriplet(Triplet(h, r, t), label)


def brute_force_threshold(scores, labels):
    """Exhaustive scan over the midpoint candidate grid (test oracle)."""
    distinct = sorted(set(scores))
    candidates = [distinct[0]]
    candidates += [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    candidates += [float("inf")]
    best_thr, best_acc = None, -1.0
    for thr in candidates:
        acc = np.mean([(s < thr) == y for s, y in zip(scores, labels)])
        if acc > best_acc:
            best_thr, best_acc = thr, acc
    return best_thr, best_acc


def fixed_scorer(mapping):
    return lambda triplets: np.array([mapping[Triplet(*t)] for t in triplets.tolist()])


class TestTuneThresholds:
    def test_separable_scores(self):
        validation = [lt(A, R, B), lt(B, R, C), lt(C, R, D, False), lt(D, R, E, False)]
        scores = {Triplet(A, R, B): 1.0, Triplet(B, R, C): 2.0,
                  Triplet(C, R, D): 5.0, Triplet(D, R, E): 6.0}
        table = tune_thresholds(*labeled_arrays(validation), fixed_scorer(scores))
        thr = table.per_relation[R]
        assert 2.0 < thr <= 5.0
        preds = [classify(lt_.triplet, table, scores[lt_.triplet]) for lt_ in validation]
        assert preds == [True, True, False, False]

    def test_all_positive_relation_gets_infinity(self):
        validation = [lt(A, R, B), lt(B, R, C), lt(A, S, C, False)]
        scores = {Triplet(A, R, B): 3.0, Triplet(B, R, C): 9.0, Triplet(A, S, C): 1.0}
        table = tune_thresholds(*labeled_arrays(validation), fixed_scorer(scores))
        assert table.per_relation[R] == np.inf

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(2, 40))
            scores = rng.normal(size=n).round(2)  # rounding forces score ties
            labels = rng.random(n) < 0.5
            validation = [lt(A, R, B, bool(y)) for y in labels]
            # distinct triplet objects are not hashable keys here; feed scores
            # positionally through a closure instead
            calls = {"i": 0}

            def scorer(triplets):
                return scores

            table = tune_thresholds(*labeled_arrays(validation), scorer)
            _, oracle_acc = brute_force_threshold(scores.tolist(), labels.tolist())
            got_acc = np.mean((scores < table.per_relation[R]) == labels)
            assert got_acc == pytest.approx(oracle_acc), trial

    def test_tie_breaks_toward_smallest(self):
        # both midpoints reach the same accuracy; take the smaller one
        validation = [lt(A, R, B), lt(B, R, C, False), lt(C, R, D)]
        scores = {Triplet(A, R, B): 1.0, Triplet(B, R, C): 2.0, Triplet(C, R, D): 3.0}
        table = tune_thresholds(*labeled_arrays(validation), fixed_scorer(scores))
        oracle_thr, oracle_acc = brute_force_threshold([1.0, 2.0, 3.0], [True, False, True])
        assert table.per_relation[R] == oracle_thr

    def test_unseen_relation_falls_back_to_global(self):
        validation = [lt(A, R, B), lt(C, R, D, False)]
        scores = {Triplet(A, R, B): 1.0, Triplet(C, R, D): 3.0}
        table = tune_thresholds(*labeled_arrays(validation), fixed_scorer(scores))
        assert table.threshold_of(S) == table.global_threshold

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            tune_thresholds(*labeled_arrays([]), fixed_scorer({}))

    def test_beats_every_global_candidate(self):
        rng = np.random.default_rng(5)
        scores_r = rng.normal(0, 1, size=20)
        scores_s = rng.normal(3, 1, size=20)
        labels = rng.random(40) < 0.5
        validation = [lt(A, R, B, bool(y)) for y in labels[:20]]
        validation += [lt(A, S, B, bool(y)) for y in labels[20:]]
        all_scores = np.concatenate([scores_r, scores_s])

        def scorer(triplets):
            return all_scores

        table = tune_thresholds(*labeled_arrays(validation), scorer)
        per_rel_acc = np.mean(
            [
                (s < table.threshold_of(v.triplet.relation)) == v.label
                for s, v in zip(all_scores, validation)
            ]
        )
        for thr in np.concatenate([all_scores, [np.inf, -np.inf]]):
            global_acc = np.mean((all_scores < thr) == labels)
            assert per_rel_acc >= global_acc


class TestClassify:
    TABLE = ThresholdTable({R: 2.0}, 1.0)

    def test_low_score_is_positive(self):
        assert classify(Triplet(A, R, B), self.TABLE, 0.0)

    def test_boundary_is_negative(self):
        assert not classify(Triplet(A, R, B), self.TABLE, 2.0)

    def test_infinite_threshold_always_positive(self):
        table = ThresholdTable({R: np.inf}, 1.0)
        assert classify(Triplet(A, R, B), table, 1e12)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            score = float(rng.normal())
            lo, hi = sorted(rng.normal(size=2))
            low_pred = classify(Triplet(A, R, B), ThresholdTable({R: lo}, 0.0), score)
            high_pred = classify(Triplet(A, R, B), ThresholdTable({R: hi}, 0.0), score)
            assert not (low_pred and not high_pred)

    def test_batch_uses_each_relations_threshold(self):
        triplets = np.array([[A, R, B], [A, S, B], [A, R, B], [A, S, B]])
        preds = classify(triplets, self.TABLE, np.array([1.5, 1.5, 2.5, 0.5]))
        assert preds.tolist() == [True, False, False, True]


def make_model(n_entities, n_relations, seed=0, **cfg_kw):
    cfg = PropagationConfig(**cfg_kw)
    m = GraphModel(n_entities, n_relations, cfg)
    m.init_params(np.random.default_rng(seed))
    return m


class TestOokbVector:
    def make_ctx(self, model, train_triplets, aux, ookb):
        return OokbContext(build_graph(train_triplets), aux, ookb, model)

    def test_single_aux_identity_avg(self):
        u = 4  # beyond the 4 trained rows: no base embedding exists for u
        m = make_model(4, 2, dim=3, transition="identity", pooling="avg")
        ctx = self.make_ctx(m, [Triplet(A, R, B)], [Triplet(B, R, u)], [u])
        assert np.array_equal(ookb_vector(np.array([u]), ctx), m.entities.data[[B]])

    def test_two_aux_identity_avg_is_mean(self):
        u = 4
        m = make_model(4, 2, dim=3, transition="identity", pooling="avg")
        ctx = self.make_ctx(m, [Triplet(A, R, B)], [Triplet(B, R, u), Triplet(u, S, C)], [u])
        expected = (m.entities.data[B] + m.entities.data[C]) / 2.0
        assert np.allclose(ookb_vector(np.array([u]), ctx)[0], expected)

    def test_matches_independent_forward_pass(self):
        # reference path: explicit per-record matrix-vector product, running-
        # statistics normalization, relu, then pooling
        u = 4
        m = make_model(4, 2, seed=3, dim=5, transition="relation-relu-bn", pooling="avg")
        store = m.store
        rmean, rvar = store.buffer("bn.running_mean"), store.buffer("bn.running_var")
        stats_rng = np.random.default_rng(1)
        for direction in (DIR_HEAD, DIR_TAIL):
            for r in (R, S):
                g = int(m.group_index(0, direction, r))
                rmean[g] = stats_rng.normal(size=5) * 0.1
                rvar[g] = 1.0 + stats_rng.random(5)
        aux = [Triplet(B, R, u), Triplet(u, S, C), Triplet(A, R, u)]
        ctx = self.make_ctx(m, [Triplet(A, R, B)], aux, [u])

        def reference():
            contribs = []
            for h, r, t in aux:
                if t == u:  # neighbor h arrives head-side
                    vec, direction, rel = m.entities.data[h], DIR_HEAD, r
                else:  # neighbor t arrives tail-side
                    vec, direction, rel = m.entities.data[t], DIR_TAIL, r
                g = int(m.group_index(0, direction, rel))
                x = m.A.data[g] @ vec
                x = (x - rmean[g]) / np.sqrt(rvar[g] + 1e-5)
                x = x * store.param("bn.gamma").data[g]
                x = x + store.param("bn.beta").data[g]
                contribs.append(np.maximum(x, 0.0))
            return np.mean(contribs, axis=0)

        assert np.allclose(ookb_vector(np.array([u]), ctx)[0], reference(),
                           rtol=1e-12, atol=1e-12)

    def test_never_touches_missing_base_row(self):
        u = 4
        m = make_model(4, 2, dim=3, transition="relation-relu-bn", pooling="max")
        before = m.entities.data.copy()
        ctx = self.make_ctx(m, [Triplet(A, R, B)], [Triplet(B, R, u)], [u])
        ookb_vector(np.array([u]), ctx)
        assert np.array_equal(m.entities.data, before)

    def test_no_aux_is_an_error(self):
        u = 4
        m = make_model(4, 2, dim=3)
        ctx = self.make_ctx(m, [Triplet(A, R, B)], [Triplet(B, R, u)], [u, 5])
        with pytest.raises(InferenceError, match="no auxiliary"):
            ookb_vector(np.array([u, 5]), ctx)

    def test_aux_rule_validated(self):
        m = make_model(4, 2, dim=3)
        with pytest.raises(InferenceError, match="exactly one"):
            self.make_ctx(m, [Triplet(A, R, B)], [Triplet(A, R, B)], [4])

    def test_batch_matches_single_entities(self):
        # composing several OOKB entities in one batch (depth 2, shared
        # neighbors) gives each entity the vector it gets on its own
        m = make_model(6, 2, seed=4, dim=5, depth=2, mode="stacked", pooling="max")
        train = [Triplet(A, R, B), Triplet(B, S, C), Triplet(C, R, D), Triplet(D, S, A)]
        aux = [Triplet(B, R, 4), Triplet(4, S, C), Triplet(C, R, 5), Triplet(5, R, A),
               Triplet(D, S, 5)]
        ctx = self.make_ctx(m, train, aux, [4, 5])
        batch = ookb_vector(np.array([4, 5]), ctx)
        for row, u in zip(batch, (4, 5)):
            assert np.allclose(row, ookb_vector(np.array([u]), ctx)[0], rtol=0, atol=1e-12)


class TestBaselineVector:
    def test_single_aux_equals_implied_position(self):
        u = 4
        m = make_model(4, 2, dim=3, mode="none")
        ctx = OokbContext(build_graph([Triplet(A, R, B)]), [Triplet(B, R, u)],
                          [u], m)
        expected = m.entities.data[B] + m.relations.data[R]
        for pooling in ("sum", "avg", "max"):
            assert np.allclose(baseline_ookb_vector(np.array([u]), ctx, pooling)[0], expected)

    def test_two_aux_average(self):
        u = 4
        m = make_model(4, 2, dim=3, mode="none")
        aux = [Triplet(B, R, u), Triplet(u, S, C)]
        ctx = OokbContext(build_graph([Triplet(A, R, B)]), aux, [u], m)
        expected = (
            (m.entities.data[B] + m.relations.data[R])
            + (m.entities.data[C] - m.relations.data[S])
        ) / 2.0
        assert np.allclose(baseline_ookb_vector(np.array([u]), ctx, "avg")[0], expected)

    def test_raw_neighbor_variant(self):
        u = 4
        m = make_model(4, 2, dim=3, mode="none")
        aux = [Triplet(B, R, u), Triplet(u, S, C)]
        ctx = OokbContext(build_graph([Triplet(A, R, B)]), aux, [u], m)
        expected = (m.entities.data[B] + m.entities.data[C]) / 2.0
        got = baseline_ookb_vector(np.array([u]), ctx, "avg", raw_neighbors=True)
        assert np.allclose(got[0], expected)

    def test_batch_pools_each_entity_separately(self):
        u, w = 4, 5
        m = make_model(4, 2, dim=3, mode="none")
        aux = [Triplet(B, R, u), Triplet(u, S, C), Triplet(A, S, w)]
        ctx = OokbContext(build_graph([Triplet(A, R, B)]), aux, [u, w], m)
        ent, rel = m.entities.data, m.relations.data
        expected = [np.maximum(ent[B] + rel[R], ent[C] - rel[S]), ent[A] + rel[S]]
        assert np.array_equal(baseline_ookb_vector(np.array([u, w]), ctx, "max"), expected)

    def test_exactly_fitted_model_scores_zero_on_aux(self):
        # construct an exact translation embedding: v_i = i * e1, r = e1
        u = 4
        m = make_model(5, 1, dim=3, mode="none")
        m.entities.data[:] = 0.0
        m.entities.data[:, 0] = np.arange(5)
        m.relations.data[:] = 0.0
        m.relations.data[0, 0] = 1.0
        aux = [Triplet(3, R, u)]  # implies v_u = 4 * e1
        ctx = OokbContext(build_graph([Triplet(0, R, 1)]), aux, [u], m)
        ids, vectors = resolve_vectors([3, u], ctx, method="baseline", pooling="avg")
        assert make_scorer(m, ids, vectors)([Triplet(3, R, u)]).tolist() == [0.0]


class TestEvaluateFlows:
    def exact_line_model(self):
        # entities on a line, one relation stepping right: (i, r, i+1) holds
        m = make_model(6, 1, dim=2, mode="none")
        m.entities.data[:] = 0.0
        m.entities.data[:, 0] = np.arange(6)
        m.relations.data[:] = [[1.0, 0.0]]
        return m

    def test_standard_evaluation_separable(self):
        m = self.exact_line_model()
        graph = build_graph([Triplet(i, R, i + 1) for i in range(4)])
        validation = [lt(0, R, 1), lt(1, R, 2), lt(0, R, 3, False), lt(3, R, 1, False)]
        test = [lt(2, R, 3), lt(3, R, 4), lt(4, R, 2, False), lt(1, R, 4, False)]
        report, thresholds = evaluate_standard(graph, validation, test, m)
        assert report["accuracy"] == 1.0
        assert report["n_test"] == 4
        assert thresholds.per_relation[R] > 0.0

    def test_ookb_evaluation_proposed_vs_baseline_on_exact_fixture(self):
        # OOKB entity 5 hangs off entity 4; identity-avg propagation composes
        # v_5 = v_4, while the baseline composes the implied position v_4 + r
        train = [Triplet(i, R, i + 1) for i in range(4)]
        test_file = [lt(4, R, 5), lt(2, R, 5, False)]
        valid_file = [lt(0, R, 1), lt(2, R, 1, False)]
        split = generate(train + [Triplet(4, R, 5)], valid_file, test_file, 2, "tail")
        assert split.ookb_entities.tolist() == [5]

        baseline_model = self.exact_line_model()
        report, _ = evaluate_ookb(split, baseline_model, method="baseline", pooling="avg")
        assert report["accuracy"] == 1.0
        assert report["method"] == "baseline"

        prop = make_model(6, 1, dim=2, transition="identity", pooling="avg", depth=1)
        prop.entities.data[:] = baseline_model.entities.data
        prop.relations.data[:] = baseline_model.relations.data
        report2, _ = evaluate_ookb(split, prop, method="proposed")
        assert report2["pooling"] == "avg"
        assert 0.0 <= report2["accuracy"] <= 1.0

    def test_empty_test_set_is_an_error(self):
        m = self.exact_line_model()
        # the single test head never occurs in training, so no candidate
        # survives and every test triplet is OOKB-free (hence removed)
        split = generate([Triplet(0, R, 1)], [lt(0, R, 1)], [lt(3, R, 1)], 1, "head")
        assert split.test == []
        with pytest.raises(ValueError, match="empty test"):
            evaluate_ookb(split, m, method="baseline", pooling="avg")

    def test_propagated_vectors_cover_requested_ids(self):
        m = make_model(4, 1, dim=3, mode="none")
        ctx = OokbContext(build_graph([Triplet(0, R, 1)]), [], [], m)
        ids, vectors = resolve_vectors([0, 2, 2, 3], ctx)
        assert ids.tolist() == [0, 2, 3]
        assert np.array_equal(vectors, m.entities.data[[0, 2, 3]])
        scorer = make_scorer(m, ids, vectors)
        scores = scorer([Triplet(0, R, 2), Triplet(3, R, 3)])
        assert scores.shape == (2,)
        assert scores[1] == np.abs(m.relations.data[R]).sum()

    def test_propagated_vectors_span_batches(self):
        # 1,500 ids take two 1024-id batches; each row is its entity's vector
        n = 1500
        m = make_model(n, 2, seed=5, dim=4, pooling="avg")
        ring = [Triplet(e, e % 2, (e + 1) % n) for e in range(n)]
        ctx = OokbContext(build_graph(ring), [], [], m)
        ids = np.arange(n)
        whole = m.propagate_batch(ids, ctx.table).data
        assert np.allclose(propagated_vectors(ids, ctx), whole, rtol=1e-12, atol=1e-12)
