"""End-to-end runs on the synthetic grid corpus: split, train, evaluate.

Toy-scale caveat observed while building these fixtures: with generous
capacity the per-relation transitions can memorize the handful of training
entities instead of learning systematic structure, and the composed vectors
of held-out entities then land nowhere useful even though training scores
separate perfectly. Small dimensions avoid that here; at benchmark scale
(tens of thousands of entities) memorization is not an option.
"""

import numpy as np
import pytest

from graphkbc.evaluate import (
    OokbContext,
    evaluate_ookb,
    evaluate_standard,
    ookb_vector,
)
from graphkbc.kg import build_graph
from graphkbc.model import ObjectiveConfig, PropagationConfig, build_table
from graphkbc.ookb import generate
from graphkbc.trainer import TrainConfig, init_model, train

from synthetic_corpus import grid_corpus


@pytest.fixture(scope="module")
def grid_split():
    train_triplets, valid, test, ev, rv = grid_corpus()
    split = generate(train_triplets, valid, test, len(test), "tail")
    assert split.stats.ookb_entities == 2
    assert split.stats.discarded_triplets == 0  # held entities are not adjacent
    assert split.check() == []
    return split, ev, rv


@pytest.fixture(scope="module")
def trained_models(grid_split):
    split, ev, rv = grid_split
    objective = ObjectiveConfig(objective="absolute", margin=2.0)
    cfg = TrainConfig(epochs=300, minibatch_size=512, seed=0, alpha2=0.003)

    proposed = init_model(len(ev), len(rv),
                          PropagationConfig(dim=4, depth=1, mode="unrolled",
                                            pooling="avg", transition="identity"),
                          cfg.seed)
    list(train(split.train, proposed, cfg, objective))

    baseline = init_model(len(ev), len(rv),
                          PropagationConfig(dim=16, mode="none"), cfg.seed)
    list(train(split.train, baseline, cfg, objective))
    return split, proposed, baseline


class TestOokbPipeline:
    def test_proposed_model_classifies_held_out_entities(self, trained_models):
        split, proposed, baseline = trained_models
        report, _ = evaluate_ookb(split, proposed, method="proposed")
        assert report["n_test"] == len(split.test)
        assert report["method"] == "proposed"
        assert report["pooling"] == "avg"
        assert report["accuracy"] >= 0.7

    def test_baseline_classifies_held_out_entities(self, trained_models):
        split, proposed, baseline = trained_models
        report, _ = evaluate_ookb(split, baseline, method="baseline", pooling="avg")
        assert report["accuracy"] >= 0.9

    def test_reports_are_deterministic(self, trained_models):
        split, proposed, baseline = trained_models
        a, _ = evaluate_ookb(split, proposed, method="proposed", sampler_seed=1)
        b, _ = evaluate_ookb(split, proposed, method="proposed", sampler_seed=2)
        assert a == b  # all degrees are below the cap, so the seed is unused

    def test_standard_protocol_on_kept_graph(self, trained_models):
        # the exactly-fittable translation model separates the kept edges
        split, proposed, baseline = trained_models
        half = len(split.validation) // 2
        report, _ = evaluate_standard(split.train, split.validation[:half],
                                      split.validation[half:], baseline)
        assert report["accuracy"] >= 0.9


@pytest.fixture(scope="module")
def bridged(grid_split):
    """Aux triplets folded back into training; the held entities are trained."""
    split, ev, rv = grid_split
    merged = build_graph(list(split.train.triplets) + list(split.aux))
    objective = ObjectiveConfig(objective="absolute", margin=2.0)
    cfg = TrainConfig(epochs=300, minibatch_size=512, seed=3, alpha2=0.003)
    model = init_model(len(ev), len(rv),
                       PropagationConfig(dim=16, depth=1, mode="unrolled",
                                         pooling="avg", transition="relation-relu-bn"),
                       cfg.seed)
    list(train(merged, model, cfg, objective))
    return split, merged, model


class TestBridgeSanity:
    def test_composition_equals_standard_propagation(self, bridged):
        # the held entities' auxiliary records are their entire neighborhood,
        # so composing them in one batch must reproduce the batched ordinary
        # propagation of the same ids exactly
        split, merged, model = bridged
        ctx = OokbContext(split.train, list(split.aux),
                          frozenset(split.ookb_entities), model)
        table = build_table(merged, model.n_entities)
        held = np.array(sorted(split.ookb_entities))
        assert np.array_equal(ookb_vector(held, ctx), model.propagate_batch(held, table).data)

    def test_classifications_agree_between_paths(self, bridged):
        # classify the test triplets twice: everything through standard
        # propagation, and with the held entities' vectors swapped for their
        # aux-composed counterparts; predictions must coincide
        from graphkbc.evaluate import (classify, labeled_arrays, make_scorer,
                                       resolve_vectors, tune_thresholds)

        split, merged, model = bridged
        standard = OokbContext(merged, [], frozenset(), model)
        valid_triplets, _ = labeled_arrays(split.validation)
        test_triplets, _ = labeled_arrays(split.test)
        needed = np.concatenate([valid_triplets[:, ::2], test_triplets[:, ::2]])
        ids, vectors = resolve_vectors(needed, standard)
        scorer = make_scorer(model, ids, vectors)
        thresholds = tune_thresholds(split.validation, scorer)
        standard_preds = classify(test_triplets, thresholds, scorer(test_triplets))

        ctx = OokbContext(split.train, list(split.aux),
                          frozenset(split.ookb_entities), model)
        held = np.isin(ids, sorted(split.ookb_entities))
        swapped = vectors.copy()
        swapped[held] = ookb_vector(ids[held], ctx)
        scorer2 = make_scorer(model, ids, swapped)
        composed_preds = classify(test_triplets, thresholds, scorer2(test_triplets))
        assert np.array_equal(composed_preds, standard_preds)
