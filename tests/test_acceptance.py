"""Acceptance suite: one test per criterion, run with ``pytest -v``.

Criteria 1, 5, 6 and 7 evaluate against the WordNet11 benchmark files
(train.txt, dev.txt, test.txt). Those files are not redistributable here
and this environment cannot download them, so the tests skip with an
explicit message unless the files are placed under ``data/wordnet11/`` (or
a directory named by ``$GRAPHKBC_WN11_DIR``). Everything else runs
self-contained. Criteria 5-7 train real models and take minutes to hours.
"""

import os

import numpy as np
import pytest

from graphkbc import autodiff as ad
from graphkbc.checks import gradient_check_report
from graphkbc.evaluate import evaluate_ookb, evaluate_standard
from graphkbc.kg import (
    Triplet,
    Vocabulary,
    build_graph,
    entities_of,
    load_triplet_file,
    positives,
)
from graphkbc.model import (
    _SEGMENT_POOL,
    GraphModel,
    NeighborTable,
    ObjectiveConfig,
    PropagationConfig,
    loss_absolute,
    loss_pairwise,
)
from graphkbc.ookb import OokbPosition, generate
from graphkbc.trainer import (
    TrainConfig,
    compute_bernoulli_stats,
    corrupt_batch,
    head_replacement_probability,
    init_model,
    train,
)

# --------------------------------------------------------------------------
# WordNet11 plumbing

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WN11_DIR = os.environ.get("GRAPHKBC_WN11_DIR", os.path.join(_REPO_ROOT, "data", "wordnet11"))


def _wn11_files():
    train = os.path.join(WN11_DIR, "train.txt")
    test = os.path.join(WN11_DIR, "test.txt")
    for dev_name in ("dev.txt", "valid.txt"):
        dev = os.path.join(WN11_DIR, dev_name)
        if os.path.exists(dev):
            break
    return train, dev, test


def _wn11_present():
    return all(os.path.exists(p) for p in _wn11_files())


requires_wn11 = pytest.mark.skipif(
    not _wn11_present(),
    reason=(
        "WordNet11 files not found (this environment has no dataset access); "
        f"place train.txt/dev.txt/test.txt under {WN11_DIR} to run this criterion"
    ),
)


@pytest.fixture(scope="module")
def wn11():
    train_path, dev_path, test_path = _wn11_files()
    ev, rv = Vocabulary(), Vocabulary()
    train = positives(load_triplet_file(train_path, ev, rv))
    valid = load_triplet_file(dev_path, ev, rv, labeled=True)
    test = load_triplet_file(test_path, ev, rv, labeled=True)
    # dataset shape advertised by the distribution
    assert len(train) == 112_581
    graph = build_graph(train)
    assert len(entities_of(graph)) == 38_696
    assert len(np.unique(graph.triplets[:, 1])) == 11
    return train, valid, test, ev, rv


def report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


# --------------------------------------------------------------------------
# criterion 1: the nine split settings reproduce the published counts

TABLE3 = {
    # (position, n): (training, validation, ookb entities, test,
    #                 auxiliary entities, auxiliary triplets)
    ("head", 1000): (108_197, 4_613, 348, 994, 2_474, 4_352),
    ("head", 3000): (99_963, 4_184, 1_034, 2_969, 6_791, 12_376),
    ("head", 5000): (92_309, 3_845, 1_744, 4_919, 10_784, 19_625),
    ("tail", 1000): (96_968, 3_999, 942, 986, 8_191, 15_277),
    ("tail", 3000): (78_763, 3_122, 2_627, 2_880, 16_193, 31_770),
    ("tail", 5000): (67_774, 2_601, 4_011, 4_603, 20_345, 40_584),
    ("both", 1000): (93_364, 3_799, 1_238, 960, 9_899, 18_638),
    ("both", 3000): (71_097, 2_759, 3_319, 2_708, 19_218, 38_285),
    ("both", 5000): (57_601, 2_166, 4_963, 4_196, 23_792, 48_425),
}


@requires_wn11
def test_criterion_1_dataset_reproduction(wn11):
    train, valid, test, ev, rv = wn11
    mismatches = []
    for (position, n), expected in TABLE3.items():
        split = generate(train, valid, test, n, OokbPosition(position))
        got = (
            split.stats.training_triplets,
            split.stats.validation_triplets,
            split.stats.ookb_entities,
            split.stats.test_triplets,
            split.stats.auxiliary_entities,
            split.stats.auxiliary_triplets,
        )
        if got != expected:
            mismatches.append(f"{position}-{n}: got {got}, expected {expected}")
    assert mismatches == [], "\n".join(mismatches)
    report(1, "dataset reproduction, 54 counts exact")


# --------------------------------------------------------------------------
# criterion 2: gradients match central finite differences at 1e-4

def test_criterion_2_gradient_correctness():
    ok, failures = gradient_check_report(tolerance=1e-4, seed=0)
    assert ok, failures[:5]
    report(2, "full-model gradcheck at 1e-4")


# --------------------------------------------------------------------------
# criterion 3: propagation matches the plain summation recurrence; the two
# parameter-sharing modes coincide at depth 1

def _summation_reference(triplets, base, depth):
    # one pass over the distinct raw triplets per step: each adds its head to
    # its tail's sum and its tail to its head's; a neighborless entity keeps
    # its base vector
    vecs = [row.copy() for row in base]
    for _ in range(depth):
        sums = [None] * len(base)
        for h, _, t in set(triplets):
            for e, nbr in ((t, h), (h, t)):
                sums[e] = vecs[nbr] if sums[e] is None else sums[e] + vecs[nbr]
        vecs = [base[e].copy() if s is None else s for e, s in enumerate(sums)]
    return vecs


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        n = int(rng.integers(2, 11))
        n_rel = int(rng.integers(1, 4))
        triplets = [
            Triplet(int(rng.integers(n)), int(rng.integers(n_rel)), int(rng.integers(n)))
            for _ in range(int(rng.integers(1, 2 * n)))
        ]
        graph = build_graph(triplets)
        depth = int(rng.integers(1, 3))
        cfg = PropagationConfig(dim=5, depth=depth, mode="unrolled",
                                pooling="sum", transition="identity")
        model = GraphModel(n, n_rel, cfg)
        # integer-valued embeddings make float addition exact in any order
        model.entities.data[:] = rng.integers(-8, 9, size=(n, 5))
        table = NeighborTable(n, graph.triplets)
        reference = _summation_reference(triplets, model.entities.data, depth)
        got = model.propagate_batch(np.arange(n), table).data
        for e in range(n):
            assert np.array_equal(got[e], reference[e]), (trial, e)

    # stacked and unrolled coincide at depth 1 given identical parameters
    graph = build_graph([Triplet(0, 0, 1), Triplet(1, 1, 2), Triplet(2, 0, 0)])
    outs = {}
    for mode in ("stacked", "unrolled"):
        cfg = PropagationConfig(dim=4, depth=1, mode=mode,
                                pooling="avg", transition="relation-relu-bn")
        model = GraphModel(3, 2, cfg)
        model.init_params(np.random.default_rng(5))
        outs[mode] = model.propagate_batch(np.arange(3), NeighborTable(3, graph.triplets)).data
    assert np.array_equal(outs["stacked"], outs["unrolled"])
    report(3, "summation-form oracle, bitwise on 100 graphs")


# --------------------------------------------------------------------------
# criterion 4: objectives reproduce hand values; an exactly-fittable toy
# trains to loss < 1e-3 within 500 epochs

def test_criterion_4_objective_sanity():
    def value(fn, pos, neg, margin):
        return float(fn(ad.Tensor(np.array(pos)), ad.Tensor(np.array(neg)), margin).data)

    tau = 7.0
    assert value(loss_absolute, [0.0], [tau], tau) == 0.0
    assert value(loss_absolute, [0.0], [tau + 5.0], tau) == 0.0
    assert value(loss_absolute, [2.0], [tau - 3.0], tau) == 5.0
    assert value(loss_pairwise, [1.0], [1.0 + tau], tau) == 0.0
    assert value(loss_pairwise, [2.0], [2.0], 1.0) == 1.0
    assert value(loss_pairwise, [3.0], [1.0], 2.0) == 4.0

    # chain fixture: translations along one relation fit exactly, and every
    # possible corruption can simultaneously clear the margin
    chain = build_graph([Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(2, 0, 3)])
    cfg = TrainConfig(epochs=500, minibatch_size=1, seed=0, alpha1=0.1, alpha2=0.3)
    model = init_model(4, 1, PropagationConfig(dim=2, mode="none"), cfg.seed)
    losses = [h["loss"] for h in train(chain, model, cfg, ObjectiveConfig("absolute", 2.0))]
    assert min(losses) < 1e-3, f"best loss {min(losses):.2e}"
    report(4, "objective hand values and exact-fit convergence")


# --------------------------------------------------------------------------
# criteria 5-7: benchmark-scale training runs

def _train_model(graph, ev, rv, prop_cfg, train_cfg, objective, tag):
    model = init_model(len(ev), len(rv), prop_cfg, train_cfg.seed)
    for record in train(graph, model, train_cfg, objective):
        if record["epoch"] % 10 == 0:
            print(f"  [{tag}] epoch {record['epoch']}: loss {record['loss']:.3f}")
        assert np.isfinite(record["loss"])
    return model


@requires_wn11
def test_criterion_5_ookb_separation(wn11):
    train_triplets, valid, test, ev, rv = wn11
    split = generate(train_triplets, valid, test, 1000, OokbPosition.HEAD)
    assert split.stats.ookb_entities == 348

    objective = ObjectiveConfig(objective="absolute", margin=300.0)
    proposed_cfg = PropagationConfig(dim=100, depth=1, mode="unrolled",
                                     pooling="avg", transition="relation-relu-bn")
    proposed = _train_model(split.train, ev, rv, proposed_cfg,
                            TrainConfig(epochs=300, minibatch_size=5000, seed=0),
                            objective, "proposed")
    prop_report, _ = evaluate_ookb(split, proposed, method="proposed",
                                   dataset_name="head-1000")

    baseline_cfg = PropagationConfig(dim=100, mode="none")
    baseline = _train_model(split.train, ev, rv, baseline_cfg,
                            TrainConfig(epochs=300, minibatch_size=5000, seed=0,
                                        project_entities=True),
                            ObjectiveConfig(objective="pairwise", margin=2.0),
                            "baseline")
    base_report, _ = evaluate_ookb(split, baseline, method="baseline", pooling="avg",
                                   dataset_name="head-1000")

    print(f"  proposed-avg accuracy: {prop_report['accuracy']:.4f}")
    print(f"  baseline-avg accuracy: {base_report['accuracy']:.4f}")
    assert prop_report["accuracy"] >= 0.78
    assert prop_report["accuracy"] - base_report["accuracy"] >= 0.10
    report(5, "out-of-KB separation on head-1000")


@requires_wn11
def test_criterion_6_standard_kbc_substitute(wn11):
    # depth-0 run: the pure translation output model at d=100
    train_triplets, valid, test, ev, rv = wn11
    graph = build_graph(train_triplets)
    model = _train_model(graph, ev, rv, PropagationConfig(dim=100, mode="none"),
                         TrainConfig(epochs=300, minibatch_size=5000, seed=0),
                         ObjectiveConfig(objective="absolute", margin=300.0),
                         "transE-d100")
    result, _ = evaluate_standard(graph, valid, test, model, dataset_name="wordnet11")
    print(f"  depth-0 accuracy: {result['accuracy']:.4f}")
    assert result["accuracy"] >= 0.72
    report(6, "standard benchmark, depth-0 substitute")


@requires_wn11
def test_criterion_7_depth_study(wn11):
    train_triplets, valid, test, ev, rv = wn11
    subsample = build_graph(train_triplets[: len(train_triplets) // 10])
    kept_entities = entities_of(subsample)
    valid_sub = [lt for lt in valid
                 if lt.triplet.head in kept_entities and lt.triplet.tail in kept_entities]
    test_sub = [lt for lt in test
                if lt.triplet.head in kept_entities and lt.triplet.tail in kept_entities]

    objective = ObjectiveConfig(objective="absolute", margin=300.0)
    accuracies = {}
    for mode in ("stacked", "unrolled"):
        for depth in (1, 2, 3, 4):
            cfg = PropagationConfig(dim=50, depth=depth, mode=mode,
                                    pooling="max", transition="relation-relu-bn")
            model = _train_model(subsample, ev, rv, cfg,
                                 TrainConfig(epochs=100, minibatch_size=1024, seed=0),
                                 objective, f"{mode}-d{depth}")
            assert all(np.all(np.isfinite(p.data)) for p in model.store.parameters().values())
            result, _ = evaluate_standard(subsample, valid_sub, test_sub, model,
                                          dataset_name=f"wn11-10pct-{mode}-d{depth}")
            accuracies[(mode, depth)] = result["accuracy"]
            print(f"  {mode} depth {depth}: {result['accuracy']:.4f}")
    for mode in ("stacked", "unrolled"):
        assert abs(accuracies[(mode, 1)] - accuracies[(mode, 2)]) <= 0.02
    report(7, "depth study trains and depth-1/2 gap within 2 points")


# --------------------------------------------------------------------------
# criterion 8: pooling properties

def test_criterion_8_pooling_properties():
    def pool(vectors, kind):
        # one segment holding every vector, reduced by the op propagation runs
        rows = np.asarray(vectors, dtype=float)
        return _SEGMENT_POOL[kind](rows, np.zeros(len(rows), dtype=np.intp), 1).data[0]

    rng = np.random.default_rng(8)
    for _ in range(1000):
        size = int(rng.integers(1, 9))
        vectors = [rng.normal(size=6) for _ in range(size)]
        shuffled = [vectors[i] for i in rng.permutation(size)]
        for kind in ("sum", "avg", "max"):
            assert np.allclose(pool(vectors, kind), pool(shuffled, kind),
                               rtol=1e-12, atol=1e-12)
        assert np.all(pool(vectors, "max") >= pool(vectors, "avg") - 1e-12)
        if size == 1:
            for kind in ("sum", "avg", "max"):
                assert np.array_equal(pool(vectors, kind), vectors[0])
    singleton = [np.array([2.0, -3.0])]
    for kind in ("sum", "avg", "max"):
        assert np.array_equal(pool(singleton, kind), singleton[0])
    report(8, "pooling invariances on 1000 random sets")


# --------------------------------------------------------------------------
# criterion 9: corruption side follows the per-relation statistics

def test_criterion_9_bernoulli_sampling():
    graph = build_graph([Triplet(0, 0, 1), Triplet(0, 0, 2)])
    stats = compute_bernoulli_stats(graph)
    assert stats[0] == (2.0, 1.0)
    p = head_replacement_probability(*stats[0])
    assert p == pytest.approx(2.0 / 3.0)

    pos = np.tile(np.array([[0, 0, 1]], dtype=np.intp), (100_000, 1))
    neg = corrupt_batch(pos, np.array([p]), np.arange(6, dtype=np.intp),
                        np.random.default_rng(9))
    rate = float(np.mean(neg[:, 0] != pos[:, 0]))
    assert abs(rate - p) < 0.01, rate
    report(9, "corruption-side frequency within 0.01")
