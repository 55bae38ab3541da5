import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphkbc.kg import (
    LabeledTriplet,
    Triplet,
    Vocabulary,
    build_graph,
    labeled_arrays,
    load_triplet_file,
    triplet_array,
)
from graphkbc.ookb import (
    OokbPosition,
    OokbSplit,
    choose_candidates,
    filter_eval_sets,
    finalize_ookb,
    generate,
    split_name,
    split_training,
    write_split,
)

A, B, C, D, E = range(5)
R, S = 0, 1


def lt(h, r, t, label=True):
    return LabeledTriplet(Triplet(h, r, t), label)


def rows(*triplets):
    return np.array(triplets, dtype=np.intp).reshape(-1, 3)


class TestChooseCandidates:
    TEST_ROWS = rows((A, R, B), (C, R, D))

    def test_head(self):
        assert choose_candidates(self.TEST_ROWS, 2, OokbPosition.HEAD).tolist() == [A, C]

    def test_both(self):
        assert choose_candidates(self.TEST_ROWS, 2, OokbPosition.BOTH).tolist() == [A, B, C, D]

    def test_prefix_only(self):
        assert choose_candidates(self.TEST_ROWS, 1, OokbPosition.TAIL).tolist() == [B]

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            choose_candidates(self.TEST_ROWS, 3, OokbPosition.HEAD)


class TestFinalize:
    def test_connected_candidate_kept(self):
        assert finalize_ookb(np.array([A]), rows((A, R, B))).tolist() == [A]

    def test_candidate_pair_dropped(self):
        assert finalize_ookb(np.array([A, B]), rows((A, R, B))).tolist() == []

    def test_self_loop_does_not_qualify(self):
        assert finalize_ookb(np.array([A]), rows((A, R, A))).tolist() == []


class TestSplitTraining:
    def test_empty_ookb_is_identity(self):
        train = rows((A, R, B), (B, S, C))
        kept, aux, discarded = split_training(train, np.array([], dtype=np.intp))
        assert (kept.tolist(), aux.tolist(), discarded.tolist()) == (train.tolist(), [], [])

    def test_double_ookb_discarded(self):
        kept, aux, discarded = split_training(rows((A, R, B)), np.array([A, B]))
        assert (kept.tolist(), aux.tolist(), discarded.tolist()) == ([], [], [[A, R, B]])

    def test_three_way_partition(self):
        train = rows((A, R, B), (B, S, C), (A, R, C), (D, R, E))
        kept, aux, discarded = split_training(train, np.array([A, C]))
        assert kept.tolist() == [[D, R, E]]
        assert aux.tolist() == [[A, R, B], [B, S, C]]
        assert discarded.tolist() == [[A, R, C]]


class TestFilterEvalSets:
    def test_empty_ookb(self):
        test, valid = filter_eval_sets(rows((A, R, B)), rows((C, R, D)), 1,
                                       np.array([], dtype=np.intp))
        assert (test.tolist(), valid.tolist()) == ([False], [True])

    def test_masks_over_prefix_and_whole_validation(self):
        test, valid = filter_eval_sets(rows((A, R, B), (C, R, D), (A, S, C)),
                                       rows((C, R, D), (A, R, D)), 2, np.array([A]))
        assert test.tolist() == [True, False]
        assert valid.tolist() == [True, False]

    def test_labels_preserved(self):
        # generate picks the chosen lines out of the labeled inputs
        test_file = [lt(A, R, B, label=False), lt(C, R, D)]
        valid_file = [lt(C, R, D), lt(A, R, D, label=False), lt(D, S, C, label=False)]
        split = generate([Triplet(A, R, B)], valid_file, test_file, 2, OokbPosition.HEAD)
        assert split.test == [lt(A, R, B, label=False)]
        assert split.validation == [lt(C, R, D), lt(D, S, C, label=False)]

    def test_n_too_large(self):
        with pytest.raises(ValueError):
            filter_eval_sets(rows((A, R, B)), rows(), 2, np.array([A]))


class TestGenerate:
    # hand-enumerated toy corpus: candidates from test heads {A, D};
    # A has the training neighbor B outside the candidates, D has none.
    TRAIN = [Triplet(A, R, B), Triplet(B, S, C), Triplet(C, R, D), Triplet(A, S, D)]
    VALID = [lt(B, R, C), lt(A, R, C, label=False)]
    TEST = [lt(A, R, C), lt(D, S, B, label=False)]

    def test_toy_corpus_hand_enumeration(self):
        split = generate(self.TRAIN, self.VALID, self.TEST, 2, OokbPosition.HEAD)
        # candidates {A, D}; (A,R,B) qualifies A; (C,R,D) qualifies D;
        # (A,S,D) qualifies neither (both endpoints are candidates).
        assert split.ookb_entities.tolist() == [A, D]
        assert split.train.triplets.tolist() == [[B, S, C]]
        assert split.aux == [Triplet(A, R, B), Triplet(C, R, D)]
        assert split.test == self.TEST  # both touch an OOKB entity
        assert split.validation == [lt(B, R, C)]
        st = split.stats
        assert st.training_triplets == 1
        assert st.auxiliary_triplets == 2
        assert st.discarded_triplets == 1
        assert st.ookb_entities == 2
        assert st.auxiliary_entities == 2  # B and C
        assert st.auxiliary_entities_total == 4
        assert split.check() == []

    def test_partition_property(self):
        split = generate(self.TRAIN, self.VALID, self.TEST, 2, OokbPosition.HEAD)
        total = (
            split.stats.training_triplets
            + split.stats.auxiliary_triplets
            + split.stats.discarded_triplets
        )
        assert total == len(self.TRAIN)

    def test_determinism(self):
        a = generate(self.TRAIN, self.VALID, self.TEST, 2, OokbPosition.BOTH)
        b = generate(self.TRAIN, self.VALID, self.TEST, 2, OokbPosition.BOTH)
        assert a.ookb_entities.tolist() == b.ookb_entities.tolist()
        assert a.aux == b.aux
        assert a.train.triplets.tolist() == b.train.triplets.tolist()


@settings(max_examples=50)
@given(
    train=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 1), st.integers(0, 9)), max_size=30),
    test=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 1), st.integers(0, 9), st.booleans()),
        min_size=1,
        max_size=20,
    ),
    position=st.sampled_from(list(OokbPosition)),
)
def test_generate_properties(train, test, position):
    train = [Triplet(*t) for t in train]
    test_file = [lt(h, r, t, label) for h, r, t, label in test]
    train_rows, test_rows = triplet_array(train), labeled_arrays(test_file)[0]
    sizes = sorted({1, max(1, len(test_file) // 2), len(test_file)})
    candidate_sets = [choose_candidates(test_rows, n, position) for n in sizes]
    for small, big in zip(candidate_sets, candidate_sets[1:]):
        assert np.isin(small, big).all()  # prefix monotonicity
    ookb = finalize_ookb(candidate_sets[-1], train_rows)
    kept, aux, discarded = split_training(train_rows, ookb)
    assert len(kept) + len(aux) + len(discarded) == len(train)
    split = generate(train, test_file[::2], test_file, sizes[-1], position)
    assert split.check() == []
    assert split.ookb_entities.dtype == np.intp
    assert np.all(np.diff(split.ookb_entities) > 0)

    # the written files read back to the same rows, labels and OOKB names,
    # empty parts included
    ev = Vocabulary(f"e{i}" for i in range(10))
    rv = Vocabulary(["r", "s"])
    with tempfile.TemporaryDirectory() as out:
        paths = write_split(split, out, "p", ev, rv)

        def read(key, labeled=False):
            return labeled_arrays(load_triplet_file(paths[key], ev, rv, labeled=labeled))

        assert np.array_equal(read("train")[0], split.train.triplets)
        assert np.array_equal(read("aux")[0], triplet_array(split.aux))
        for key, part in (("valid", split.validation), ("test", split.test)):
            got, want = read(key, labeled=True), labeled_arrays(part)
            assert got[0].dtype == np.intp and got[1].dtype == bool
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        with open(paths["ookb"], encoding="utf-8") as fh:
            assert fh.read().split() == [ev.names[e] for e in split.ookb_entities]
    assert len(ev) == 10 and len(rv) == 2  # every name read back was already known


def test_write_split_round_trips(tmp_path):
    ev = Vocabulary(["a", "b", "c", "d", "e"])
    rv = Vocabulary(["r", "s"])
    split = generate(TestGenerate.TRAIN, TestGenerate.VALID, TestGenerate.TEST, 2, "head")
    name = split_name("head", 2)
    assert name == "head-2"
    paths = write_split(split, tmp_path, name, ev, rv)
    ev2, rv2 = Vocabulary(), Vocabulary()
    train = load_triplet_file(paths["train"], ev2, rv2)
    assert [x.triplet for x in train] == [
        Triplet(ev2.id_of("b"), rv2.id_of("s"), ev2.id_of("c"))
    ]
    test = load_triplet_file(paths["test"], ev2, rv2, labeled=True)
    assert [x.label for x in test] == [True, False]
    stats_text = open(paths["stats"]).read()
    assert "ookb_entities=2" in stats_text
    ookb_names = open(paths["ookb"]).read().split()
    assert ookb_names == ["a", "d"]


def test_check_reports_each_kind_of_violation():
    # A and D are out of the KB; every part of the split breaks its invariant
    # once, next to a row that keeps it
    split = OokbSplit(
        train=build_graph([Triplet(B, R, C), Triplet(C, S, A)]),
        aux=[Triplet(A, R, B), Triplet(B, R, C), Triplet(A, S, D)],
        ookb_entities=np.array([A, D]),
        validation=[lt(B, R, C), lt(D, R, C, label=False)],
        test=[lt(A, R, B), lt(B, S, C)],
        stats=None,
    )
    assert split.check() == [
        f"training triplet touches OOKB entity: {Triplet(C, S, A)}",
        f"aux triplet has 0 OOKB endpoints: {Triplet(B, R, C)}",
        f"aux triplet has 2 OOKB endpoints: {Triplet(A, S, D)}",
        f"test triplet has no OOKB endpoint: {Triplet(B, S, C)}",
        f"validation triplet touches OOKB entity: {Triplet(D, R, C)}",
    ]
