import numpy as np
import pytest
from hypothesis import given, strategies as st

from graphkbc.kg import (
    LabeledTriplet,
    Triplet,
    TripletParseError,
    Vocabulary,
    build_graph,
    entities_of,
    labeled_arrays,
    load_triplet_file,
    positives,
    save_triplet_file,
)


def make_vocabs():
    return Vocabulary(), Vocabulary()


class TestVocabulary:
    def test_interning_is_stable_and_contiguous(self):
        v = Vocabulary()
        assert v.add("a") == 0
        assert v.add("b") == 1
        assert v.add("a") == 0
        assert v.names == ["a", "b"]
        assert len(v) == 2
        assert "a" in v and "c" not in v

    def test_round_trip(self, tmp_path):
        v = Vocabulary(["x", "y", "z"])
        v.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert loaded.names == v.names
        assert loaded.index == v.index


class TestLoad:
    def test_single_unlabeled_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\n")
        ev, rv = make_vocabs()
        out = load_triplet_file(p, ev, rv)
        assert out == [LabeledTriplet(Triplet(0, 0, 1), True)]

    def test_labeled_negative(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\t-1\n")
        ev, rv = make_vocabs()
        out = load_triplet_file(p, ev, rv, labeled=True)
        assert out == [LabeledTriplet(Triplet(0, 0, 1), False)]

    def test_label_column_required_when_labeled(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\n")
        ev, rv = make_vocabs()
        with pytest.raises(TripletParseError):
            load_triplet_file(p, ev, rv, labeled=True)

    def test_bad_label_token(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\t0\n")
        ev, rv = make_vocabs()
        with pytest.raises(TripletParseError, match="bad label"):
            load_triplet_file(p, ev, rv, labeled=True)

    def test_wrong_field_count_reports_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\nq\tr\n")
        ev, rv = make_vocabs()
        with pytest.raises(TripletParseError, match=":2:"):
            load_triplet_file(p, ev, rv)

    def test_blank_line_rejected(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\n\nc\tr\td\n")
        ev, rv = make_vocabs()
        with pytest.raises(TripletParseError, match="blank"):
            load_triplet_file(p, ev, rv)

    def test_round_trip_byte_identical(self, tmp_path):
        content = "a\tr\tb\t1\nc\ts\td\t-1\na\ts\td\t1\n"
        src = tmp_path / "in.txt"
        src.write_text(content)
        ev, rv = make_vocabs()
        rows, labels = labeled_arrays(load_triplet_file(src, ev, rv, labeled=True))
        dst = tmp_path / "out.txt"
        save_triplet_file(dst, rows, ev, rv, labels)
        assert dst.read_bytes() == src.read_bytes()

    def test_save_takes_triplets_or_id_rows(self, tmp_path):
        ev, rv = Vocabulary(["a", "b"]), Vocabulary(["r"])
        save_triplet_file(tmp_path / "t.txt", [Triplet(0, 0, 1), Triplet(1, 0, 0)], ev, rv)
        save_triplet_file(tmp_path / "a.txt", np.array([[0, 0, 1], [1, 0, 0]]), ev, rv)
        assert (tmp_path / "t.txt").read_text() == "a\tr\tb\nb\tr\ta\n"
        assert (tmp_path / "a.txt").read_text() == "a\tr\tb\nb\tr\ta\n"
        save_triplet_file(tmp_path / "e.txt", [], ev, rv, labels=[])
        assert (tmp_path / "e.txt").read_bytes() == b""

    def test_positives_helper(self):
        lts = [
            LabeledTriplet(Triplet(0, 0, 1), True),
            LabeledTriplet(Triplet(1, 0, 2), False),
        ]
        assert positives(lts) == [Triplet(0, 0, 1)]


class TestGraph:
    def test_single_edge_indices(self):
        a, r, b = 0, 0, 1
        g = build_graph([Triplet(a, r, b)])
        assert g.triplets.tolist() == [[a, r, b]]
        assert g.triplets.dtype == np.intp
        assert g.contains(Triplet(a, r, b)).tolist() == [True]
        assert g.contains(Triplet(b, r, a)).tolist() == [False]

    def test_duplicates_collapse(self):
        t = Triplet(0, 0, 1)
        g = build_graph([t, t])
        assert len(g) == 1
        assert g.duplicates_collapsed == 1

    def test_two_incoming_edges(self):
        g = build_graph([Triplet(0, 0, 1), Triplet(2, 1, 1)])
        assert np.count_nonzero(g.triplets[:, 2] == 1) == 2

    def test_entities_and_relations(self):
        def relations(g):
            return set(np.unique(g.triplets[:, 1]).tolist())

        assert entities_of(build_graph([Triplet(0, 0, 1)])) == {0, 1}
        assert entities_of(build_graph([])) == set()
        assert entities_of(build_graph([Triplet(0, 0, 1), Triplet(1, 1, 2)])) == {0, 1, 2}
        assert relations(build_graph([Triplet(0, 0, 1)])) == {0}
        assert relations(build_graph([])) == set()
        g = build_graph([Triplet(0, 0, 1), Triplet(1, 0, 2), Triplet(0, 1, 2)])
        assert relations(g) == {0, 1}

    def test_membership_outside_the_id_range(self):
        g = build_graph([Triplet(0, 0, 1), Triplet(1, 1, 2)])
        rows = [[0, 0, 1], [3, 0, 1], [0, 2, 1], [-1, 0, 1], [1, 1, 2], [2, 1, 1]]
        assert g.contains(rows).tolist() == [True, False, False, False, True, False]
        assert not build_graph([]).contains([[0, 0, 0]]).any()


@given(
    st.lists(
        st.tuples(
            st.integers(0, 6), st.integers(0, 2), st.integers(0, 6)
        ),
        max_size=40,
    )
)
def test_graph_index_invariants(raw):
    triplets = [Triplet(*t) for t in raw]
    g = build_graph(triplets)
    distinct = list(dict.fromkeys(triplets))  # first-seen order
    assert g.triplets.reshape(-1, 3).tolist() == [list(t) for t in distinct]
    assert g.duplicates_collapsed == len(triplets) - len(distinct)
    assert np.all(np.diff(g.keys) > 0) and len(g.keys) == len(g)
    grid = np.array([[h, r, t] for h in range(-1, 8) for r in range(4) for t in range(8)])
    assert g.contains(grid).tolist() == [Triplet(*row) in set(distinct) for row in grid.tolist()]
