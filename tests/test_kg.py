import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graphkbc.kg import (
    LabeledTriplet,
    Triplet,
    TripletParseError,
    Vocabulary,
    build_graph,
    entities_of,
    labeled_arrays,
    load_triplet_file,
    save_triplet_file,
)


def make_vocabs():
    return Vocabulary(), Vocabulary()


class TestVocabulary:
    def test_interning_is_stable_and_contiguous(self):
        v = Vocabulary()
        assert v.intern(["a"]).tolist() == [0]
        assert v.intern(["b", "a", "c", "b"]).tolist() == [1, 0, 2, 1]
        assert v.intern([]).dtype == np.intp
        assert v.names == ["a", "b", "c"]
        assert v.index == {"a": 0, "b": 1, "c": 2}
        v = Vocabulary(["a", "b"])
        assert len(v) == 2
        assert "a" in v and "c" not in v

    def test_round_trip(self, tmp_path):
        # one line per name: none makes an empty file, an empty name a blank line
        for names, content in ((["x", "y", "z"], b"x\ny\nz\n"), ([], b""), ([""], b"\n")):
            v = Vocabulary(names)
            v.save(tmp_path / "vocab.txt")
            assert (tmp_path / "vocab.txt").read_bytes() == content
            loaded = Vocabulary.load(tmp_path / "vocab.txt")
            assert loaded.names == v.names
            assert loaded.index == v.index


class TestLoad:
    def test_single_unlabeled_line(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\n")
        ev, rv = make_vocabs()
        rows, labels = load_triplet_file(p, ev, rv)
        assert rows.dtype == np.intp and labels.dtype == bool
        assert rows.tolist() == [[0, 0, 1]] and labels.tolist() == [True]

    def test_labeled_negative(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("a\tr\tb\t-1\n")
        ev, rv = make_vocabs()
        rows, labels = load_triplet_file(p, ev, rv, labeled=True)
        assert rows.tolist() == [[0, 0, 1]] and labels.tolist() == [False]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("")
        rows, labels = load_triplet_file(p, *make_vocabs(), labeled=True)
        assert rows.shape == (0, 3) and rows.dtype == np.intp
        assert labels.shape == (0,) and labels.dtype == bool

    @pytest.mark.parametrize("content, message", [
        ("a\tr\tb\t1\nc\tr\td\t0\nc\tr\n", ":2: bad label '0'"),
        ("a\tr\tb\t1\nc\tr\nc\tr\td\t0\n", ":2: expected 4 tab-separated fields, got 2"),
        ("a\tr\tb\t-1\n\nc\tr\td\t+1\n", ":2: blank line"),
    ], ids=["label-first", "field-count-first", "blank-first"])
    def test_first_bad_line_is_reported(self, tmp_path, content, message):
        p = tmp_path / "t.txt"
        p.write_text(content)
        with pytest.raises(TripletParseError, match=message):
            load_triplet_file(p, *make_vocabs(), labeled=True)

    def test_failed_parse_interns_nothing(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("x\tq\ty\na\tr\n")
        ev, rv = Vocabulary(["a"]), Vocabulary()
        with pytest.raises(TripletParseError):
            load_triplet_file(p, ev, rv)
        assert ev.names == ["a"] and rv.names == []

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

    @pytest.mark.parametrize("content, labeled", [
        ("a\tr\tb\t1\nc\ts\td\t-1\na\ts\td\t1\n", True),
        ("", True),
        ("", False),
    ], ids=["labeled", "zero-rows-labeled", "zero-rows-unlabeled"])
    def test_round_trip_byte_identical(self, tmp_path, content, labeled):
        src = tmp_path / "in.txt"
        src.write_text(content)
        ev, rv = make_vocabs()
        rows, labels = load_triplet_file(src, ev, rv, labeled=labeled)
        dst = tmp_path / "out.txt"
        save_triplet_file(dst, rows, ev, rv, labels if labeled else None)
        assert dst.read_bytes() == src.read_bytes()

    def test_save_takes_triplets_or_id_rows(self, tmp_path):
        ev, rv = Vocabulary(["a", "b"]), Vocabulary(["r"])
        save_triplet_file(tmp_path / "t.txt", [Triplet(0, 0, 1), Triplet(1, 0, 0)], ev, rv)
        save_triplet_file(tmp_path / "a.txt", np.array([[0, 0, 1], [1, 0, 0]]), ev, rv)
        assert (tmp_path / "t.txt").read_text() == "a\tr\tb\nb\tr\ta\n"
        assert (tmp_path / "a.txt").read_text() == "a\tr\tb\nb\tr\ta\n"
        save_triplet_file(tmp_path / "e.txt", [], ev, rv, labels=[])
        assert (tmp_path / "e.txt").read_bytes() == b""

    def test_labeled_arrays_takes_triplets_or_an_array_pair(self):
        lts = [LabeledTriplet(Triplet(0, 0, 1), True), LabeledTriplet(Triplet(1, 0, 2), False)]
        for given_ in (lts, (np.array([[0, 0, 1], [1, 0, 2]]), np.array([True, False]))):
            rows, labels = labeled_arrays(given_)
            assert rows.dtype == np.intp and labels.dtype == bool
            assert rows.tolist() == [[0, 0, 1], [1, 0, 2]] and labels.tolist() == [True, False]


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
    # from base 65,530 the entity ids pass 2**16 and the keys 2**32, so the
    # dedup's sort takes more than one radix pass
    for base in (0, 65_530):
        triplets = [Triplet(h + base, r, t + base) for h, r, t in raw]
        g = build_graph(triplets)
        distinct = list(dict.fromkeys(triplets))  # first-seen order
        assert g.triplets.reshape(-1, 3).tolist() == [list(t) for t in distinct]
        assert g.duplicates_collapsed == len(triplets) - len(distinct)
        assert np.all(np.diff(g.keys) > 0) and len(g.keys) == len(g)
        ids = [-1, *range(base, base + 8)]
        grid = np.array([[h, r, t] for h in ids for r in range(4) for t in ids])
        assert g.contains(grid).tolist() == [Triplet(*row) in set(distinct) for row in grid.tolist()]


def reference_load(path, entities: dict, relations: dict, labeled=False):
    """The per-line loader that the whole-file parse replaced, as the parity reference.

    Interns into ``name -> id`` dicts and returns row and label lists.
    """
    expected = 4 if labeled else 3
    rows, labels = [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                raise TripletParseError(path, line_no, "blank line")
            fields = line.split("\t")
            if len(fields) != expected:
                raise TripletParseError(
                    path, line_no, f"expected {expected} tab-separated fields, got {len(fields)}"
                )
            h = entities.setdefault(fields[0], len(entities))
            r = relations.setdefault(fields[1], len(relations))
            t = entities.setdefault(fields[2], len(entities))
            if labeled:
                if fields[3] == "1":
                    label = True
                elif fields[3] == "-1":
                    label = False
                else:
                    raise TripletParseError(
                        path, line_no, f"bad label {fields[3]!r} (expected 1 or -1)"
                    )
            else:
                label = True
            rows.append([h, r, t])
            labels.append(label)
    return rows, labels


# names include characters that str.splitlines would break on but a file's
# line iteration does not
NAMES = ["a", "b", "c", "", "é", "名", "x y", "\x85", "\u2028", "\x0c", "1"]
NAME = st.sampled_from(NAMES)
LABEL = st.sampled_from(["1", "-1"] * 4 + ["0", "+1", "1 ", ""])
SHAPE = st.sampled_from(["ok"] * 8 + ["blank", "short", "long"])
LINE = st.tuples(st.lists(NAME, min_size=3, max_size=3), LABEL, SHAPE,
                 st.sampled_from(["\n", "\r\n", "\r"]))


@settings(max_examples=300)
@given(lines=st.lists(LINE, max_size=8), labeled=st.booleans(), final_newline=st.booleans(),
       seed_entities=st.lists(NAME, max_size=4), seed_relations=st.lists(NAME, max_size=3))
def test_parse_matches_the_per_line_reference(lines, labeled, final_newline,
                                              seed_entities, seed_relations):
    text = ""
    for names, label, shape, end in lines:
        fields = names + [label] if labeled else names
        fields = {"ok": fields, "blank": [], "short": fields[:-1], "long": fields + ["z"]}[shape]
        text += "\t".join(fields) + end
    if lines and not final_newline:
        text = text[: -len(lines[-1][3])]
    ev, rv = Vocabulary(seed_entities), Vocabulary(seed_relations)
    seeded = (list(ev.names), list(rv.names))
    ref_e, ref_r = dict(ev.index), dict(rv.index)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        try:
            want = reference_load(path, ref_e, ref_r, labeled)
        except TripletParseError as exc:
            with pytest.raises(TripletParseError) as got:
                load_triplet_file(path, ev, rv, labeled)
            assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
            assert (ev.names, rv.names) == seeded  # a failed parse interns nothing
            return
        rows, labels = load_triplet_file(path, ev, rv, labeled)
    assert rows.dtype == np.intp and rows.shape == (len(want[0]), 3)
    assert labels.dtype == bool
    assert rows.tolist() == want[0] and labels.tolist() == want[1]
    assert ev.index == ref_e and ev.names == list(ref_e)
    assert rv.index == ref_r and rv.names == list(ref_r)


@given(st.data())
def test_intern_matches_a_first_seen_dict(data):
    seed = data.draw(st.lists(NAME, max_size=8), label="seed")
    v, ref = Vocabulary(seed), {}
    for name in seed:
        ref.setdefault(name, len(ref))
    interned = Vocabulary()
    interned.intern(seed)
    assert v.names == interned.names == list(ref) and v.index == interned.index == ref
    for _ in range(data.draw(st.integers(1, 5), label="calls")):
        pool = data.draw(st.sampled_from([
            list(ref), [n for n in NAMES if n not in ref], NAMES]), label="known, unseen or mixed")
        names = data.draw(st.lists(st.sampled_from(pool), max_size=8) if pool else st.just([]),
                          label="names")
        ids = v.intern(names)
        assert ids.dtype == np.intp
        assert ids.tolist() == [ref.setdefault(n, len(ref)) for n in names]
        assert v.names == list(ref) and v.index == ref


@given(data=st.data(), labeled=st.booleans())
def test_save_writes_the_per_line_format_and_loads_back(data, labeled):
    entities = data.draw(st.lists(NAME, min_size=1, unique=True), label="entities")
    relations = data.draw(st.lists(NAME, min_size=1, unique=True), label="relations")
    rows = np.array(data.draw(st.lists(st.tuples(
        st.integers(0, len(entities) - 1), st.integers(0, len(relations) - 1),
        st.integers(0, len(entities) - 1)), max_size=8), label="rows"), dtype=np.intp)
    rows = rows.reshape(-1, 3)
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                         max_size=len(rows)), label="labels"), dtype=bool)
    want = "".join(f"{entities[h]}\t{relations[r]}\t{entities[t]}"
                   + (("\t1" if label else "\t-1") if labeled else "") + "\n"
                   for (h, r, t), label in zip(rows.tolist(), labels))
    ev, rv = Vocabulary(entities), Vocabulary(relations)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        save_triplet_file(path, rows, ev, rv, labels if labeled else None)
        with open(path, "rb") as fh:
            assert fh.read() == want.encode("utf-8")
        got, got_labels = load_triplet_file(path, ev, rv, labeled)
    assert got.tolist() == rows.tolist()
    assert got_labels.tolist() == (labels.tolist() if labeled else [True] * len(rows))
    assert ev.names == entities and rv.names == relations
