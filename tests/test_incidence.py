"""Core incidence structure: labels, verification, joins, serialization."""

import dataclasses
import json
import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from perspectra.incidence import (Configuration, ConfigurationSignature,
                                  IncidenceError, PointLabel, ViolationReport,
                                  a_point, b_point, c_point, center,
                                  free_point, from_json, from_json_dict, join,
                                  parse_label, third_point, to_dot, to_json,
                                  verify)
from perspectra.families import desargues, grassmannian


def test_label_constructors_and_str():
    assert str(center()) == "p"
    assert str(a_point(3)) == "a3"
    assert str(b_point(12)) == "b12"
    assert str(c_point(2, 1)) == "c{1,2}"
    assert str(free_point("abc")) == "abc"


def test_c_point_normalizes_pair_order():
    assert c_point(3, 1) == c_point(1, 3)
    with pytest.raises(ValueError):
        c_point(2, 2)


def test_structured_labels_are_interned():
    assert c_point(2, 1) is c_point(1, 2)
    assert a_point(4) is parse_label("a4") and b_point(4) is parse_label("b4")
    assert center() is parse_label("p")
    for _ in range(2):      # an error is not cached
        with pytest.raises(ValueError):
            c_point(1, 1)
    for make in (center, a_point, b_point, c_point):
        assert make.cache_info().maxsize is not None


def test_label_hash_matches_equality():
    # the dataclass hash of (kind, key); a label built again, unpickled or
    # replaced hashes and compares as the first
    for label in (center(), a_point(3), c_point(1, 4), free_point("x")):
        assert hash(label) == hash((label.kind, label.key))
        again = PointLabel(label.kind, label.key)
        assert again == label and hash(again) == hash(label)
        data = pickle.dumps(label)
        assert b"_hash" not in data       # a loading process hashes anew
        loaded = pickle.loads(data)
        assert loaded == label and hash(loaded) == hash(label)
        assert {label: 1}[again] == 1 and again in {label}
    assert [f.name for f in dataclasses.fields(PointLabel)] == ["kind", "key"]
    moved = dataclasses.replace(c_point(1, 2), key=(1, 3))
    assert moved == c_point(1, 3) and hash(moved) == hash(c_point(1, 3))
    assert free_point("x") != free_point("y")


@pytest.mark.parametrize("text", ["p", "a1", "b7", "c{2,5}", "aab"])
def test_parse_label_roundtrip(text):
    assert str(parse_label(text)) == text


def test_label_sort_order_groups_kinds():
    labs = sorted([c_point(1, 2), b_point(1), a_point(2), center(),
                   free_point("x")])
    assert [lab.kind for lab in labs] == ["p", "a", "b", "c", "free"]


def test_build_rejects_repeated_point_in_line():
    with pytest.raises(IncidenceError):
        Configuration.build([a_point(1), a_point(2)],
                            [(a_point(1), a_point(1), a_point(2))])


def test_build_rejects_a_line_through_an_unknown_point():
    # worded as index_of words it
    a, b, c = map(free_point, "abc")
    with pytest.raises(IncidenceError) as exc:
        Configuration.build([a], [(a, b, c)])
    assert str(exc.value) == "no such point b"


def test_build_rejects_a_line_of_fewer_than_two_points():
    a, b = map(free_point, "ab")
    for line, stored in (((), "()"), ((b,), "(1,)")):
        with pytest.raises(IncidenceError) as exc:
            Configuration.build([a, b], [(a, b), line])
        assert str(exc.value) == f"line {stored} has fewer than two points"


def test_verify_desargues_signature():
    # the classical 10_3 configuration
    sig = verify(desargues())
    assert isinstance(sig, ConfigurationSignature)
    assert sig.as_tuple() == (10, 3, 10, 3)


def test_verify_grassmannian_signatures():
    # oracle: G(n,2) is a (C(n,2), n-2, C(n,3), 3) configuration
    from math import comb
    for n in range(3, 8):
        sig = verify(grassmannian(n))
        assert sig.as_tuple() == (comb(n, 2), n - 2, comb(n, 3), 3)


def test_verify_is_computed_once_per_configuration():
    config = desargues()
    first = verify(config)
    assert verify(config) is first
    bad = Configuration(config.points, config.lines[:-1])
    assert verify(bad) == verify(bad) == ViolationReport("not regular", (2, 3))


def test_verify_memo_is_outside_equality():
    names = [f.name for f in dataclasses.fields(Configuration)]
    assert names == ["points", "lines"]
    verified, fresh = grassmannian(5), grassmannian(5)
    verify(verified)
    assert verified == fresh and hash(verified) == hash(fresh)
    assert verified is not fresh


def test_verify_flags_partial_linearity_violation():
    pts = [free_point(s) for s in "wxyz"]
    bad = Configuration.build(pts, [tuple(pts[:3]), (pts[0], pts[1], pts[3])])
    report = verify(bad)
    assert isinstance(report, ViolationReport)
    assert report.axiom == "not partially linear"


def test_verify_flags_mixed_line_sizes():
    pts = [free_point(s) for s in "vwxyz"]
    bad = Configuration.build(pts, [tuple(pts[:3]), tuple(pts[1:])])
    report = verify(bad)
    assert report.axiom == "not a k-configuration"


def test_verify_flags_irregular_ranks():
    pts = [free_point(s) for s in "wxyz"]
    bad = Configuration.build(pts, [tuple(pts[:3])])
    report = verify(bad)
    assert report.axiom == "not regular"


def test_join_and_third_point():
    g = grassmannian(4)
    line = join(g, c_point(1, 2), c_point(1, 3))
    assert set(line) == {c_point(1, 2), c_point(1, 3), c_point(2, 3)}
    assert third_point(g, c_point(1, 2), c_point(1, 3)) == c_point(2, 3)
    # disjoint pairs are not collinear in G(4,2)
    assert join(g, c_point(1, 2), c_point(3, 4)) is None
    assert join(g, c_point(1, 2), c_point(1, 2)) == (c_point(1, 2),)


def test_json_roundtrip_preserves_structure():
    g = desargues()
    back = from_json(to_json(g))
    assert back.points == g.points
    assert back.lines == g.lines


def test_json_rejects_duplicate_labels():
    data = {"points": ["p", "p"], "lines": []}
    with pytest.raises(IncidenceError):
        from_json(json.dumps(data))


_PAL = ["p", "a1", "b1"]


@pytest.mark.parametrize("data, message", [
    ([], 'expected {"points": [label, ...], "lines": [[index, ...], ...]}'),
    ({"points": ["p", 3], "lines": []},
     'expected {"points": [label, ...], "lines": [[index, ...], ...]}'),
    ({"points": ["p", "a1", "a01"], "lines": []}, "duplicate point labels"),
    ({"points": ["c{1,2}", "c{2,1}"], "lines": []}, "duplicate point labels"),
    ({"points": _PAL, "lines": [[0, 1, 2], (0, 1)]},
     "line (0, 1) is not a list of point indices"),
    ({"points": _PAL, "lines": [[0]]}, "line [0] is not a list of point indices"),
    ({"points": _PAL, "lines": [[0, 1, 3]]}, "line [0, 1, 3]: no point with index 3"),
    ({"points": _PAL, "lines": [[0, True, 2]]},
     "line [0, True, 2]: no point with index True"),
    ({"points": _PAL, "lines": [[0, 1, 1], [0, 5]]},
     "line [0, 5]: no point with index 5"),
    ({"points": _PAL, "lines": [[0, 1, 1], [0, 2, 2]]},
     "repeated point in line [PointLabel('p'), PointLabel('a1'), PointLabel('a1')]"),
    ({"points": _PAL, "lines": [[0, 1, 2], [2, 1, 0]]}, "duplicate line"),
    ({"points": ["p", "c{1,1}"], "lines": []},
     "point 'c{1,1}': c-label needs a 2-subset"),
])
def test_json_error_messages_are_pinned(data, message):
    with pytest.raises(IncidenceError) as caught:
        from_json_dict(data)
    assert str(caught.value) == message


def test_json_points_and_lines_are_sorted():
    config = from_json_dict({"points": ["x", "c{2,1}", "b2", "p"],
                             "lines": [[3, 2, 1], [0, 1]]})
    assert config == Configuration.build(
        [free_point("x"), c_point(1, 2), b_point(2), center()],
        [(center(), b_point(2), c_point(1, 2)), (free_point("x"), c_point(1, 2))])
    assert config.lines == ((0, 1, 2), (2, 3))


def test_dot_export_has_levi_structure():
    g = desargues()
    dot = to_dot(g)
    assert dot.startswith("graph levi {")
    # one edge per incidence
    assert dot.count(" -- ") == sum(len(l) for l in g.lines)


@given(st.integers(min_value=3, max_value=6), st.randoms())
def test_verify_invariant_under_line_order(n, rng):
    g = grassmannian(n)
    lines = [g.line_labels(l) for l in g.lines]
    rng.shuffle(lines)
    shuffled = Configuration.build(g.points, lines)
    assert verify(shuffled) == verify(g)


def test_constructor_rejects_duplicate_lines_and_unknown_points():
    # a Configuration built without Configuration.build is checked as given
    pts = tuple(free_point(s) for s in "wxyz")
    with pytest.raises(IncidenceError) as twice:
        Configuration(pts, ((0, 1, 2), (0, 1, 2)))
    assert str(twice.value) == "duplicate line"
    with pytest.raises(IncidenceError) as unknown:
        Configuration(pts, ((0, 1, 7),))
    assert str(unknown.value) == "line (0, 1, 7) uses an unknown point"


@pytest.mark.parametrize("line, message", [
    ((2, 1, 0), "line (2, 1, 0) is not a strictly increasing index tuple"),
    ((0, 0, 1), "repeated point in line "
                "[PointLabel('w'), PointLabel('w'), PointLabel('x')]"),
    ((1, 0, 3), "line (1, 0, 3) is not a strictly increasing index tuple"),
    ((0, 2, 3), "lines are not in strictly increasing order"),
    ([0, 1, 2], "lines must be tuples of int point indices"),
    ((0, 1.0, 2), "lines must be tuples of int point indices"),
    ((0, True, 2), "lines must be tuples of int point indices"),
    ((), "line () has fewer than two points"),
    ((0,), "line (0,) has fewer than two points"),
], ids=["reversed", "repeated", "unsorted", "line-order", "list", "float", "bool",
        "empty", "single"])
def test_constructor_rejects_malformed_line_storage(line, message):
    # a line stored out of order or with a repeated index is malformed, not
    # an irregular configuration
    pts = tuple(free_point(s) for s in "wxyz")
    with pytest.raises(IncidenceError) as caught:
        Configuration(pts, (line, (0, 1, 3)))
    assert str(caught.value) == message


@pytest.mark.parametrize("points, message", [
    (tuple(map(free_point, "wwx")), "duplicate point labels"),
    (tuple(map(free_point, "xwy")), "points are not in label order"),
    (tuple(map(free_point, "wxw")), "duplicate point labels"),
    (("w", "x", "y"), "points must be PointLabels"),
], ids=["repeated", "unsorted", "repeated-unsorted", "str"])
def test_constructor_rejects_malformed_points(points, message):
    # build and from_json sort the points and merge or reject repeats; the raw
    # constructor takes them as given
    with pytest.raises(IncidenceError) as caught:
        Configuration(points, ((0, 1, 2),))
    assert str(caught.value) == message


_NAMES = st.lists(st.sampled_from("uvwxyz"), min_size=1)
_INDEX_LINES = st.lists(st.lists(st.integers(-1, 6), max_size=4).map(tuple),
                        max_size=6)


@settings(derandomize=True, max_examples=300)
@given(st.one_of(_NAMES.map(lambda names: sorted(set(names))), _NAMES), _INDEX_LINES)
def test_constructor_accepts_exactly_what_build_stores(names, lines):
    # raw storage is accepted iff build stores the same points and the same
    # labelled lines so; half the point lists are drawn sorted and unrepeated
    points, lines = tuple(map(free_point, names)), tuple(lines)
    try:
        config = Configuration(points, lines)
    except IncidenceError:
        config = None
    if not all(0 <= i < len(points) for line in lines for i in line):
        assert config is None
        return
    try:
        built = Configuration.build(points, [[points[i] for i in line]
                                             for line in lines])
    except IncidenceError:      # a repeated point or a short line
        built = None
    if built is None or (built.points, built.lines) != (points, lines):
        assert config is None
        return
    assert config == built and verify(config) == verify(built)
    for x, y in combinations(points, 2):
        assert join(config, x, y) == join(built, x, y)


def test_unknown_labels_are_rejected():
    with pytest.raises(IncidenceError, match="no such point q"):
        desargues().index_of(free_point("q"))
    with pytest.raises(ValueError, match="unknown label kind 'q'"):
        PointLabel("q")
