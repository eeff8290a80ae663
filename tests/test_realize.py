"""Rational parametric realizations, faithfulness, closure checks and the
PG(2,q) embedding search."""

import functools
import hashlib
import re
from fractions import Fraction
from itertools import combinations, product

import pytest

from perspectra.incidence import (Configuration, IncidenceError, a_point,
                                  b_point, center, free_point, parse_label)
from perspectra.families import (desargues, fez, kantor, perm_spec,
                                 skew_perspective)
from perspectra.realize import (closure_check, collinear, embed_search,
                                fez_closure_witness, galois_field,
                                line_through, meet, normalize,
                                parametric_realization, pg2q_points,
                                verify_pg_embedding, verify_realization)
from perspectra import realize
from perspectra.realize import _plane

from pg_reference import reference_embed_search


def test_rational_geometry_primitives():
    assert normalize((2, 4, 6)) == (1, 2, 3)
    assert normalize((0, 3, 9)) == (0, 1, 3)
    with pytest.raises(IncidenceError):
        normalize((0, 0, 0))
    assert collinear((1, 0, 0), (0, 1, 0), (1, 1, 0))
    assert not collinear((1, 0, 0), (0, 1, 0), (0, 0, 1))
    l1 = line_through((1, 0, 0), (0, 1, 0))
    l2 = line_through((1, 0, 1), (0, 1, 1))
    p = meet(l1, l2)
    assert collinear((1, 0, 0), (0, 1, 0), p)
    with pytest.raises(IncidenceError):
        line_through((1, 2, 3), (2, 4, 6))


def test_verify_realization_detects_defects():
    config = desargues()
    coords = {lab: (1, i, i * i) for i, lab in enumerate(config.points)}
    ok, reason = verify_realization(config, coords)
    # all points on a conic: every configuration line fails
    assert not ok and "not collinear" in reason
    missing = dict(coords)
    missing.pop(center())
    ok, reason = verify_realization(config, missing)
    assert not ok and "missing" in reason


_NOT_A_MAPPING = "coordinates are not a mapping of points to vectors"


# a dict replaces a2's vector; anything else replaces the whole assignment
@pytest.mark.parametrize("tamper, reason", [
    ({a_point(2): (0, 0, 0)}, "a2 is the zero vector"),
    ({a_point(2): (1, 2)}, "a2 is not a rational vector of 3 entries"),
    ({a_point(2): (1, 2, 3, 4)}, "a2 is not a rational vector of 3 entries"),
    ({a_point(2): (1, "x", 0)}, "a2 is not a rational vector of 3 entries"),
    ({a_point(2): 5}, "a2 is not a rational vector of 3 entries"),
    ({a_point(2): None}, "a2 is not a rational vector of 3 entries"),
    (None, _NOT_A_MAPPING),
    (5, _NOT_A_MAPPING),
    ([(1, 0, 0), (0, 1, 0)], _NOT_A_MAPPING),
], ids=["zero", "short", "long", "not-rational", "int", "none",
        "coords-none", "coords-int", "coords-list"])
def test_verify_realization_rejects_bad_coordinates(c4_realization, tamper, reason):
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    coords = ({**c4_realization.coords, **tamper} if isinstance(tamper, dict)
              else tamper)
    assert verify_realization(config, coords) == (False, reason)


def test_faithfulness_needs_lines_of_three_points():
    d = desargues()
    config = Configuration.build(
        d.points, [d.line_labels(line) for line in d.lines] + [d.points[:4]])
    coords = {lab: (1, i % 5, i // 5) for i, lab in enumerate(config.points)}
    want = (False, "line ('p', 'a1', 'a2', 'a3') does not have 3 points")
    assert verify_realization(config, coords) == want
    assert verify_pg_embedding(config, coords, 5) == want


def test_c4_realization_is_faithful(c4_realization):
    real = c4_realization
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    ok, reason = verify_realization(config, real.coords)
    assert ok, reason
    assert real.params["beta2"] == 2
    assert all(isinstance(x, Fraction)
               for v in real.coords.values() for x in v)


def test_c3f_realization_is_faithful(c3f_realization):
    real = c3f_realization
    config = skew_perspective(perm_spec(4, "(1,2,3)"))
    ok, reason = verify_realization(config, real.coords)
    assert ok, reason


def test_parametric_accepts_string_params():
    real = parametric_realization("c4", "beta2=2, x=2, y=2")
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    assert verify_realization(config, real.coords)[0]


def test_parametric_rejects_degenerate_and_unknown():
    with pytest.raises(IncidenceError):
        parametric_realization("c4", {"beta2": 1, "x": 1, "y": 1})
    with pytest.raises(IncidenceError):
        parametric_realization("c4", {"beta2": 2})
    with pytest.raises(IncidenceError):
        parametric_realization("c5", {"beta2": 2, "x": 2, "y": 2})


@pytest.mark.parametrize("case, params, unknown", [
    ("c3f", {"beta1": 5, "beta2": 2, "y": 2, "alpha2": 3}, "['alpha2']"),
    ("c4", {"beta2": 2, "x": 2, "y": 2, "beta1": 5, "bogus": 7},
     "['beta1', 'bogus']"),
    ("c4", "beta2=2, x=2, y=2, beta1=5", "['beta1']"),
])
def test_parametric_rejects_unknown_parameters(case, params, unknown):
    message = re.escape(f"unknown parameters {unknown}")
    with pytest.raises(IncidenceError, match=message):
        parametric_realization(case, params)


@pytest.mark.parametrize("params, repeated", [
    ("beta2=2,x=2,y=2,beta2=3", "['beta2']"),
    ("beta2=2, y=2, x=2, y=2, x=3", "['x', 'y']"),
])
def test_parametric_rejects_repeated_parameters(params, repeated):
    # a repeated key would otherwise keep only its last value
    message = re.escape(f"repeated parameters {repeated}")
    with pytest.raises(IncidenceError, match=message):
        parametric_realization("c4", params)


@pytest.mark.parametrize("params", [
    "beta2=2,x=2,y=1/0",
    {"beta2": 2, "x": 2, "y": "1/0"},
], ids=["text", "dict"])
def test_parametric_rejects_zero_denominator(params):
    with pytest.raises(IncidenceError, match="parameter y is not a rational"):
        parametric_realization("c4", params)


def test_explicit_free_parameter_respected():
    real = parametric_realization(
        "c4", {"beta2": 2, "x": 2, "y": 2, "alpha2": -9})
    assert real.params["alpha2"] == -9


@pytest.mark.parametrize("case, params, digest", [
    ("c4", {"beta2": 2, "x": 2, "y": 2},
     "c1964d0120cea58dee147d9cd08e8f5a8c60dfbb217516b1fb71c596ed6cc1c8"),
    # the scan's first value is -9, so supplying it gives the same result
    ("c4", {"beta2": 2, "x": 2, "y": 2, "alpha2": -9},
     "c1964d0120cea58dee147d9cd08e8f5a8c60dfbb217516b1fb71c596ed6cc1c8"),
    ("c4", {"beta2": 3, "x": Fraction(1, 2), "y": -1},
     "5a58edf6f7cbe198b5ccda08d65701932b228447da30162264a2817b62caa6a5"),
    ("c4", {"beta2": 2, "x": 2, "y": 2, "alpha2": 3},
     "321aa1d7b17443f2e0a6f40f36b42410eb7c58fc8c2b2efa0b37274c4063ccf9"),
    ("c3f", {"beta1": 5, "beta2": 2, "y": 2},
     "e58b4132059ea34400ef0ee93541ede5ca35edcbc17d9b6c1d8d3157b4206077"),
    ("c3f", {"beta1": 5, "beta2": 2, "y": 2, "x": 3},
     "54cb6cf082ba76830f00a55091b98088c9f7556105da462bd0a944b21c4ce950"),
])
def test_parametric_realization_is_pinned(case, params, digest):
    # coordinates and the parameters used, scanned or given
    r = parametric_realization(case, params)
    text = repr((sorted((str(k), tuple(map(str, v))) for k, v in r.coords.items()),
                 sorted((k, str(v)) for k, v in r.params.items())))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_closure_check_on_faithful_realization(c4_realization):
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    withheld = config.line_labels(config.lines[0])
    assert closure_check(config, c4_realization.coords, withheld) is True


def test_closure_check_rejects_broken_hypotheses(c4_realization):
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    coords = dict(c4_realization.coords)
    coords[center()] = coords[a_point(1)]
    with pytest.raises(IncidenceError):
        closure_check(config, coords, config.line_labels(config.lines[0]))


def test_fez_closure_witness():
    config, coords, withheld = fez_closure_witness()
    assert set(withheld) == {center(), a_point(3), b_point(3)}
    ok, reason = verify_realization(config, coords, withheld=withheld)
    assert ok, reason
    assert closure_check(config, coords, withheld) is False


def test_fez_closure_witness_is_pinned():
    _, coords, withheld = fez_closure_witness()
    text = repr((sorted((str(k), tuple(map(str, v))) for k, v in coords.items()),
                 tuple(map(str, withheld))))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "610c3d274377863589907cb9c7dee66b6383b39c58fc0fe02b9cd4650d5ef763"


def test_galois_field_arithmetic():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        f = galois_field(q)
        assert len(f.elements) == q
        for a in f.elements:
            if a:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0
    with pytest.raises(IncidenceError):
        galois_field(6)
    with pytest.raises(IncidenceError):
        galois_field(16)


def test_galois_field_rejects_q_above_the_bound(monkeypatch):
    # 131 is the first prime above the bound; no field table may be built
    monkeypatch.setattr(realize, "GF", None)
    message = "no field of order 131 available: q is above the bound 127"
    with pytest.raises(IncidenceError, match=message):
        galois_field(131)
    with pytest.raises(IncidenceError, match="above the bound 127"):
        embed_search(desargues(), 131)


@pytest.mark.parametrize("q", [5.0, True, "5"])
def test_field_order_must_be_an_int(q):
    message = f"q must be an int, got {q!r}"
    for call in (lambda: galois_field(q), lambda: embed_search(desargues(), q),
                 lambda: verify_pg_embedding(desargues(), {}, q)):
        with pytest.raises(IncidenceError) as info:
            call()
        assert str(info.value) == message


def test_galois_field_is_built_once_per_q(monkeypatch):
    # the plane, its points and each found embedding's check share one field
    built = []

    def counting_gf(q):
        built.append(q)
        return gf(q)

    gf = realize.GF
    monkeypatch.setattr(realize, "GF", counting_gf)
    for name in ("galois_field", "_plane"):
        fresh = functools.lru_cache(maxsize=8)(getattr(realize, name).__wrapped__)
        monkeypatch.setattr(realize, name, fresh)
    assert embed_search(desargues(), 5).status == "found"
    assert embed_search(fez(), 7).status == "found"
    assert built == [5, 7]
    assert realize.galois_field(5) is realize.galois_field(5)
    assert realize.galois_field.cache_info().maxsize is not None


def test_pg2q_point_counts():
    for q in (2, 3, 4, 5):
        assert len(pg2q_points(q)) == q * q + q + 1
        assert len(set(pg2q_points(q))) == q * q + q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_plane_tables_match_brute_force(q):
    # every point tested against every line; for every pair of points the
    # two masks meet in exactly one bit, the line through both (the polarity
    # embed_search relies on)
    f = galois_field(q)
    points, line_mask = _plane(q)
    assert points == pg2q_points(q)

    def on(line, point):
        terms = [f.mul(a, x) for a, x in zip(line, point)]
        return f.add(f.add(terms[0], terms[1]), terms[2]) == 0

    members = [[i for i, p in enumerate(points) if on(line, p)]
               for line in points]
    assert line_mask == [sum(1 << i for i in m) for m in members]
    for i, j in combinations(range(len(points)), 2):
        through = [k for k, m in enumerate(members) if i in m and j in m]
        common = line_mask[i] & line_mask[j]
        assert common.bit_count() == 1
        assert [common.bit_length() - 1] == through


def test_embed_search_desargues():
    d = desargues()
    for q in (2, 3, 4):
        assert embed_search(d, q).status == "none"
    result = embed_search(d, 5)
    assert result.status == "found"
    # independent faithfulness check of the returned assignment over GF(5)
    f = galois_field(5)
    pts = result.assignment
    on_line = {frozenset(l) for l in d.lines}
    from itertools import combinations
    for tri in combinations(range(len(d.points)), 3):
        u, v, w = (pts[d.points[i]] for i in tri)
        det = (u[0] * (v[1] * w[2] - v[2] * w[1])
               - u[1] * (v[0] * w[2] - v[2] * w[0])
               + u[2] * (v[0] * w[1] - v[1] * w[0])) % 5
        assert (det == 0) == (frozenset(tri) in on_line)


def test_embed_search_desargues_at_97():
    # the largest q any test searches; a plane of 9,507 points
    d = desargues()
    result = embed_search(d, 97)
    assert (result.status, result.nodes) == ("found", 10)
    assert verify_pg_embedding(d, result.assignment, 97) == (True, "faithful")


def test_embed_search_fez_found_at_7():
    f = fez()
    assert embed_search(f, 5).status == "none"
    assert embed_search(f, 7).status == "found"


def test_embed_search_budget_exhaustion():
    result = embed_search(desargues(), 5, budget=3)
    assert result.status == "inconclusive"
    assert result.nodes >= 3


@pytest.mark.parametrize("budget", [0, -3, 2.5, 1e9, "50", True, None])
def test_embed_search_rejects_bad_budget(budget):
    with pytest.raises(IncidenceError, match="budget must be a positive int"):
        embed_search(desargues(), 5, budget)


@pytest.mark.parametrize("q", [4, 8, 9])
def test_extension_field_axioms(q):
    f = galois_field(q)
    for a, b, c in product(f.elements, repeat=3):
        assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, b) == f.add(b, a) and f.mul(a, b) == f.mul(b, a)


CONFIGS = {"c4": lambda: skew_perspective(perm_spec(4, "(1,2,3,4)")),
           "(3,4)": lambda: skew_perspective(perm_spec(4, "(3,4)")),
           "(1,2,3)": lambda: skew_perspective(perm_spec(4, "(1,2,3)")),
           "Desargues": desargues, "fez": fez, "Kantor": kantor}

# the statuses the suite and the benchmark rely on, with the exact number of
# placements tried; each "none" is an exhausted search
STATUS_TABLE = [
    ("c4", 2, "none", 4), ("c4", 3, "none", 4), ("c4", 4, "none", 6),
    ("c4", 5, "none", 13), ("c4", 7, "none", 77), ("c4", 8, "none", 202),
    ("c4", 9, "none", 483), ("c4", 11, "none", 2087),
    ("c4", 13, "none", 7569), ("c4", 17, "found", 49),
    ("(3,4)", 2, "none", 4), ("(3,4)", 3, "none", 4), ("(3,4)", 4, "none", 6),
    ("(3,4)", 5, "none", 13), ("(3,4)", 7, "none", 69),
    ("(1,2,3)", 2, "none", 4), ("(1,2,3)", 3, "none", 4),
    ("(1,2,3)", 4, "none", 6), ("(1,2,3)", 5, "none", 13),
    ("(1,2,3)", 7, "none", 69),
    ("Desargues", 2, "none", 4), ("Desargues", 3, "none", 5),
    ("Desargues", 4, "none", 8), ("Desargues", 5, "found", 18),
    ("fez", 5, "none", 15), ("fez", 7, "found", 27), ("Kantor", 7, "found", 10),
]

# sha256 of the sorted (label, point) pairs of each found embedding
FOUND_DIGESTS = {
    ("c4", 17): "d6b6e38cbce294fb083e02419506dcbeaa77c665951e3f94305d7a4281c12186",
    ("Desargues", 5): "4467e9115244b3c8b26cba092b3c41550d4c5daefbaf132e41b51126feac86ac",
    ("fez", 7): "0b7a01d141e3053eee29c04b57a1ad4ff7df77689101bd2d5963111e72f70369",
    ("Kantor", 7): "c09bd6e35d3eaa48441c7a30df8fcaa7f685276a375f580891fee6e008c786bd",
}


@pytest.mark.parametrize("name,q,status,nodes", STATUS_TABLE,
                         ids=[f"{n}-{q}-{s}" for n, q, s, _ in STATUS_TABLE])
def test_embed_search_status_table(name, q, status, nodes):
    config = CONFIGS[name]()
    result = embed_search(config, q)
    assert (result.status, result.nodes) == (status, nodes)
    if status == "found":
        assert verify_pg_embedding(config, result.assignment, q) == (True, "faithful")
        text = repr(sorted((str(k), v) for k, v in result.assignment.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == FOUND_DIGESTS[name, q]


def test_embed_search_agrees_with_reference_solver(census_report):
    configs = [skew_perspective(e.representative) for e in census_report.entries]
    configs += [desargues(), fez(), kantor()]
    for q in (4, 5):
        for config in configs:
            assert (embed_search(config, q).status
                    == reference_embed_search(config, q).status)
    for q in (7, 8, 9):
        for config in (desargues(), fez(), kantor()):
            assert (embed_search(config, q).status
                    == reference_embed_search(config, q).status)


@pytest.mark.parametrize("config,q", [(desargues(), 5), (fez(), 7),
                                      (desargues(), 9)])
def test_verify_pg_embedding_accepts_found_and_rejects_tampered(config, q):
    pts = embed_search(config, q).assignment
    assert verify_pg_embedding(config, pts, q) == (True, "faithful")
    f = galois_field(q)
    scaled = {lab: tuple(f.mul(2, x) for x in v) for lab, v in pts.items()}
    assert verify_pg_embedding(config, scaled, q)[0]

    line = config.line_labels(config.lines[0])
    cases = [
        ("missing", {lab: v for lab, v in pts.items() if lab != line[0]}),
        ("zero vector", {**pts, line[0]: (0, 0, 0)}),
        ("not a vector", {**pts, line[0]: (0, 1, q)}),
        ("not a vector", {**pts, line[0]: 5}),
        ("not a vector", {**pts, line[0]: None}),
        ("coincide", {**pts, line[0]: pts[line[1]]}),
        ("not a mapping", None),
        ("not a mapping", 5),
        ("not a mapping", list(pts.values())),
    ]
    for reason, tampered in cases:
        ok, why = verify_pg_embedding(config, tampered, q)
        assert not ok and reason in why
    # the same points against one line fewer, and against one line more
    fewer = Configuration.build(config.points, [
        config.line_labels(l) for l in config.lines[1:]])
    ok, why = verify_pg_embedding(fewer, pts, q)
    assert not ok and "spurious collinearity" in why
    extra = next(t for t in combinations(config.points, 3)
                 if not any(set(t) <= set(config.line_labels(l))
                            for l in config.lines))
    more = Configuration.build(config.points, [
        *map(config.line_labels, config.lines), extra])
    ok, why = verify_pg_embedding(more, pts, q)
    assert not ok and "not collinear" in why


def test_embed_search_rejects_lines_that_are_not_triples():
    names = [free_point(x) for x in "abcdefg"]
    four = Configuration.build(names, [names[:4], names[:1] + names[4:6]])
    with pytest.raises(IncidenceError, match="does not have 3 points"):
        embed_search(four, 7)
    shared = Configuration.build(names, [names[:3], names[:2] + names[3:4]])
    with pytest.raises(IncidenceError, match="not partially linear"):
        embed_search(shared, 7)


def test_embed_search_needs_a_frame():
    pts = [free_point(s) for s in "wxyz"]
    config = Configuration.build(pts, [tuple(pts[:3])])
    with pytest.raises(IncidenceError, match="no frame of four points"):
        embed_search(config, 5)


@pytest.mark.parametrize("withheld", [
    ("a1", "b2", "c{3,4}"), ("p", "a1"), ("p", "a1", "b1", "a2"),
    ("p", "a1", "b1", "a1"), ("p", "a1", "a1"), (), ("p", "a1", "zz")])
def test_withheld_must_be_a_line(c4_realization, withheld):
    # withholding a triple that is no line would skip its spurious-
    # collinearity test and report it as a line that does not close
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    labels = tuple(map(parse_label, withheld))
    reason = f"withheld {withheld} is not a line"
    assert verify_realization(config, c4_realization.coords, labels) == (False, reason)
    with pytest.raises(IncidenceError) as exc:
        closure_check(config, c4_realization.coords, labels)
    assert str(exc.value) == f"hypotheses violated: {reason}"
