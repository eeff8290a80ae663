"""Rational parametric realizations, faithfulness, closure checks and the
PG(2,q) embedding search."""

import hashlib
from fractions import Fraction
from itertools import combinations, product

import pytest

from perspectra.incidence import (Configuration, IncidenceError, a_point,
                                  b_point, center, free_point)
from perspectra.families import (desargues, fez, kantor, perm_spec,
                                 skew_perspective)
from perspectra.realize import (EmbedResult, closure_check, collinear, cross,
                                embed_search, fez_closure_witness,
                                galois_field, line_through, meet, normalize,
                                parametric_realization, pg2q_points,
                                verify_pg_embedding, verify_realization)
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


def test_pg2q_point_counts():
    for q in (2, 3, 4, 5):
        assert len(pg2q_points(q)) == q * q + q + 1
        assert len(set(pg2q_points(q))) == q * q + q + 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
def test_plane_tables_match_brute_force(q):
    # every point tested against every line, every pair against every line
    f = galois_field(q)
    points, line_mask, join = _plane(q)
    assert points == pg2q_points(q)
    size = len(points)

    def on(line, point):
        terms = [f.mul(a, x) for a, x in zip(line, point)]
        return f.add(f.add(terms[0], terms[1]), terms[2]) == 0

    members = [[i for i, p in enumerate(points) if on(line, p)]
               for line in points]
    assert line_mask == [sum(1 << i for i in m) for m in members]
    for i, j in combinations(range(size), 2):
        through = [k for k, m in enumerate(members) if i in m and j in m]
        assert [join[i * size + j]] == [join[j * size + i]] == through


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

# the statuses the suite and the benchmark rely on; each "none" is an
# exhausted search
STATUS_TABLE = (
    [("c4", q, "none") for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [("c4", 17, "found")]
    + [(name, q, "none") for name in ("(3,4)", "(1,2,3)") for q in (2, 3, 4, 5, 7)]
    + [("Desargues", q, "none") for q in (2, 3, 4)]
    + [("Desargues", 5, "found"), ("fez", 5, "none"), ("fez", 7, "found"),
       ("Kantor", 7, "found")])


@pytest.mark.parametrize("name,q,status", STATUS_TABLE)
def test_embed_search_status_table(name, q, status):
    config = CONFIGS[name]()
    result = embed_search(config, q)
    assert result.status == status
    if status == "found":
        assert verify_pg_embedding(config, result.assignment, q) == (True, "faithful")


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
    cases = {
        "missing": {lab: v for lab, v in pts.items() if lab != line[0]},
        "zero vector": {**pts, line[0]: (0, 0, 0)},
        "not a vector": {**pts, line[0]: (0, 1, q)},
        "coincide": {**pts, line[0]: pts[line[1]]},
    }
    for reason, tampered in cases.items():
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
    with pytest.raises(IncidenceError, match="two lines"):
        embed_search(shared, 7)
