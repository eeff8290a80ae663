"""Free subgraphs, skew classification, alternate centers, reperspective."""

import hashlib
import json
import random
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from perspectra.incidence import (Configuration, IncidenceError, a_point,
                                  b_point, c_point, center, free_point,
                                  to_json_dict)
from perspectra.analysis import (classify_pair_skew, free_complete_subgraphs,
                                 free_count, is_freely_contained,
                                 preserves_intersection, reperspective,
                                 third_graph_criterion)
from perspectra.families import (desargues, fez, grassmannian, kantor,
                                 kappa_spec, multiveblen, perm_spec,
                                 quasi_grassmannian, skew_perspective,
                                 veronesian, zeta)
from perspectra.perms import (all_permutations, induced_pair_map,
                              kappa_composed, pairs_of, star)

from perspectra.realize import galois_field, pg2q_points

from reference import (is_freely_contained_by_definition, movecenter_condition,
                       veronesian_two_letter_set)


def test_free_containment_in_grassmannian():
    g = grassmannian(5)
    # a star is a free clique, a mixed 4-set generally is not
    assert is_freely_contained(g, [c_point(*u) for u in sorted(star(1, 5))])
    assert not is_freely_contained(
        g, [c_point(1, 2), c_point(1, 3), c_point(2, 3), c_point(4, 5)])


def test_two_sides_are_always_free():
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    a_side = [center()] + [a_point(i) for i in range(1, 5)]
    b_side = [center()] + [b_point(i) for i in range(1, 5)]
    assert is_freely_contained(config, a_side)
    assert is_freely_contained(config, b_side)


def test_free_count_oracles():
    # independently recomputable counts for the reference instances
    assert free_count(grassmannian(6), 5) == 6          # one star per index
    assert free_count(quasi_grassmannian(4), 5) == 2    # the two sides only
    assert free_count(veronesian(4), 5) == 3            # the X_{x,y} triples


def test_free_report_contains_cliques_and_free_sets():
    rep = free_complete_subgraphs(grassmannian(6), 5)
    assert rep.size == 5
    assert set(rep.free_sets) <= set(rep.cliques)
    stars = {tuple(sorted(c_point(*u) for u in star(i, 6))) for i in range(1, 7)}
    assert {tuple(sorted(s)) for s in rep.free_sets} == stars


def _free_panel(census_report):
    """(name, configuration, clique sizes) of the pinned free-clique panel."""
    panel = [(f"census {i}", skew_perspective(e.representative), (5,))
             for i, e in enumerate(census_report.entries)]
    panel += [(f"G({n})", grassmannian(n), (3, 4)) for n in (5, 6, 7)]
    panel += [(f"V({k})", veronesian(k), (3, 4)) for k in (3, 4)]
    panel += [(f"Q({n})", quasi_grassmannian(n), (3, 4)) for n in (4, 5)]
    panel += [(name, build(), (3, 4)) for name, build in
              (("desargues", desargues), ("fez", fez), ("kantor", kantor))]
    return panel


def test_free_complete_subgraphs_are_pinned(census_report):
    # every clique and every free set, in report order, over the panel
    text = "\n".join(
        f"{name} {m} {[list(map(str, x)) for x in report.cliques]} "
        f"{[list(map(str, x)) for x in report.free_sets]}"
        for name, config, sizes in _free_panel(census_report) for m in sizes
        for report in [free_complete_subgraphs(config, m)])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "84dfef13b1829cc78bcbbcadec0509eb4627caa49525a4255a5f1acca5a7bfaa"


def test_reperspective_of_the_empty_multiveblen_is_pinned():
    # every ordered pair of free 5-cliques meeting in one point
    mv = multiveblen(4, set(), grassmannian(4))
    specs = []
    for g1, g2 in permutations(free_complete_subgraphs(mv, 5).free_sets, 2):
        common = set(g1) & set(g2)
        if len(common) == 1:
            q = common.pop()
            spec = reperspective(mv, q, g1, g2)
            specs.append(json.dumps([str(q), spec.n, spec.describe_skew(),
                                     to_json_dict(spec.axis)], sort_keys=True))
    assert len(specs) == 12
    assert hashlib.sha256("\n".join(specs).encode()).hexdigest() == \
        "57b82c0ccd81d48d4a14e09a963f38b7c084c520553de6f68ef68b34c631c405"


def test_reperspective_outcomes_are_pinned(census_report):
    # every ordered pair of free (n+1)-cliques meeting in one point, and of
    # free n-cliques (sub-perspectives, all rejected), over the census
    # representatives and seven named configurations: the spec read, or
    # "rejected" whatever the message
    configs = [skew_perspective(e.representative) for e in census_report.entries]
    configs += [grassmannian(5), grassmannian(6), fez(), kantor(), veronesian(4),
                quasi_grassmannian(4), quasi_grassmannian(5)]
    outcomes = []
    for config in configs:
        n = next(n for n in range(2, 10) if len(config.points) == comb(n + 2, 2))
        for m in (n + 1, n):
            for g1, g2 in permutations(free_complete_subgraphs(config, m).free_sets, 2):
                common = set(g1) & set(g2)
                if len(common) != 1:
                    continue
                q = common.pop()
                try:
                    spec = reperspective(config, q, g1, g2)
                except IncidenceError:
                    outcomes.append("rejected")
                    continue
                outcomes.append(json.dumps([str(q), spec.n, spec.describe_skew(),
                                            to_json_dict(spec.axis)]))
    assert (len(outcomes), outcomes.count("rejected")) == (9280, 9000)
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == \
        "845f77fa520428fb55e92ea9b3fe190d9cd5b68c66b946c24a0379fd37b60ead"


def test_repeated_vertex_is_not_free():
    g = grassmannian(5)
    x, y = c_point(1, 2), c_point(1, 3)
    assert is_freely_contained(g, [x, y])
    assert is_freely_contained(g, [x, x, y]) is False


def _agrees_with_definition(config, vertex_lists):
    for vertices in vertex_lists:
        assert is_freely_contained(config, vertices) == \
            is_freely_contained_by_definition(config, vertices), vertices


def test_freeness_matches_definition_on_the_panel(census_report):
    for _, config, _ in _free_panel(census_report):
        for m in range(2, 6):
            _agrees_with_definition(config,
                                    free_complete_subgraphs(config, m).cliques)


def _plane(q, half):
    """PG(2, q) on free points: all its lines, or a seeded half of them."""
    f = galois_field(q)
    points = pg2q_points(q)
    labels = [free_point(f"p{i}") for i in range(len(points))]

    def on(line, point):
        products = [f.mul(u, v) for u, v in zip(line, point)]
        return f.add(f.add(products[0], products[1]), products[2]) == 0

    lines = [[lab for lab, point in zip(labels, points) if on(line, point)]
             for line in points]
    if half:
        lines = random.Random(q).sample(lines, len(lines) // 2)
    return Configuration.build(labels, lines)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("half", [False, True])
def test_freeness_matches_definition_on_planes(q, half):
    # lines of q + 1 points: an edge's line has points off the edge to spare
    config = _plane(q, half)
    rng = random.Random(q + half)
    picks = [rng.choices(config.points, k=rng.randint(0, 6)) for _ in range(300)]
    _agrees_with_definition(config, picks + [
        clique for m in (2, 3, 4)
        for clique in free_complete_subgraphs(config, m).cliques])


@st.composite
def _partial_linear_spaces(draw):
    k = draw(st.sampled_from([3, 4]))
    size = draw(st.integers(k, 13))
    lines = []
    for line in draw(st.lists(st.sets(st.integers(0, size - 1), min_size=k,
                                      max_size=k), min_size=1, max_size=40)):
        if all(len(line & other) <= 1 for other in lines):
            lines.append(line)
    labels = [free_point(f"p{i}") for i in range(size)]
    config = Configuration.build(labels, [[labels[i] for i in line]
                                          for line in lines])
    return config, draw(st.lists(st.sampled_from(labels), max_size=6))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_partial_linear_spaces())
def test_freeness_matches_definition_on_partial_linear_spaces(drawn):
    config, vertices = drawn
    _agrees_with_definition(config, [vertices] + [
        clique for m in (2, 3, 4)
        for clique in free_complete_subgraphs(config, m).cliques])


def test_freeness_rejects_non_partial_linear_input():
    d = desargues()
    x, y, _ = d.line_labels(d.lines[0])
    off = next(p for p in d.points if d.index_of(p) not in d.lines[0])
    bad = Configuration.build(
        d.points, [d.line_labels(line) for line in d.lines] + [(x, y, off)])
    with pytest.raises(IncidenceError, match="not partially linear"):
        is_freely_contained(bad, d.points[:2])
    with pytest.raises(IncidenceError, match="not partially linear"):
        free_complete_subgraphs(bad, 3)


def test_free_subgraphs_reject_negative_size():
    for m in (-1, -2):
        with pytest.raises(IncidenceError, match="must not be negative"):
            free_complete_subgraphs(desargues(), m)
        with pytest.raises(IncidenceError, match="must not be negative"):
            free_count(desargues(), m)
    assert free_complete_subgraphs(desargues(), 0).cliques == ((),)


def test_third_graph_criterion_matches_brute_force():
    # criterion-vs-definition agreement on every skew for n <= 5
    for n in (3, 4, 5):
        for sigma in all_permutations(n):
            spec = perm_spec(n, str(sigma))
            config = skew_perspective(spec)
            extra = third_graph_criterion(spec)
            assert free_count(config, n + 1) == 2 + len(extra)
            for i0, graph in extra:
                assert sigma(i0) == i0
                assert is_freely_contained(config, graph)


def test_third_graph_criterion_rejects_kappa_spec():
    with pytest.raises(IncidenceError):
        third_graph_criterion(kappa_spec("id"))


def test_kappa_family_has_no_third_clique():
    for phi in all_permutations(4):
        config = skew_perspective(kappa_spec(str(phi)))
        assert free_count(config, 5) == 2


def _three_cycle_pair_map():
    # {1,2} -> {3,4} -> {1,3} -> {1,2}: sends the intersecting pair
    # ({1,2},{1,3}) to the disjoint pair ({3,4},{1,2})
    from perspectra.perms import pair_perm_from_dict
    d = {u: u for u in pairs_of(4)}
    d[(1, 2)], d[(3, 4)], d[(1, 3)] = (3, 4), (1, 3), (1, 2)
    return pair_perm_from_dict(4, d)


def test_preserves_intersection():
    assert preserves_intersection(induced_pair_map(all_permutations(4)[5]))
    assert preserves_intersection(kappa_composed(all_permutations(4)[7]))
    # the complement swap preserves intersection even though it is not induced
    assert preserves_intersection(zeta())
    assert not preserves_intersection(_three_cycle_pair_map())


def test_classify_pair_skew():
    sigma = all_permutations(4)[10]
    cls = classify_pair_skew(induced_pair_map(sigma))
    assert cls.kind == "induced" and cls.phi == sigma
    cls = classify_pair_skew(kappa_composed(sigma))
    assert cls.kind == "complement" and cls.phi == sigma
    assert classify_pair_skew(zeta()).kind == "complement"
    assert classify_pair_skew(_three_cycle_pair_map()).kind == "nonpreserving"


def test_movecenter_condition_identity_skew():
    spec = perm_spec(4, "id")
    assert [i for i, _ in third_graph_criterion(spec)] == [1, 2, 3, 4]
    tau = movecenter_condition(spec, 1)
    assert tau is not None
    assert sorted(tau) == [2, 3, 4]
    with pytest.raises(IncidenceError):
        movecenter_condition(perm_spec(4, "(1,2,3,4)"), 1)


def test_reperspective_roundtrip_on_skew():
    spec = perm_spec(4, "(1,2)")
    config = skew_perspective(spec)
    g1 = [center()] + [a_point(i) for i in range(1, 5)]
    g2 = [center()] + [b_point(i) for i in range(1, 5)]
    out = reperspective(config, center(), g1, g2)
    assert out.n == 4
    assert out.delta.tag == "induced"
    from reference import cycle_type
    assert cycle_type(out.delta.phi) == (1, 1, 2)


def test_reperspective_rejects_non_perspective_pair():
    config = skew_perspective(perm_spec(4, "id"))
    g1 = [center()] + [a_point(i) for i in range(1, 5)]
    with pytest.raises(IncidenceError):
        reperspective(config, center(), g1, g1)


def test_reperspective_of_veronesian():
    from perspectra.incidence import free_point
    k = 4
    v = veronesian(k)
    q = free_point("a" * k)
    g1 = veronesian_two_letter_set(k, "a", "b")
    g2 = veronesian_two_letter_set(k, "c", "a")
    spec = reperspective(v, q, g1, g2)
    want = {(i, j): (j - i, j) for i, j in pairs_of(k)}
    assert spec.delta.as_dict() == want
