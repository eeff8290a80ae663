"""Free subgraphs, skew classification, alternate centers, reperspective."""

import pytest

from perspectra.incidence import IncidenceError, a_point, b_point, c_point, center
from perspectra.analysis import (classify_pair_skew, free_complete_subgraphs,
                                 free_count, is_freely_contained,
                                 preserves_intersection, reperspective,
                                 third_graph_criterion)
from perspectra.families import (desargues, grassmannian, kappa_spec,
                                 perm_spec, quasi_grassmannian,
                                 skew_perspective, veronesian, zeta)
from perspectra.perms import (all_permutations, induced_pair_map,
                              kappa_composed, pairs_of, star)

from reference import movecenter_condition, veronesian_two_letter_set


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
