"""Permutations, pair maps, partitions and the labeled-Veblen aut groups."""

import math

import pytest
from hypothesis import given, strategies as st

from perspectra.perms import (PairPermutation, Permutation, all_permutations,
                              identity, induced_pair_map, kappa, kappa_composed,
                              orbits, pair_perm_from_dict, pairs_of,
                              parse_cycles, partitions, star, top)

from reference import (are_conjugate, aut_group, conjugacy_reps_under,
                       cycle_type, representative_of_type)


perm_st = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))).map(
    lambda img: Permutation(tuple(img)))


def test_parse_cycles_examples():
    assert parse_cycles("id", 4) == identity(4)
    assert parse_cycles("(1,2,3,4)", 4).image == (2, 3, 4, 1)
    assert parse_cycles("(1,2)(3,4)", 4).image == (2, 1, 4, 3)
    assert parse_cycles("(2,3)", 3).image == (1, 3, 2)


@pytest.mark.parametrize("bad", ["(1,2", "(0,1)", "(1,1)", "(1,2)(2,3)", "xyz"])
def test_parse_cycles_rejects(bad):
    with pytest.raises(ValueError):
        parse_cycles(bad, 4)


@given(perm_st)
def test_str_parse_roundtrip(sigma):
    assert parse_cycles(str(sigma), sigma.n) == sigma


@given(perm_st)
def test_inverse_composes_to_identity(sigma):
    assert sigma.compose(sigma.inverse()) == identity(sigma.n)
    assert sigma.inverse().compose(sigma) == identity(sigma.n)


def test_cycle_type_and_fixed_points():
    sigma = parse_cycles("(1,2,3)(4,5)", 6)
    assert cycle_type(sigma) == (1, 2, 3)
    assert sigma.fixed_points() == [6]


@given(perm_st, st.randoms())
def test_conjugation_witness(sigma, rng):
    imgs = list(range(1, sigma.n + 1))
    rng.shuffle(imgs)
    alpha = Permutation(tuple(imgs))
    tau = alpha.compose(sigma).compose(alpha.inverse())
    ok, witness = are_conjugate(sigma, tau)
    assert ok
    assert witness.compose(sigma).compose(witness.inverse()) == tau


def test_non_conjugate_detected():
    ok, witness = are_conjugate(parse_cycles("(1,2)", 4),
                                parse_cycles("(1,2,3)", 4))
    assert not ok and witness is None


def test_partitions_counts():
    # oracle: P(3)=3, P(4)=5, P(5)=7, P(6)=11
    for n, total in [(3, 3), (4, 5), (5, 7), (6, 11)]:
        parts = partitions(n)
        assert total == len(parts) == len(set(parts))
        assert all(sum(pt) == n for pt in parts)


def test_representative_of_type():
    rep = representative_of_type((1, 1, 2), 4)
    assert cycle_type(rep) == (1, 1, 2)
    assert rep.image == (1, 2, 4, 3)


def test_induced_pair_map_is_functorial():
    for s1 in all_permutations(4)[:8]:
        for s2 in all_permutations(4)[:8]:
            lhs = induced_pair_map(s1.compose(s2))
            rhs = induced_pair_map(s1).compose(induced_pair_map(s2))
            assert lhs.same_map(rhs)


def test_kappa_is_an_involution_commuting_with_induced_maps():
    k = kappa()
    assert k.compose(k).same_map(induced_pair_map(identity(4)))
    for phi in all_permutations(4):
        assert k.compose(induced_pair_map(phi)).same_map(
            induced_pair_map(phi).compose(k))


def test_kappa_composed_values():
    d = kappa_composed(parse_cycles("(1,2)", 4)).as_dict()
    # u -> complement of {phi(i), phi(j)}
    assert d[(1, 2)] == (3, 4)
    assert d[(1, 3)] == (1, 4)
    assert d[(3, 4)] == (1, 2)


def test_star_and_top():
    assert star(1, 4) == frozenset({(1, 2), (1, 3), (1, 4)})
    assert top((1, 2, 3)) == frozenset({(1, 2), (1, 3), (2, 3)})
    with pytest.raises(ValueError):
        top((1, 2))


def test_pair_permutation_rejects_non_bijection():
    ps = pairs_of(4)
    mapping = tuple((u, (1, 2)) for u in ps)
    with pytest.raises(ValueError):
        PairPermutation(4, mapping)


def test_pair_permutation_requires_source_pairs_in_order():
    # a map stored out of order, or as a list, once compared unequal to the
    # same map stored in order, and printed out of order
    mapping = induced_pair_map(parse_cycles("(1,2)", 4)).mapping
    with pytest.raises(ValueError, match="pairs_of order"):
        PairPermutation(4, tuple(reversed(mapping)))
    with pytest.raises(ValueError, match="must be a tuple"):
        PairPermutation(4, list(mapping))
    assert PairPermutation(4, mapping).same_map(pair_perm_from_dict(4, dict(mapping)))


def test_conjugacy_reps_under_full_group_matches_partitions():
    for n in (3, 4):
        reps = conjugacy_reps_under(all_permutations(n), n)
        assert len(reps) == len(partitions(n))
        assert len({cycle_type(r) for r in reps}) == len(reps)


def test_conjugacy_reps_rejects_non_subgroup():
    with pytest.raises(ValueError):
        conjugacy_reps_under([parse_cycles("(1,2)", 3)], 3)


def test_veblen_aut_group_sizes():
    from perspectra.families import veblen_catalog
    cat = veblen_catalog()
    for name, axis in cat.items():
        ind, kap = aut_group(axis)
        # the stabilizer sizes must divide 24 and include the identity
        assert identity(4) in ind
        assert math.gcd(len(ind), 24) == len(ind)
        # every induced map preserves G and G*, while the complement map
        # swaps top-lines with star-lines, so no kappa-composed map fixes them
        if name in ("G", "G*"):
            assert len(ind) == 24 and len(kap) == 0


def _table(size, *cycles):
    table = list(range(size))
    for cycle in cycles:
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            table[x] = y
    return table


def test_orbits_of_a_small_group():
    # <(6 7), (5 6), (3 1 7)> on range(8): the orbit {1, 3, 5, 6, 7} is joined
    # through roots that are not its smallest member
    gens = [_table(8, (6, 7)), _table(8, (5, 6)), _table(8, (3, 1, 7))]
    assert orbits(8, gens) == [[0], [1, 3, 5, 6, 7], [2], [4]]
    assert orbits(8, gens[::-1]) == orbits(8, gens)
    assert orbits(3, []) == [[0], [1], [2]]
    assert orbits(0, []) == []


def test_orbits_of_conjugation_are_the_cycle_types():
    # S4 acting on itself by conjugation, generated by (1,2) and (1,2,3,4):
    # the orbits are the five conjugacy classes, checked against the closure
    perms = all_permutations(4)
    index = {sigma.image: s for s, sigma in enumerate(perms)}
    gens = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3,4)", 4)]
    tables = [[index[tau.compose(sigma).compose(tau.inverse()).image]
               for sigma in perms] for tau in gens]
    closure = {frozenset(index[tau.compose(sigma).compose(tau.inverse()).image]
                         for tau in perms) for sigma in perms}
    found = orbits(len(perms), tables)
    assert sorted(map(frozenset, found), key=min) == sorted(closure, key=min)
    assert [len(orbit) for orbit in found] == [1, 6, 8, 3, 6]
    assert all(orbit == sorted(orbit) for orbit in found)
    assert [orbit[0] for orbit in found] == sorted(orbit[0] for orbit in found)


def test_malformed_permutations_are_rejected():
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError, match="correlation undefined"):
        kappa_composed(identity(3))
