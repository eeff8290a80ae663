"""Canonical forms, the generic isomorphism engine, and the two
criterion-based tests for the skew families."""

import dataclasses
import functools
import math
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from perspectra import iso
from perspectra.incidence import (Configuration, IncidenceError, a_point,
                                  free_point)
from perspectra.families import (SkewPerspectiveSpec, all_veblen_labelings,
                                 desargues, fez, grassmannian, kantor,
                                 kappa_spec, perm_spec, skew_perspective,
                                 veblen_catalog, veronesian, zeta)
from perspectra.iso import (are_isomorphic, automorphism_count, canonical_form,
                            criterion_iso, is_isomorphism)
from perspectra.perms import LIFTS, all_permutations
from perspectra.realize import _plane
from reference import refine_by_sorting, seed_by_sets


def _relabel(config, perm):
    """Forget structure: free labels permuted by the index map perm."""
    names = {i: free_point(f"v{perm[i]}") for i in range(len(config.points))}
    pts = list(names.values())
    lines = [tuple(names[i] for i in line) for line in config.lines]
    return Configuration.build(pts, lines)


def test_canonical_form_separates_the_three_triangle_types():
    certs = {canonical_form(c).cert for c in (desargues(), fez(), kantor())}
    assert len(certs) == 3


def test_automorphism_counts_of_grassmannians():
    # oracle: Aut(G(n,2)) = S_n acting on the 2-subsets of {1..n}
    for n in range(4, 10):
        assert automorphism_count(grassmannian(n)) == math.factorial(n)


def test_automorphism_count_desargues():
    assert automorphism_count(desargues()) == 120


def test_automorphism_counts_of_fez_and_kantor():
    assert automorphism_count(fez()) == 6
    assert automorphism_count(kantor()) == 12


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_canonical_cert_is_relabeling_invariant(census_report, data):
    entry = data.draw(st.sampled_from(census_report.entries))
    for base in (fez(), skew_perspective(entry.representative)):
        relabeled = _relabel(base, data.draw(st.permutations(range(len(base.points)))))
        form, moved = canonical_form(base), canonical_form(relabeled)
        assert (moved.cert, moved.aut_order) == (form.cert, form.aut_order)
        witness = are_isomorphic(base, relabeled)
        assert witness is not None
        assert is_isomorphism(base, relabeled, witness)


@pytest.mark.parametrize("config", [desargues(), grassmannian(6)],
                         ids=["desargues", "G6"])
def test_canonical_form_stats(config):
    form = canonical_form(config)
    stats = form.stats
    assert set(stats) == {"nodes", "leaves", "refine_rounds", "generators",
                          "elapsed_s"}
    # one refinement per node and at least one round each; generators
    # counts the automorphisms the search stored, one per leaf equal to the
    # best, so it need not stay within log2 |Aut|, though it does here
    assert 1 <= stats["leaves"] <= stats["nodes"] <= stats["refine_rounds"]
    assert 1 <= 2 ** stats["generators"] <= form.aut_order
    assert stats["elapsed_s"] > 0
    # stats are not part of the form's identity
    assert form == dataclasses.replace(form, stats={})


def test_stored_automorphisms_generate_the_counted_group(census_report):
    # oracle: sympy's Schreier-Sims order of the group the stored
    # automorphisms generate equals the search's leaf count
    combinatorics = pytest.importorskip("sympy.combinatorics")
    configs = [skew_perspective(e.representative) for e in census_report.entries]
    assert len(configs) == 68
    for config in configs + [grassmannian(n) for n in range(4, 10)]:
        search = iso._CanonSearch(len(config.points), config.lines)
        order = search.run(search.refine(search.seed()), [])
        assert order == canonical_form(config).aut_order
        points = config.points
        for g in search.gens:
            assert is_isomorphism(config, config,
                                  {points[v]: points[g[v]] for v in range(len(g))})
        gens = [combinatorics.Permutation(list(g)) for g in search.gens]
        identity = combinatorics.Permutation(len(points) - 1)
        assert combinatorics.PermutationGroup(gens or [identity]).order() == order


@pytest.mark.parametrize("config", [desargues(), fez(), kantor(), grassmannian(4),
                                    grassmannian(5)],
                         ids=["desargues", "fez", "kantor", "G4", "G5"])
def test_automorphism_count_matches_vf2(config):
    # oracle: VF2 counts the automorphisms of the point-line incidence graph
    # that keep points and lines apart
    nx = pytest.importorskip("networkx")
    levi = nx.Graph()
    levi.add_nodes_from((("p", v) for v in range(len(config.points))), kind="p")
    levi.add_nodes_from((("l", i) for i in range(len(config.lines))), kind="l")
    levi.add_edges_from((("p", v), ("l", i))
                        for i, line in enumerate(config.lines) for v in line)
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        levi, levi, node_match=lambda a, b: a["kind"] == b["kind"])
    assert sum(1 for _ in matcher.isomorphisms_iter()) == \
        automorphism_count(config)


def test_are_isomorphic_returns_checked_witness():
    w2 = veblen_catalog()["W2"]
    g = veblen_catalog()["G"]
    witness = are_isomorphic(w2, g)
    assert witness is not None and is_isomorphism(w2, g, witness)


def test_non_isomorphic_pairs_return_none():
    assert are_isomorphic(fez(), kantor()) is None
    c1 = skew_perspective(perm_spec(4, "id"))
    c2 = skew_perspective(kappa_spec("id"))
    assert are_isomorphic(c1, c2) is None


def test_is_isomorphism_rejects_wrong_maps():
    d = desargues()
    identity_map = {x: x for x in d.points}
    assert is_isomorphism(d, d, identity_map)
    bad = dict(identity_map)
    ks = list(bad)
    bad[ks[0]], bad[ks[1]] = bad[ks[1]], bad[ks[0]]
    # swapping a center with a side point breaks some line
    assert not is_isomorphism(d, d, bad)


def test_canonical_form_rejects_non_partial_linear_input():
    pts = [free_point(s) for s in "wxyz"]
    bad = Configuration.build(pts, [tuple(pts[:3]), (pts[0], pts[1], pts[3])])
    with pytest.raises(IncidenceError):
        canonical_form(bad)
    # built directly, with no normalization
    with pytest.raises(IncidenceError, match="not partially linear"):
        canonical_form(Configuration(tuple(pts), ((0, 1, 2), (0, 1, 3))))


def test_criterion_iso_perm_agrees_on_conjugates():
    axis = veblen_catalog()["W2"]
    s = all_permutations(4)
    spec1 = perm_spec(4, "(1,2)", axis)
    for alpha in s[:10]:
        from perspectra.perms import induced_pair_map
        from perspectra.families import apply_pair_map_to_axis
        sigma2 = alpha.compose(spec1.delta.phi).compose(alpha.inverse())
        axis2 = apply_pair_map_to_axis(induced_pair_map(alpha), axis)
        spec2 = perm_spec(4, str(sigma2), axis2)
        mapping = criterion_iso(spec1, spec2)
        assert mapping is not None


def test_criterion_iso_perm_none_on_distinct_types():
    assert criterion_iso(perm_spec(4, "id"), perm_spec(4, "(1,2)")) is None
    with pytest.raises(IncidenceError):
        criterion_iso(perm_spec(4, "id"), kappa_spec("id"))


def test_criterion_iso_kappa_basic():
    assert criterion_iso(kappa_spec("id"), kappa_spec("id")) is not None
    assert criterion_iso(kappa_spec("id"), kappa_spec("(1,2,3,4)")) is None
    with pytest.raises(IncidenceError):
        criterion_iso(kappa_spec("id"), perm_spec(4, "id"))


def test_criterion_iso_rejects_general_skews():
    general = SkewPerspectiveSpec(4, zeta(), grassmannian(4))
    for pair in ((general, general), (general, kappa_spec("(1,2)(3,4)")),
                 (kappa_spec("(1,2)(3,4)"), general)):
        with pytest.raises(IncidenceError):
            criterion_iso(*pair)


def test_canonical_cache_is_bounded(monkeypatch):
    cached = functools.lru_cache(maxsize=3)(iso._canonical.__wrapped__)
    monkeypatch.setattr(iso, "_canonical", cached)
    configs = [desargues(), fez(), kantor(), grassmannian(4), grassmannian(6)]
    fresh = [dataclasses.replace(canonical_form(c), stats={}) for c in configs]
    info = cached.cache_info
    assert (info().misses, info().currsize) == (5, 3)   # 2, 3 and 4 kept
    canonical_form(configs[2])          # a hit becomes the most recent
    canonical_form(configs[0])          # a miss evicts the least recent, 3
    assert (info().hits, info().misses) == (1, 6)
    for c in (configs[4], configs[2], configs[0]):
        canonical_form(c)               # all three kept
    assert (info().hits, info().misses) == (4, 6)
    canonical_form(configs[3])          # evicted
    assert (info().hits, info().misses) == (4, 7)
    # evicted forms are computed again, equal to the first ones
    again = [dataclasses.replace(canonical_form(c), stats={}) for c in configs]
    assert again == fresh
    assert info().currsize == 3


def test_criterion_matches_generic_on_catalog_axes():
    cat = veblen_catalog()
    specs = [perm_spec(4, sk, cat[name])
             for sk in ("id", "(1,2)", "(1,2,3,4)")
             for name in ("G", "W2", "V5")]
    for s1 in specs:
        for s2 in specs:
            generic = are_isomorphic(skew_perspective(s1), skew_perspective(s2))
            crit = criterion_iso(s1, s2)
            if crit is not None:
                assert generic is not None
            if generic is None:
                assert crit is None


def _assert_kernel_matches_sorting(n, lines):
    """The bitmask seed and the multiplicity-keyed refinement give the
    colors of the sorting reference: at the root, and after individualizing
    each point, which gives that point the color -1."""
    search = iso._CanonSearch(n, lines)
    seed = search.seed()
    assert seed == seed_by_sets(search)
    root = search.refine(seed)
    assert root == refine_by_sorting(search, seed)
    for v in range(n):
        colors = [2 * c for c in root]
        colors[v] -= 1
        assert search.refine(colors) == refine_by_sorting(search, colors)


def _pg2_3():
    points, line_mask = _plane(3)
    return len(points), tuple(tuple(i for i in range(len(points)) if m >> i & 1)
                              for m in line_mask)


def test_refinement_matches_the_sorting_reference():
    labelings = all_veblen_labelings()
    census = [skew_perspective(SkewPerspectiveSpec(4, lift(sigma), axis))
              for lift in LIFTS.values()
              for sigma in all_permutations(4)[::3]
              for axis in labelings[::4]]
    named = [grassmannian(n) for n in range(4, 10)] + [
        desargues(), fez(), kantor(), veronesian(4)]
    for config in census + named:
        _assert_kernel_matches_sorting(len(config.points), config.lines)
    n, lines = _pg2_3()
    assert (n, len(lines), {len(line) for line in lines}) == (13, 13, {4})
    _assert_kernel_matches_sorting(n, lines)


@st.composite
def partial_linear_spaces(draw):
    """Up to 15 points and 3-point lines, any two meeting in at most one
    point; the ranks are mixed, isolated points included."""
    n = draw(st.integers(3, 15))
    triples = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3),
                            max_size=30))
    lines, covered = [], set()
    for triple in triples:
        pairs = set(combinations(sorted(triple), 2))
        if len(pairs) == 3 and not pairs & covered:
            lines.append(tuple(sorted(triple)))
            covered |= pairs
    return n, tuple(sorted(lines))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(partial_linear_spaces())
def test_refinement_matches_the_sorting_reference_on_random_spaces(space):
    _assert_kernel_matches_sorting(*space)


def _assert_lines_follow_positions(n, lines):
    form = iso._canonical(n, lines)
    assert form.lines == tuple(sorted(tuple(sorted(form.position[v] for v in line))
                                      for line in lines))


def test_canonical_lines_are_the_lines_at_their_positions():
    # the leaf compares line lists as bitmask keys; decoded, the best leaf's
    # list is the input's lines moved to their canonical positions and sorted
    for config in [grassmannian(9), veronesian(4), desargues()]:
        _assert_lines_follow_positions(len(config.points), config.lines)
    _assert_lines_follow_positions(*_pg2_3())
    _assert_lines_follow_positions(4, ((0, 1), (0, 2), (1, 3)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(partial_linear_spaces())
def test_canonical_lines_are_the_lines_at_their_positions_on_random_spaces(space):
    _assert_lines_follow_positions(*space)


def test_is_isomorphism_rejects_partial_and_foreign_maps():
    config = desargues()
    identity_map = {lab: lab for lab in config.points}
    assert is_isomorphism(config, config, identity_map)
    missing = dict(identity_map)
    del missing[config.points[0]]
    assert not is_isomorphism(config, config, missing)
    foreign = dict(identity_map)
    foreign[config.points[0]] = free_point("q")
    assert not is_isomorphism(config, config, foreign)


def test_is_isomorphism_compares_labels_not_their_strings():
    # free_point("a1") prints as a_point(1) but is another label
    config = desargues()
    identity_map = {lab: lab for lab in config.points}
    look_alike = free_point("a1")
    assert str(look_alike) == str(a_point(1))
    as_key = dict(identity_map)
    as_key[look_alike] = as_key.pop(a_point(1))
    assert not is_isomorphism(config, config, as_key)
    as_value = dict(identity_map)
    as_value[a_point(1)] = look_alike
    assert not is_isomorphism(config, config, as_value)
