"""Construction families: skew perspectives, Veblen labelings, multiveblen,
Veronesians, quasi-Grassmannians and the named small instances."""

import hashlib
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from perspectra.incidence import (IncidenceError, a_point, b_point, c_point,
                                  center, free_point, from_json, to_json_dict,
                                  verify)
from perspectra.families import (SkewPerspectiveSpec, _line_pair_sets,
                                 _read_perspective, all_veblen_labelings,
                                 apply_pair_map_to_axis, complete_graph,
                                 count_star_lines, count_top_lines, desargues,
                                 enumerate_veblen, fez, grassmannian, kantor,
                                 kappa_spec, multiveblen, path_graph,
                                 perm_spec, quasi_grassmannian,
                                 quasi_grassmannian_perm, skew_perspective,
                                 veblen_catalog, veronesian, zeta)
from perspectra.perms import (all_permutations, induced_pair_map, kappa,
                              kappa_composed, pair_perm_from_dict, pairs_of)
from perspectra.iso import are_isomorphic, is_isomorphism

from reference import (cycle_type, empty_graph, grassmannian_by_labels,
                       pair_map_axis_by_labels, veronesian_two_letter_set)


def test_skew_perspective_signature():
    # oracle: (C(n+2,2), n, C(n+2,3), 3) for every n and skew
    for n in (3, 4, 5):
        config = skew_perspective(perm_spec(n, "id"))
        sig = verify(config)
        assert sig.as_tuple() == (comb(n + 2, 2), n, comb(n + 2, 3), 3)


def test_identity_skew_reproduces_grassmannian():
    # Pi(n, id, G(n,2)) is G(n+2,2) in disguise
    for n in (3, 4, 5):
        config = skew_perspective(perm_spec(n, "id"))
        assert are_isomorphic(config, grassmannian(n + 2)) is not None


def test_skew_perspective_b_lines_follow_the_skew():
    from perspectra.incidence import third_point
    spec = perm_spec(4, "(1,2,3,4)")
    config = skew_perspective(spec)
    for u, (i, j) in spec.delta.mapping:
        # the b-side edge {b_i, b_j} lies on the c-point the skew sends to {i,j}
        assert third_point(config, b_point(i), b_point(j)) == c_point(*u)
        assert third_point(config, a_point(u[0]), a_point(u[1])) == c_point(*u)
        assert third_point(config, center(), a_point(i)) == b_point(i)


def test_spec_rejects_bad_axis():
    with pytest.raises(IncidenceError):
        perm_spec(4, "id", grassmannian(5))
    # a non-binomial line set over the right points
    pts = [c_point(i, j) for i, j in pairs_of(4)]
    broken = grassmannian(4)
    lines = [broken.line_labels(l) for l in broken.lines][:3]
    from perspectra.incidence import Configuration
    with pytest.raises(IncidenceError):
        perm_spec(4, "id", Configuration.build(pts, lines))


def test_zeta_skew_is_secretly_complement_composed():
    # the {1,2} <-> {3,4} swap coincides with kappa composed with (1,2)(3,4),
    # so it builds a valid binomial configuration with two free K5s
    from perspectra.perms import kappa_composed, parse_cycles
    z = zeta()
    assert z.same_map(kappa_composed(parse_cycles("(1,2)(3,4)", 4)))
    config = skew_perspective(SkewPerspectiveSpec(4, z, grassmannian(4)))
    assert verify(config).as_tuple() == (15, 4, 20, 3)
    from perspectra.analysis import free_count
    assert free_count(config, 5) == 2


def test_veblen_labelings_count_and_validity():
    labelings = all_veblen_labelings()
    assert len(labelings) == 30
    for axis in labelings:
        assert verify(axis).as_tuple() == (6, 2, 4, 3)


def test_veblen_labelings_are_pinned():
    # every labelling's points and lines, in the order of the census's
    # labelling indices
    text = json.dumps([to_json_dict(axis) for axis in all_veblen_labelings()])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "27b6f2f4c7c98fa093f901e1d939b22afe91de9bf555a769a3df12cc70c78d0c"


def test_veblen_orbit_structure():
    enum = enumerate_veblen()
    sizes = sorted(len(o) for o in enum.orbits)
    assert sizes == [2, 12, 16]
    assert enum.catalog_exhaustive
    # G and G* share an orbit; so do W2/V4 and V5/V6
    co = enum.catalog_orbit
    assert co["G"] == co["G*"]
    assert co["W2"] == co["V4"]
    assert co["V5"] == co["V6"]
    assert len({co["G"], co["W2"], co["V5"]}) == 3


def test_veblen_orbits_are_pinned():
    # indices into all_veblen_labelings(), in enumeration order
    assert enumerate_veblen().orbits == (
        (0, 6),
        (1, 2, 5, 7, 8, 11, 12, 13, 20, 22, 27, 29),
        (3, 4, 9, 10, 14, 15, 16, 17, 18, 19, 21, 23, 24, 25, 26, 28))


def test_veblen_catalog_shape():
    cat = veblen_catalog()
    assert set(cat) == {"G", "G*", "W2", "V4", "V5", "V6"}
    g = cat["G"]
    assert count_top_lines(g) == 4 and count_star_lines(g) == 0
    assert count_top_lines(cat["G*"]) == 0 and count_star_lines(cat["G*"]) == 4
    assert count_top_lines(cat["V5"]) == 1 and count_star_lines(cat["V5"]) == 0
    # kappa swaps tops and stars
    assert count_star_lines(apply_pair_map_to_axis(kappa(), cat["V5"])) == 1


def test_axes_match_their_label_level_builds():
    # every labelling under all 48 maps u -> phi(u), kappa(phi(u)), and G(n, 2)
    maps = [f(phi) for phi in all_permutations(4)
            for f in (induced_pair_map, kappa_composed)]
    for axis in all_veblen_labelings():
        for pmap in maps:
            assert apply_pair_map_to_axis(pmap, axis) == \
                pair_map_axis_by_labels(pmap, axis)
    for n in range(3, 9):
        assert grassmannian(n) == grassmannian_by_labels(n)


def test_multiveblen_complete_graph_is_plain_skew():
    g4 = grassmannian(4)
    assert multiveblen(4, complete_graph(4), g4) == \
        skew_perspective(perm_spec(4, "id"))


def test_multiveblen_signature_all_graphs():
    g4 = grassmannian(4)
    for edges in (empty_graph(4), path_graph(4), {(1, 2)}, complete_graph(4)):
        config = multiveblen(4, edges, g4)
        assert verify(config).as_tuple() == (15, 4, 20, 3)


@pytest.mark.parametrize("edges", [{(1, 9)}, {(1, 1)}, {(0, 1)}, {(1, 2, 3)}],
                         ids=["out-of-range", "loop", "zero", "triple"])
def test_multiveblen_rejects_edges_outside_the_pairs(edges):
    with pytest.raises(IncidenceError):
        multiveblen(4, edges | {(1, 2)}, grassmannian(4))


def test_veronesian_small_cases():
    # V(3,2) is the Veblen configuration, V(3,3) has Kantor's parameters
    assert verify(veronesian(2)).as_tuple() == (6, 2, 4, 3)
    assert verify(veronesian(3)).as_tuple() == (10, 3, 10, 3)
    assert verify(veronesian(4)).as_tuple() == (15, 4, 20, 3)
    assert verify(veronesian(5)).as_tuple() == (21, 5, 35, 3)


def test_veronesian_two_letter_sets():
    xs = veronesian_two_letter_set(3, "a", "b")
    assert [str(x) for x in xs] == ["aaa", "aab", "abb", "bbb"]
    v = veronesian(3)
    from perspectra.analysis import is_freely_contained
    assert is_freely_contained(v, xs)


def test_quasi_grassmannian_perm():
    assert str(quasi_grassmannian_perm(4)) == "(1,2)(3,4)"
    assert str(quasi_grassmannian_perm(5)) == "(2,3)(4,5)"
    assert cycle_type(quasi_grassmannian_perm(6)) == (2, 2, 2)
    assert verify(quasi_grassmannian(4)).as_tuple() == (15, 4, 20, 3)


def test_named_triangle_perspectives_are_distinct():
    d, f, k = desargues(), fez(), kantor()
    for cfg in (d, f, k):
        assert verify(cfg).as_tuple() == (10, 3, 10, 3)
    assert are_isomorphic(d, f) is None
    assert are_isomorphic(d, k) is None
    assert are_isomorphic(f, k) is None
    assert are_isomorphic(d, grassmannian(5)) is not None


def test_kappa_spec_builds():
    config = skew_perspective(kappa_spec("id"))
    assert verify(config).as_tuple() == (15, 4, 20, 3)


def test_constructors_reject_out_of_range_parameters():
    with pytest.raises(IncidenceError, match="no lines"):
        grassmannian(2)
    with pytest.raises(IncidenceError, match="degree must be positive"):
        veronesian(0)
    with pytest.raises(IncidenceError, match="defined for n >= 4"):
        quasi_grassmannian_perm(3)
    with pytest.raises(IncidenceError, match="skew degree mismatch"):
        SkewPerspectiveSpec(5, kappa(), grassmannian(5))
    with pytest.raises(IncidenceError, match="axis mismatch"):
        multiveblen(3, set(), grassmannian(4))


def test_a_general_skew_is_described_by_its_pairs():
    spec = SkewPerspectiveSpec(4, zeta(), grassmannian(4))
    assert spec.describe_skew() == (
        "general:{1,2}->{3,4};{1,3}->{1,3};{1,4}->{1,4};"
        "{2,3}->{2,3};{2,4}->{2,4};{3,4}->{1,2}")


@st.composite
def _relabelled_perspectives(draw):
    """A skew perspective on any pair bijection, with G(n) renamed by any
    pair bijection or (n = 4) any Veblen labelling as its axis, and fresh
    shuffled names for its points."""
    n = draw(st.integers(3, 6))
    pairs = pairs_of(n)

    def pair_map():
        return pair_perm_from_dict(n, dict(zip(pairs, draw(st.permutations(pairs)))))

    if n == 4 and draw(st.booleans()):
        axis = draw(st.sampled_from(all_veblen_labelings()))
    else:
        axis = apply_pair_map_to_axis(pair_map(), grassmannian(n))
    spec = SkewPerspectiveSpec(n, pair_map(), axis)
    names = draw(st.permutations([f"v{i}" for i in range(comb(n + 2, 2))]))
    return spec, names


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_relabelled_perspectives())
def test_read_perspective_inverts_skew_perspective(drawn):
    spec, names = drawn
    config = skew_perspective(spec)
    data = to_json_dict(config)
    data["points"] = names
    moved = from_json(json.dumps(data))
    image = [moved.index_of(free_point(name)) for name in names]
    p = image[config.index_of(center())]
    a_side = [image[config.index_of(a_point(i))] for i in range(1, spec.n + 1)]
    labels, delta, axis = _read_perspective(moved, p, a_side)
    assert delta == spec.delta.as_dict()
    assert axis == _line_pair_sets(spec.axis)
    assert labels == {image[k]: lab for k, lab in enumerate(config.points)}
    assert is_isomorphism(moved, config, {moved.points[v]: lab
                                          for v, lab in labels.items()})
    # two new points on a new line, and a line from a_1 to c_23, which
    # shares no line with it
    size = len(names)
    for points, line in ((names + ["w0", "w1"], [size, size + 1]),
                         (names, [config.index_of(a_point(1)),
                                  config.index_of(c_point(2, 3))])):
        extra = dict(data, points=points, lines=data["lines"] + [line])
        assert _read_perspective(from_json(json.dumps(extra)), p, a_side) is None
