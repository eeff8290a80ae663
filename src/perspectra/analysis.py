"""Structural analysis: free complete subgraphs, skew classification,
alternate centers and re-presentation of a configuration as a perspective.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .incidence import (Configuration, IncidenceError, PointLabel, a_point,
                        b_point, c_point, require_partial_linear)
from .perms import (PairPermutation, Permutation, all_permutations,
                    induced_pair_map, kappa_composed, pair_perm_from_dict,
                    pairs_of, star)
from .families import (SkewPerspectiveSpec, _pair_axis, _read_perspective,
                       skew_perspective)
from .iso import is_isomorphism


def _is_free(joins: dict, clique) -> bool:
    """A clique of point indices, in increasing order, is free when every
    edge spans a line and the points of those lines off their edges are
    pairwise distinct and off the clique.  In a partial linear space that is
    the definition: two edges on one line put a clique point off one of
    them, and the lines of two disjoint edges can only meet off both.  A
    repeated vertex spans no line."""
    seen = 0
    for v in clique:
        seen |= 1 << v
    for x, y in combinations(clique, 2):
        line = joins.get((x, y))
        if line is None:
            return False
        for p in line:
            if p != x and p != y:
                if seen >> p & 1:
                    return False
                seen |= 1 << p
    return True


def is_freely_contained(config: Configuration, vertices) -> bool:
    """Whether the points span a freely contained complete subgraph: every
    edge lies on a line, the edge-to-line map is injective, and lines of
    disjoint edges share no point.  Raises IncidenceError unless config is
    a partial linear space whose lines all have one size."""
    require_partial_linear(config)
    return _is_free(config._joins, sorted(map(config.index_of, vertices)))


@dataclass(frozen=True)
class FreeGraphReport:
    size: int
    cliques: tuple
    free_sets: tuple


def _cliques_of_size(config: Configuration, m: int) -> list[tuple[int, ...]]:
    """Every m-clique of the collinearity graph in lexicographic order, grown
    one vertex per level.  A clique carries the bitmask of its common
    neighbours above its last vertex, grows only by those, and is kept only
    while they can complete it.  The join keys are ascending, v < w."""
    later = [0] * len(config.points)
    for v, w in config._joins:
        later[v] |= 1 << w
    level = [((), (1 << len(later)) - 1)]
    while level and len(level[0][0]) < m:
        need = m - len(level[0][0]) - 1
        level = [(clique + (w,), grown) for clique, common in level
                 for w in _bits(common)
                 if (grown := common & later[w]).bit_count() >= need]
    return [clique for clique, _ in level]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def free_complete_subgraphs(config: Configuration, m: int):
    """All m-vertex freely contained complete subgraphs (and all m-cliques)
    of a partial linear space whose lines all have one size."""
    if type(m) is not int:
        raise IncidenceError(f"clique size must be an int, got {m!r}")
    if m < 0:
        raise IncidenceError(f"clique size must not be negative, got {m}")
    require_partial_linear(config)
    cliques = _cliques_of_size(config, m)
    labels = [tuple(config.points[i] for i in cl) for cl in cliques]
    return FreeGraphReport(m, tuple(labels), tuple(
        labs for cl, labs in zip(cliques, labels) if _is_free(config._joins, cl)))


def free_count(config: Configuration, m: int) -> int:
    return len(free_complete_subgraphs(config, m).free_sets)


def third_graph_criterion(spec: SkewPerspectiveSpec):
    """Fixed points i0 of the skew's permutation whose star is a freely
    contained clique in the axis; each yields the predicted extra clique
    {a_i0, b_i0} union the star's c-points."""
    if spec.delta.tag != "induced":
        raise IncidenceError("criterion requires permutation skew")
    sigma = spec.delta.phi
    results = []
    for i0 in sigma.fixed_points():
        star_pts = [c_point(*u) for u in sorted(star(i0, spec.n))]
        if is_freely_contained(spec.axis, star_pts):
            graph = (a_point(i0), b_point(i0)) + tuple(star_pts)
            results.append((i0, graph))
    return results


@dataclass(frozen=True)
class SkewClass:
    kind: str                      # "induced" | "complement" | "nonpreserving"
    phi: Permutation | None = None


def preserves_intersection(delta: PairPermutation) -> bool:
    ps = pairs_of(delta.n)
    d = delta.as_dict()
    for u, v in combinations(ps, 2):
        meets = bool(set(u) & set(v))
        meets_img = bool(set(d[u]) & set(d[v]))
        if meets != meets_img:
            return False
    return True


def classify_pair_skew(delta: PairPermutation) -> SkewClass:
    n = delta.n
    if not preserves_intersection(delta):
        return SkewClass("nonpreserving")
    for phi in all_permutations(n):
        if induced_pair_map(phi).same_map(delta):
            return SkewClass("induced", phi)
    if n == 4:
        for phi in all_permutations(4):
            if kappa_composed(phi).same_map(delta):
                return SkewClass("complement", phi)
    return SkewClass("nonpreserving")


def reperspective(config: Configuration, q: PointLabel, g1, g2) -> SkewPerspectiveSpec:
    """Re-present config as a perspective with center q between the free
    complete graphs g1, g2 (which must intersect exactly in q); g1's other
    points, in index order, are a_1, ..., a_n."""
    g1, g2 = list(g1), list(g2)
    if (set(g1) & set(g2) != {q} or len(g1) != len(g2)
            or not (is_freely_contained(config, g1)
                    and is_freely_contained(config, g2))):
        raise IncidenceError("not a perspective pair from q")
    n = len(g1) - 1
    a_side = sorted(config.index_of(x) for x in g1 if x != q)
    read = _read_perspective(config, config.index_of(q), a_side)
    if read is None:
        raise IncidenceError("not a perspective pair from q")
    labels, skew, axis_lines = read
    rename = {config.points[v]: lab for v, lab in labels.items()}
    if {x for x, lab in rename.items() if lab.kind in ("p", "b")} != set(g2):
        raise IncidenceError("not a perspective pair from q")
    delta = pair_perm_from_dict(n, skew)
    cls = classify_pair_skew(delta)
    if cls.kind == "induced":
        delta = induced_pair_map(cls.phi)
    elif cls.kind == "complement":
        delta = kappa_composed(cls.phi)
    spec = SkewPerspectiveSpec(n, delta, _pair_axis(n, axis_lines))
    if not is_isomorphism(config, skew_perspective(spec), rename):
        raise IncidenceError("reperspective round-trip failed")
    return spec
