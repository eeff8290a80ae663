"""Structural analysis: free complete subgraphs, skew classification,
alternate centers and re-presentation of a configuration as a perspective.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .incidence import (Configuration, IncidenceError, PointLabel, a_point,
                        adjacency_indices, b_point, c_point, third_point)
from .perms import (PairPermutation, Permutation, all_permutations,
                    induced_pair_map, kappa_composed, pair_perm_from_dict,
                    pairs_of, star)
from .families import SkewPerspectiveSpec, skew_perspective
from .iso import are_isomorphic


def is_freely_contained(config: Configuration, vertices) -> bool:
    """Freeness from the definition: every edge lies on a line, the edge-to-
    line map is injective, and lines of disjoint edges share no point."""
    idxs = [config.index_of(v) for v in vertices]
    joins = config._joins
    edge_lines = {}
    for x, y in combinations(sorted(idxs), 2):
        line = joins.get((x, y))
        if line is None:
            return False
        edge_lines[(x, y)] = line
    if len(set(edge_lines.values())) != len(edge_lines):
        return False
    for e1, e2 in combinations(edge_lines, 2):
        if set(e1) & set(e2):
            continue
        if set(edge_lines[e1]) & set(edge_lines[e2]):
            return False
    return True


@dataclass(frozen=True)
class FreeGraphReport:
    size: int
    cliques: tuple
    free_sets: tuple


def _cliques_of_size(adj: list[set[int]], m: int) -> list[tuple[int, ...]]:
    """Every m-clique in lexicographic order, grown one vertex per level.  A
    clique carries the bitmask of its common neighbours above its last
    vertex, grows only by those, and is kept only while they can complete
    it."""
    later = [sum(1 << w for w in nbrs if w > v) for v, nbrs in enumerate(adj)]
    level = [((), (1 << len(adj)) - 1)]
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
    """All m-vertex freely contained complete subgraphs (and all m-cliques)."""
    if m < 0:
        raise IncidenceError(f"clique size must not be negative, got {m}")
    adj = adjacency_indices(config)
    cliques = _cliques_of_size(adj, m)
    free_sets = []
    all_cliques = []
    for cl in cliques:
        labs = tuple(config.points[i] for i in cl)
        all_cliques.append(labs)
        if is_freely_contained(config, labs):
            free_sets.append(labs)
    return FreeGraphReport(m, tuple(all_cliques), tuple(free_sets))


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
    complete graphs g1, g2 (which must intersect exactly in q)."""
    g1, g2 = list(g1), list(g2)
    if set(g1) & set(g2) != {q}:
        raise IncidenceError("not a perspective pair from q")
    if len(g1) != len(g2):
        raise IncidenceError("not a perspective pair from q")
    if not (is_freely_contained(config, g1) and is_freely_contained(config, g2)):
        raise IncidenceError("not a perspective pair from q")
    n = len(g1) - 1
    order = {lab: config.index_of(lab) for lab in config.points}
    a_side = sorted((x for x in g1 if x != q), key=order.get)
    g2_rest = set(x for x in g2 if x != q)
    b_side = []
    for x in a_side:
        y = third_point(config, q, x)
        if y is None or y not in g2_rest:
            raise IncidenceError("not a perspective pair from q")
        b_side.append(y)
    if set(b_side) != g2_rest:
        raise IncidenceError("not a perspective pair from q")
    a_index = {x: i + 1 for i, x in enumerate(a_side)}
    pair_of_c = {}
    for x, y in combinations(a_side, 2):
        e = third_point(config, x, y)
        if e is None or e in g1 or e in g2:
            raise IncidenceError("not a perspective pair from q")
        u = (a_index[x], a_index[y])
        if e in pair_of_c:
            raise IncidenceError("not a perspective pair from q")
        pair_of_c[e] = u
    b_index = {x: i + 1 for i, x in enumerate(b_side)}
    skew = {}
    for x, y in combinations(b_side, 2):
        f = third_point(config, x, y)
        if f is None or f not in pair_of_c:
            raise IncidenceError("not a perspective pair from q")
        u = pair_of_c[f]
        skew[u] = tuple(sorted((b_index[x], b_index[y])))
    delta = pair_perm_from_dict(n, skew)
    cls = classify_pair_skew(delta)
    if cls.kind == "induced":
        delta = induced_pair_map(cls.phi)
    elif cls.kind == "complement":
        delta = kappa_composed(cls.phi)
    axis_lines = []
    c_points = set(pair_of_c)
    for line in config.lines:
        labs = config.line_labels(line)
        if all(lab in c_points for lab in labs):
            axis_lines.append(tuple(
                c_point(*pair_of_c[lab]) for lab in labs))
    axis = Configuration.build(
        [c_point(i, j) for i, j in pairs_of(n)], axis_lines)
    spec = SkewPerspectiveSpec(n, delta, axis)
    rebuilt = skew_perspective(spec)
    if are_isomorphic(rebuilt, config) is None:
        raise IncidenceError("reperspective round-trip failed")
    return spec
