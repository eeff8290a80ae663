"""Configuration families: Grassmannians, skew perspectives, the Veblen
labeling catalog and its exhaustive enumerator, multiveblen configurations,
Veronesians and quasi-Grassmannians.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .incidence import (Configuration, IncidenceError, a_point, b_point,
                        c_point, center, free_point, require_signature)
from .perms import (PairPermutation, Permutation, all_permutations,
                    induced_pair_map, kappa, kappa_composed,
                    pair_perm_from_dict, pairs_of, parse_cycles, star, top)


def grassmannian(n: int) -> Configuration:
    """Points: 2-subsets of {1..n}; lines: the 2-subsets of each 3-subset."""
    if n < 3:
        raise IncidenceError("no lines")
    points = [c_point(i, j) for i, j in pairs_of(n)]
    lines = [tuple(c_point(*u) for u in top(Y))
             for Y in combinations(range(1, n + 1), 3)]
    return Configuration.build(points, lines)


@dataclass(frozen=True)
class SkewPerspectiveSpec:
    n: int
    delta: PairPermutation
    axis: Configuration

    def __post_init__(self):
        if self.delta.n != self.n:
            raise IncidenceError("skew degree mismatch")
        expected = {c_point(i, j) for i, j in pairs_of(self.n)}
        if set(self.axis.points) != expected:
            raise IncidenceError("axis not a binomial PSTS")
        require_signature(self.axis, (comb(self.n, 2), self.n - 2,
                                      comb(self.n, 3), 3),
                          "axis not a binomial PSTS")

    def describe_skew(self) -> str:
        if self.delta.tag == "induced":
            return str(self.delta.phi)
        if self.delta.tag == "kappa":
            return f"{self.delta.phi} . kappa"
        return "general:" + ";".join(
            "{%d,%d}->{%d,%d}" % (u + v) for u, v in self.delta.mapping)


def perm_spec(n: int, sigma, axis: Configuration | None = None) -> SkewPerspectiveSpec:
    if isinstance(sigma, str):
        sigma = parse_cycles(sigma, n)
    if axis is None:
        axis = grassmannian(n)
    return SkewPerspectiveSpec(n, induced_pair_map(sigma), axis)


def kappa_spec(phi, axis: Configuration | None = None) -> SkewPerspectiveSpec:
    if isinstance(phi, str):
        phi = parse_cycles(phi, 4)
    if axis is None:
        axis = grassmannian(4)
    return SkewPerspectiveSpec(4, kappa_composed(phi), axis)


def _perspective(n: int, side_lines, axis: Configuration, what: str) -> Configuration:
    """The center p joined to a_i and b_i, the given a/b-side lines, and the
    axis lines on the c-points; verified to be a binomial configuration."""
    points = [center()]
    points += [a_point(i) for i in range(1, n + 1)]
    points += [b_point(i) for i in range(1, n + 1)]
    points += [c_point(i, j) for i, j in pairs_of(n)]
    lines = [(center(), a_point(i), b_point(i)) for i in range(1, n + 1)]
    lines += side_lines
    lines += [axis.line_labels(line) for line in axis.lines]
    config = Configuration.build(points, lines)
    require_signature(config, (comb(n + 2, 2), n, comb(n + 2, 3), 3),
                      f"{what} failed verification")
    return config


def skew_perspective(spec: SkewPerspectiveSpec) -> Configuration:
    """Join two complete graphs through a center with edge-correspondence
    delta and the given axis on the c-points."""
    dinv = spec.delta.inverse()
    side_lines = []
    for i, j in pairs_of(spec.n):
        side_lines.append((a_point(i), a_point(j), c_point(i, j)))
        side_lines.append((b_point(i), b_point(j), c_point(*dinv((i, j)))))
    return _perspective(spec.n, side_lines, spec.axis, "construction")


def zeta() -> PairPermutation:
    """The pair map swapping {1,2} with its complement {3,4}, fixing the rest.

    Despite appearances this map preserves edge-intersection: it coincides
    with the complement map composed with (1,2)(3,4), as classify_pair_skew
    confirms."""
    d = {u: u for u in pairs_of(4)}
    d[(1, 2)] = (3, 4)
    d[(3, 4)] = (1, 2)
    return pair_perm_from_dict(4, d)


# ---------------------------------------------------------------------------
# Veblen labelings on the 2-subsets of {1,2,3,4}

def _axis_from_pair_lines(pair_lines) -> Configuration:
    points = [c_point(i, j) for i, j in pairs_of(4)]
    lines = [tuple(c_point(*u) for u in line) for line in pair_lines]
    return Configuration.build(points, lines)


def apply_pair_map_to_axis(pmap: PairPermutation, axis: Configuration) -> Configuration:
    lines = []
    for line in axis.lines:
        labs = axis.line_labels(line)
        lines.append(tuple(c_point(*pmap(lab.key)) for lab in labs))
    return Configuration.build(axis.points, lines)


_W2_PAIR_LINES = (
    ((1, 4), (1, 2), (2, 4)),
    ((1, 4), (1, 3), (3, 4)),
    ((1, 2), (2, 3), (3, 4)),
    ((1, 3), (2, 3), (2, 4)),
)


def _line_pair_sets(axis: Configuration):
    return frozenset(frozenset(lab.key for lab in axis.line_labels(line))
                     for line in axis.lines)


def count_top_lines(axis: Configuration) -> int:
    tops = {top(Y) for Y in combinations(range(1, 5), 3)}
    return sum(1 for line in _line_pair_sets(axis) if frozenset(line) in tops)


def count_star_lines(axis: Configuration) -> int:
    stars = {star(i, 4) for i in range(1, 5)}
    return sum(1 for line in _line_pair_sets(axis) if frozenset(line) in stars)


def all_veblen_labelings() -> list[Configuration]:
    """Every Veblen ((6,2,4,3)) configuration on the fixed 6 pair-points."""
    pts = pairs_of(4)
    triples = list(combinations(pts, 3))
    out = []
    for four in combinations(triples, 4):
        flat = [u for line in four for u in line]
        if sorted(flat) != sorted(pts * 2):
            continue
        ok = True
        for l1, l2 in combinations(four, 2):
            if len(set(l1) & set(l2)) > 1:
                ok = False
                break
        if ok:
            out.append(_axis_from_pair_lines(four))
    return out


@dataclass(frozen=True)
class VeblenEnumeration:
    labelings: tuple[Configuration, ...]
    orbits: tuple[tuple[int, ...], ...]          # indices into labelings
    catalog_orbit: dict                          # name -> orbit index
    catalog_exhaustive: bool                     # do the six classes cover all?


def enumerate_veblen() -> VeblenEnumeration:
    labelings = all_veblen_labelings()
    key_of = {_line_pair_sets(v): i for i, v in enumerate(labelings)}
    # kappa commutes with every induced map and kappa^2 = id, so these 48
    # maps form a group: the orbit of a labeling is the set of its images
    maps = [induced_pair_map(phi) for phi in all_permutations(4)]
    maps += [kappa_composed(phi) for phi in all_permutations(4)]
    orbit_of = [tuple(sorted({key_of[_line_pair_sets(apply_pair_map_to_axis(m, v))]
                              for m in maps})) for v in labelings]
    orbits = sorted(set(orbit_of))
    catalog_orbit = {name: orbits.index(orbit_of[key_of[_line_pair_sets(axis)]])
                     for name, axis in veblen_catalog().items()}
    return VeblenEnumeration(tuple(labelings), tuple(orbits), catalog_orbit,
                             set(catalog_orbit.values()) == set(range(len(orbits))))


def veblen_catalog() -> dict:
    """The six named labelings: G, G*, W2, V4 = kappa(W2), V5, V6 = kappa(V5)."""
    g = grassmannian(4)
    g_star = apply_pair_map_to_axis(kappa(), g)
    w2 = _axis_from_pair_lines(_W2_PAIR_LINES)
    v4 = apply_pair_map_to_axis(kappa(), w2)
    v5 = _v5_labeling()
    v6 = apply_pair_map_to_axis(kappa(), v5)
    cat = {"G": g, "G*": g_star, "W2": w2, "V4": v4, "V5": v5, "V6": v6}
    for name, axis in cat.items():
        require_signature(axis, (6, 2, 4, 3),
                          f"labeling {name} is not a Veblen configuration")
    return cat


def _v5_labeling() -> Configuration:
    # least labeling (in enumeration order) with exactly one top-line and no
    # star-line; pinned by the enumerator rather than any printed figure
    for v in all_veblen_labelings():
        if count_top_lines(v) == 1 and count_star_lines(v) == 0:
            return v
    raise IncidenceError("no single-top Veblen labeling found")


# ---------------------------------------------------------------------------
# multiveblen configurations

def multiveblen(n: int, edges, axis: Configuration) -> Configuration:
    """The graph-controlled variant: for {i,j} in the graph, c_{ij} joins the
    two same-side pairs; otherwise the two mixed pairs."""
    edges = {tuple(sorted(e)) for e in edges}
    pairs = pairs_of(n)
    bad = edges - set(pairs)
    if bad:
        raise IncidenceError(f"graph edges {sorted(bad)} are not 2-subsets of 1..{n}")
    expected = {c_point(i, j) for i, j in pairs}
    if set(axis.points) != expected:
        raise IncidenceError("axis mismatch")
    side_lines = []
    for i, j in pairs:
        if (i, j) in edges:
            side_lines.append((a_point(i), a_point(j), c_point(i, j)))
            side_lines.append((b_point(i), b_point(j), c_point(i, j)))
        else:
            side_lines.append((a_point(i), b_point(j), c_point(i, j)))
            side_lines.append((b_point(i), a_point(j), c_point(i, j)))
    return _perspective(n, side_lines, axis, "multiveblen")


def complete_graph(n: int):
    return set(pairs_of(n))


def empty_graph(n: int):
    return set()


def path_graph(n: int):
    return {(i, i + 1) for i in range(1, n)}


# ---------------------------------------------------------------------------
# combinatorial Veronesians (base set of size 3)

_LETTERS = "abc"


def veronesian(k: int) -> Configuration:
    """Points: degree-k multisets over {a,b,c} (as sorted strings); lines:
    {e.a^s, e.b^s, e.c^s} for s >= 1 and prefixes e of degree k-s."""
    if k < 1:
        raise IncidenceError("degree must be positive")
    points = ["".join(m) for m in combinations_with_replacement(_LETTERS, k)]
    lines = set()
    for s in range(1, k + 1):
        for e in combinations_with_replacement(_LETTERS, k - s):
            line = tuple(sorted(
                "".join(sorted(e + (x,) * s)) for x in _LETTERS))
            lines.add(line)
    return Configuration.build(
        [free_point(s) for s in points],
        [tuple(free_point(t) for t in line) for line in lines])


def veronesian_two_letter_set(k: int, x: str, y: str):
    """The clique candidate X_{x,y}: all degree-k multisets using only x, y."""
    out = []
    for i in range(k + 1):
        out.append(free_point("".join(sorted(x * (k - i) + y * i))))
    return out


# ---------------------------------------------------------------------------
# quasi-Grassmannians

def quasi_grassmannian_perm(n: int) -> Permutation:
    if n < 4:
        raise IncidenceError("defined for n >= 4")
    img = list(range(1, n + 1))
    start = 1 if n % 2 == 0 else 2
    for i in range(start, n, 2):
        img[i - 1], img[i] = img[i], img[i - 1]
    return Permutation(tuple(img))


def quasi_grassmannian(n: int) -> Configuration:
    return skew_perspective(perm_spec(n, quasi_grassmannian_perm(n)))


# ---------------------------------------------------------------------------
# small named instances (index size 3)

def fez() -> Configuration:
    return skew_perspective(perm_spec(3, "(1,2,3)"))


def kantor() -> Configuration:
    return skew_perspective(perm_spec(3, "(2,3)"))


def desargues() -> Configuration:
    return skew_perspective(perm_spec(3, "id"))
