"""Configuration families: Grassmannians, skew perspectives, the Veblen
labeling catalog and its exhaustive enumerator, multiveblen configurations,
Veronesians and quasi-Grassmannians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb

from .incidence import (Configuration, IncidenceError, a_point, b_point,
                        c_point, center, free_point, require_signature)
from .perms import (PairPermutation, Permutation, induced_pair_map, kappa,
                    kappa_composed, orbits, pair_perm_from_dict, pairs_of,
                    parse_cycles, star, top)


def grassmannian(n: int) -> Configuration:
    """Points: 2-subsets of {1..n}; lines: the 2-subsets of each 3-subset."""
    if n < 3:
        raise IncidenceError("no lines")
    return _pair_axis(n, map(top, combinations(range(1, n + 1), 3)))


def _pair_axis(n: int, pair_lines) -> Configuration:
    """The configuration on the c-points of {1..n} whose lines are given as
    collections of 2-subsets."""
    return Configuration.build([c_point(*u) for u in pairs_of(n)],
                               [[c_point(*u) for u in line] for line in pair_lines])


def _line_pair_sets(axis: Configuration):
    return frozenset(frozenset(lab.key for lab in axis.line_labels(line))
                     for line in axis.lines)


def _pair_image(pmap: PairPermutation, line_sets) -> frozenset:
    """The image of a _line_pair_sets value under a pair map."""
    image = pmap.as_dict().__getitem__
    return frozenset(frozenset(map(image, line)) for line in line_sets)


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
    # delta sends the a-side edge u through c_u to the b-side edge v
    side_lines = [(a_point(i), a_point(j), c_point(i, j))
                  for i, j in pairs_of(spec.n)]
    side_lines += [(b_point(v[0]), b_point(v[1]), c_point(*u))
                   for u, v in spec.delta.mapping]
    return _perspective(spec.n, side_lines, spec.axis, "construction")


def _read_perspective(config: Configuration, p: int, a_side):
    """The inverse of skew_perspective: config read as a skew perspective
    with center p and a_1, ..., a_n the point indices a_side, as (labels,
    delta, axis), or None.  b_i is the third point of p a_i, c_u for u =
    {i, j} that of a_i a_j, and b_i b_j passes through c_u for delta(u) =
    (i, j); the axis is the lines wholly on c-points, as _line_pair_sets
    reads them, and labels maps each point index to its label.  None unless
    the points read are all of config's, each once, delta is a bijection
    and config has no other lines: then it is skew_perspective of what was
    read, relabelled."""
    third = config._third
    n = len(a_side)
    b_side = [third[p][a] for a in a_side]
    pair_of = {third[x][y]: (i, j) for (i, x), (j, y)
               in combinations(enumerate(a_side, 1), 2)}
    size = 1 + 2 * n + comb(n, 2)
    read = {p, *a_side, *b_side, *pair_of}
    if None in read or len(read) != size or len(config.points) != size:
        return None
    delta = {}
    for (i, x), (j, y) in combinations(enumerate(b_side, 1), 2):
        if (u := pair_of.get(third[x][y])) is None:
            return None
        delta[u] = (i, j)
    axis = frozenset(frozenset(map(pair_of.__getitem__, line))
                     for line in config.lines if pair_of.keys() >= set(line))
    if len(delta) != len(pair_of) or len(config.lines) != n + 2 * len(delta) + len(axis):
        return None
    labels = {p: center(), **{c: c_point(*u) for c, u in pair_of.items()}}
    for i, (a, b) in enumerate(zip(a_side, b_side), 1):
        labels[a], labels[b] = a_point(i), b_point(i)
    return labels, delta, axis


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

def apply_pair_map_to_axis(pmap: PairPermutation, axis: Configuration) -> Configuration:
    return _pair_axis(pmap.n, _pair_image(pmap, _line_pair_sets(axis)))


_W2_PAIR_LINES = (
    ((1, 4), (1, 2), (2, 4)),
    ((1, 4), (1, 3), (3, 4)),
    ((1, 2), (2, 3), (3, 4)),
    ((1, 3), (2, 3), (2, 4)),
)


def count_top_lines(axis: Configuration) -> int:
    return len(_line_pair_sets(axis) & {top(Y) for Y in combinations(range(1, 5), 3)})


def count_star_lines(axis: Configuration) -> int:
    return len(_line_pair_sets(axis) & {star(i, 4) for i in range(1, 5)})


@lru_cache(maxsize=1)
def all_veblen_labelings() -> tuple[Configuration, ...]:
    """Every Veblen ((6,2,4,3)) configuration on the fixed 6 pair-points, in
    the lexicographic order of their sorted lines; built once per process.
    In one, each point misses exactly one other, so the missing pairs are a
    perfect matching, and the lines are the transversals of that matching
    that pick the second point of an even number of pairs, or of an odd
    number: two labellings per matching."""
    out = []
    for matching in combinations(combinations(pairs_of(4), 2), 3):
        if len({u for pair in matching for u in pair}) == 6:
            for parity in (0, 1):
                out.append(sorted(tuple(sorted(line)) for k, line
                                  in enumerate(product(*matching))
                                  if k.bit_count() % 2 == parity))
    return tuple(_pair_axis(4, lines) for lines in sorted(out))


@dataclass(frozen=True)
class VeblenEnumeration:
    labelings: tuple[Configuration, ...]
    orbits: tuple[tuple[int, ...], ...]          # indices into labelings
    catalog_orbit: dict                          # name -> orbit index
    catalog_exhaustive: bool                     # do the six classes cover all?


@lru_cache(maxsize=1)
def labeling_action() -> tuple[tuple[int, ...], ...]:
    """The action on all_veblen_labelings() of the induced maps of (1,2) and
    (1,2,3,4), then of kappa: row[i] is the index of the image of
    labelings[i], found from the labelings' pair-line sets (no Configuration
    is built).  As kappa commutes with every induced map and kappa^2 = id,
    the rows generate the action of the 48 maps u -> phi(u), kappa(phi(u)).
    Built once per process."""
    line_sets = [_line_pair_sets(v) for v in all_veblen_labelings()]
    key_of = {lines: i for i, lines in enumerate(line_sets)}
    maps = [induced_pair_map(parse_cycles(c, 4)) for c in ("(1,2)", "(1,2,3,4)")]
    return tuple(tuple(key_of[_pair_image(m, lines)] for lines in line_sets)
                 for m in maps + [kappa()])


def enumerate_veblen() -> VeblenEnumeration:
    labelings = all_veblen_labelings()
    orbs = tuple(map(tuple, orbits(len(labelings), labeling_action())))
    orbit_of = {x: k for k, orbit in enumerate(orbs) for x in orbit}
    catalog_orbit = {name: orbit_of[labelings.index(axis)]
                     for name, axis in veblen_catalog().items()}
    return VeblenEnumeration(labelings, orbs, catalog_orbit,
                             set(catalog_orbit.values()) == set(range(len(orbs))))


def veblen_catalog() -> dict:
    """The six named labelings: G, G*, W2, V4 = kappa(W2), V5, V6 = kappa(V5)."""
    g = grassmannian(4)
    g_star = apply_pair_map_to_axis(kappa(), g)
    w2 = _pair_axis(4, _W2_PAIR_LINES)
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
