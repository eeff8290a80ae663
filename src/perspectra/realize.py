"""Projective realizations: exact rational parametric realizations of the two
15-point cases that admit them, faithfulness checking, exhaustive embedding
search into small Desarguesian planes PG(2,q), and line-closure tests.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .incidence import (Configuration, IncidenceError, a_point, b_point,
                        c_point, center, require_partial_linear)
from .perms import pairs_of
from .families import SkewPerspectiveSpec, perm_spec, skew_perspective


# ---------------------------------------------------------------------------
# fields

# extension fields GF(p^k) as (p, m): the modulus is x^k + m(x), with m's k
# coefficients low first, so x^k = -m(x); GF(4) reduces by x^2 + x + 1
_MODULI = {4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (1, 0))}


class GF:
    """GF(q) for q prime or q in {4, 8, 9}, with every operation a table
    lookup.  Elements are 0..q-1; in GF(p^k) the base-p digits of an element,
    low first, are the coefficients of its polynomial in x."""

    def __init__(self, q: int):
        p, mod = _MODULI.get(q, (q, ()))
        k = max(len(mod), 1)
        vecs = [tuple(e // p ** i % p for i in range(k)) for e in range(q)]
        index = {v: e for e, v in enumerate(vecs)}

        def times(u, v):
            prod = [0] * (2 * k - 1)
            for i, x in enumerate(u):
                for j, y in enumerate(v):
                    prod[i + j] += x * y
            for i in range(2 * k - 2, k - 1, -1):
                for j, m in enumerate(mod):
                    prod[i - k + j] -= prod[i] * m
            return index[tuple(c % p for c in prod[:k])]

        self.q = q
        self.elements = list(range(q))
        self._add = [[index[tuple((x + y) % p for x, y in zip(u, v))]
                      for v in vecs] for u in vecs]
        self._mul = [[times(u, v) for v in vecs] for u in vecs]
        self._neg = [row.index(0) for row in self._add]
        self._inv = [None] + [row.index(1) for row in self._mul[1:]]

    def add(self, a, b):
        return self._add[a][b]

    def neg(self, a):
        return self._neg[a]

    def mul(self, a, b):
        return self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        return self._inv[a]


# the largest q accepted: _plane(q) holds (q^2 + q + 1)^2 bits, and
# embed_search(desargues(), q) took 1.7 s, 55 MB at 127; 10.6 s, 225 MB at 199
_MAX_Q = 127


# One field per q, shared: a GF is never changed after it is built, and
# building GF(127) takes about 0.03 s.
@lru_cache(maxsize=8)
def galois_field(q: int) -> GF:
    if type(q) is not int:
        raise IncidenceError(f"q must be an int, got {q!r}")
    if q > _MAX_Q:
        raise IncidenceError(f"no field of order {q} available: "
                             f"q is above the bound {_MAX_Q}")
    if q in _MODULI or q >= 2 and all(q % d for d in range(2, q)):
        return GF(q)
    raise IncidenceError(f"no field of order {q} available")


# ---------------------------------------------------------------------------
# exact rational projective geometry

def normalize(v):
    """Scale a rational homogeneous triple so its first nonzero entry is 1."""
    v = tuple(Fraction(x) for x in v)
    for x in v:
        if x != 0:
            return tuple(y / x for y in v)
    raise IncidenceError("zero vector is not a projective point")


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def collinear(u, v, w) -> bool:
    c = cross(u, v)
    return c[0] * w[0] + c[1] * w[1] + c[2] * w[2] == 0


def meet(l1, l2):
    """Intersection point of two lines given by their coordinate triples."""
    return normalize(cross(l1, l2))


def line_through(u, v):
    c = cross(u, v)
    if c == (0, 0, 0):
        raise IncidenceError("coincident points span no line")
    return c


def verify_realization(config: Configuration, coords: dict,
                       withheld=None):
    """Faithfulness check: every point a non-zero vector of 3 rationals
    (ints or Fractions), all points distinct, every line (except the
    withheld one) collinear, and no other triple collinear.  A withheld
    tuple must name the distinct points of a line.

    Returns (ok, reason)."""
    return _faithful(config, coords, lambda x: isinstance(x, (int, Fraction)),
                     "a rational vector of 3 entries", normalize, collinear,
                     withheld)


def _faithful(config: Configuration, coords: dict, is_entry, vector, scale,
              is_collinear, withheld=None):
    """verify_realization and verify_pg_embedding, given their field's entry
    test, wording of a vector, scaling to a representative and collinearity."""
    if not isinstance(coords, Mapping):
        return False, "coordinates are not a mapping of points to vectors"
    labs = config.points
    vec = []
    for lab in labs:
        if lab not in coords:
            return False, f"missing coordinates for {lab}"
        try:
            v = tuple(coords[lab])
        except TypeError:       # not a sequence at all, e.g. 5 or None
            v = ()
        if len(v) != 3 or not all(map(is_entry, v)):
            return False, f"{lab} is not {vector}"
        if not any(v):
            return False, f"{lab} is the zero vector"
        vec.append(scale(v))
    for i, j in combinations(range(len(labs)), 2):
        if vec[i] == vec[j]:
            return False, f"points {labs[i]} and {labs[j]} coincide"
    joins = config._joins  # a sorted triple t is a line iff joins.get(t[:2]) == t
    skipped = None
    if withheld is not None:
        skipped = tuple(sorted(config._index.get(lab, -1) for lab in withheld))
        if joins.get(skipped[:2]) != skipped:
            return False, f"withheld {tuple(map(str, withheld))} is not a line"
    for line in config.lines:
        if len(line) != 3:
            return False, (f"line {tuple(map(str, config.line_labels(line)))} "
                           "does not have 3 points")
        if line != skipped and not is_collinear(*(vec[i] for i in line)):
            return False, f"line {tuple(map(str, config.line_labels(line)))} not collinear"
    for tri in combinations(range(len(labs)), 3):
        if joins.get(tri[:2]) != tri and is_collinear(*(vec[i] for i in tri)):
            return False, "spurious collinearity " + str(
                tuple(str(labs[i]) for i in tri))
    return True, "faithful"


# ---------------------------------------------------------------------------
# the two parametric cases

@dataclass(frozen=True)
class Realization:
    spec: SkewPerspectiveSpec
    coords: dict                 # PointLabel -> normalized Fraction triple
    params: dict


def _c_points(sigma, coords):
    """c_{ij} as the meet of the a-side and b-side joining lines."""
    for i, j in pairs_of(4):
        la = line_through(coords[a_point(i)], coords[a_point(j)])
        lb = line_through(coords[b_point(sigma(i))], coords[b_point(sigma(j))])
        coords[c_point(i, j)] = meet(la, lb)


def _parse_params(text_or_dict, names, scanned):
    if isinstance(text_or_dict, dict):
        d = dict(text_or_dict)
    else:
        pairs = [part.partition("=") for part in str(text_or_dict).split(",")]
        keys = [k.strip() for k, _, _ in pairs]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        if repeated:
            raise IncidenceError(f"repeated parameters {repeated}")
        d = {k: v.strip() for k, (_, _, v) in zip(keys, pairs)}
    missing = [n for n in names if n not in d]
    if missing:
        raise IncidenceError(f"missing parameters {missing}")
    unknown = sorted(set(d) - set(names) - {scanned})
    if unknown:
        raise IncidenceError(f"unknown parameters {unknown}")
    for k, v in d.items():
        try:
            d[k] = Fraction(v)
        except (ArithmeticError, TypeError, ValueError):
            raise IncidenceError(f"parameter {k} is not a rational number: "
                                 f"{v!r}") from None
    return d


# deterministic candidate lists for the remaining free coordinate of each case
_SCAN = tuple(Fraction(n, d) for d in (1, 2, 3, 4, 5)
              for n in range(-9, 10) if n != 0)

# case -> (skew, given parameters, scanned parameter, k): a_k = (1, beta1,
# beta2) and b_k = (1, beta1 y, beta2 y); a_{7-k} = (0,1,0), b_{7-k} = (1,1,0)
PARAMETRIC_CASES = {
    "c4": ("(1,2,3,4)", ("beta2", "x", "y"), "alpha2", 3),
    "c3f": ("(1,2,3)", ("beta1", "beta2", "y"), "x", 4),
}


def _solve(case, p):
    """(alpha1, alpha2, beta1) from the incidence constraints.  Raises
    ZeroDivisionError on a degenerate input; the other degenerate inputs
    (beta2 = 0 for c4, beta2 x = beta1 for c3f) make a_k or a_2 coincide
    with b_{7-k}, which verification rejects."""
    b2, x, y = p["beta2"], p["x"], p["y"]
    if case == "c4":
        a2 = p["alpha2"]
        a1 = y * (a2 - 1) * (b2 - 1) / ((a2 * x - 1) * (b2 * y - 1))
        return a1, a2, a1 * b2 * x - b2 + 1
    b1 = p["beta1"]
    # alpha2 from beta1 = beta2 x (alpha2 - 1)/(alpha2 x - 1)
    a2 = (b2 * x - b1) / (x * (b2 - b1))
    return (a2 - 1) / (a2 * x - 1), a2, b1


def parametric_realization(case: str, params) -> Realization:
    """Exact faithful realization of a case of PARAMETRIC_CASES, the two
    realizable 4-index skews over the Grassmannian axis: 'c4' (4-cycle skew,
    parameters beta2, x, y) and 'c3f' (3-cycle plus a fixed point,
    parameters beta1, beta2, y).

    Each case has one remaining degree of freedom, its scanned parameter
    (alpha2 for c4, x for c3f); when not supplied it is filled by a
    deterministic scan for a value making the realization faithful; any other
    parameter is an error.  The dependent coordinates are computed from the
    incidence constraints; the result is always verified."""
    if case not in PARAMETRIC_CASES:
        raise IncidenceError(f"unknown case {case!r}")
    skew, given, scanned, k = PARAMETRIC_CASES[case]
    p = _parse_params(params, given, scanned)
    spec = perm_spec(4, skew)
    config = skew_perspective(spec)
    for value in [p[scanned]] if scanned in p else _SCAN:
        used = {name: p[name] for name in given}
        used[scanned] = value
        try:
            a1, a2, b1 = _solve(case, used)
            used["alpha2"] = a2
            b2, x, y = used["beta2"], used["x"], used["y"]
            side = {1: ((0, 0, 1), (1, 0, 1)),
                    2: ((1, a1, a2), (1, a1 * x, a2 * x)),
                    k: ((1, b1, b2), (1, b1 * y, b2 * y)),
                    7 - k: ((0, 1, 0), (1, 1, 0))}
            coords = {center(): (1, 0, 0)}
            for i in range(1, 5):
                coords[a_point(i)], coords[b_point(i)] = side[i]
            _c_points(spec.delta.phi, coords)
            coords = {lab: normalize(v) for lab, v in coords.items()}
        except (ZeroDivisionError, IncidenceError):
            continue
        if verify_realization(config, coords)[0]:
            return Realization(spec, coords, used)
    raise IncidenceError("degenerate parameters: no faithful completion")


def closure_check(config: Configuration, coords: dict, withheld):
    """With one line withheld, confirm the remaining structure is faithfully
    realized and report whether the withheld triple still closes."""
    ok, reason = verify_realization(config, coords, withheld=withheld)
    if not ok:
        raise IncidenceError(f"hypotheses violated: {reason}")
    return collinear(*(normalize(coords[x]) for x in withheld))


def fez_closure_witness():
    """A rational realization of the 10-line triangle perspective with the
    {p, a3, b3} line withheld, faithful on the other nine lines, where the
    withheld triple does not close.  Returns (config, coords, withheld)."""
    config = skew_perspective(perm_spec(3, "(1,2,3)"))
    withheld = (center(), a_point(3), b_point(3))
    small = [Fraction(v) for v in
             (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2),
              Fraction(1, 3), 4, 5)]
    for alpha1, alpha2, x, t in product(small, repeat=4):
        try:
            coords = _fez_attempt(alpha1, alpha2, x, t)
            if not closure_check(config, coords, withheld):
                return config, coords, withheld
        except (ZeroDivisionError, IncidenceError):
            continue
    raise IncidenceError("no witness found in the search range")


def _fez_attempt(alpha1, alpha2, x, t):
    p = (Fraction(1), Fraction(0), Fraction(0))
    a1 = (Fraction(0), Fraction(0), Fraction(1))
    b1 = (Fraction(1), Fraction(0), Fraction(1))
    a3 = (Fraction(0), Fraction(1), Fraction(0))
    a2 = (Fraction(1), alpha1, alpha2)
    b2 = (Fraction(1), alpha1 * x, alpha2 * x)
    # the skew (1,2,3) puts c13 on b1b2, c12 on b2b3, c23 on b1b3
    c13 = meet(line_through(a1, a3), line_through(b1, b2))
    # c12 on the line a1a2, one step t away from a1 toward a2
    c12 = normalize(tuple(a1[k] + t * a2[k] for k in range(3)))
    c23 = meet(line_through(c12, c13), line_through(a2, a3))
    b3 = meet(line_through(b1, c23), line_through(b2, c12))
    return {center(): p, a_point(1): a1, a_point(2): a2, a_point(3): a3,
            b_point(1): b1, b_point(2): b2, b_point(3): b3,
            c_point(1, 2): c12, c_point(1, 3): c13, c_point(2, 3): c23}


# ---------------------------------------------------------------------------
# exhaustive embedding into PG(2, q)

@dataclass(frozen=True)
class EmbedResult:
    status: str                 # "found" | "none" | "inconclusive"
    assignment: dict | None
    nodes: int


def pg2q_points(q: int):
    """Canonical representatives of the points of PG(2, q)."""
    e = galois_field(q).elements
    return ([(0, 0, 1)] + [(0, 1, z) for z in e]
            + [(1, y, z) for y in e for z in e])


@lru_cache(maxsize=8)
def _plane(q: int):
    """PG(2, q) as pg2q_points(q) and each line's bitmask of point indices.
    Line L has the coordinates (a, b, c) of point L and holds the points with
    ax + by + cz = 0; (1, y, z) has index 1 + q + qy + z.  By this polarity
    line_mask[P] is also the set of lines through P, so the line through
    P != Q is the one set bit of line_mask[P] & line_mask[Q]."""
    f = galois_field(q)
    add, mul, neg, inv = f._add, f._mul, f._neg, f._inv
    points = pg2q_points(q)
    line_mask = []
    for a, b, c in points:
        if c:       # (0, 1, -b/c) and, for each y, (1, y, -(a + by)/c)
            s = mul[neg[inv[c]]]
            on = [1 + s[b]] + [1 + q + q * y + s[add[a][mul[b][y]]]
                               for y in range(q)]
        else:       # (0, 0, 1), (0, 1, z) if b = 0, (1, y, z) if a + by = 0
            on = [0] + (list(range(1, 1 + q)) if b == 0 else [])
            for y in range(q):
                if add[a][mul[b][y]] == 0:
                    on += range(1 + q + q * y, 1 + 2 * q + q * y)
        line_mask.append(sum(1 << i for i in on))
    return points, line_mask


class _Budget(Exception):
    pass


class _Search:
    """Forward checking (Haralick & Elliott 1980): each unplaced point of the
    configuration keeps a bitmask domain of the plane points it may take."""

    def __init__(self, third, plane, budget: int):
        self.third = third
        self.points, self.line_mask = plane
        self.budget = budget
        self.nodes = 0

    def place(self, v, p, assign, domains):
        """The other domains once v is at p, or None if one empties.  For
        each placed u, the line L through p and assign[u] leaves every
        domain, but the third point of a line {u, v, w} is confined to L.
        These lines meet only at p.  Placed points already filtered v."""
        line_mask, third = self.line_mask, self.third[v]
        through = line_mask[p]
        forbid = bit = 1 << p
        onto = {}
        for u, pu in assign.items():
            mask = line_mask[(through & line_mask[pu]).bit_length() - 1]
            forbid |= mask
            if third[u] in domains:
                onto[third[u]] = mask & ~bit
        out = {}
        for x, dom in domains.items():
            if x != v:
                dom &= onto[x] if x in onto else ~forbid
                if not dom:
                    return None
                out[x] = dom
        return out

    def solve(self, assign, domains):
        """Place the point with the smallest domain next, trying plane points
        in index order; `nodes` counts the placements tried."""
        if not domains:
            return assign
        v = min(domains, key=lambda x: domains[x].bit_count())
        candidates = domains[v]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            p = low.bit_length() - 1
            rest = self.place(v, p, assign, domains)
            if rest is not None:
                assign[v] = p
                if self.solve(assign, rest) is not None:
                    return assign
                del assign[v]
        return None


def embed_search(config: Configuration, q: int, budget: int = 10 ** 9) -> EmbedResult:
    """Exhaustive (up to projectivity) search for a faithful embedding of the
    configuration into PG(2, q).

    Four points, no three on a line, are fixed at (1,0,0), (0,1,0), (0,0,1)
    and (1,1,1), and forward checking places them and the rest.  `nodes`
    counts the placements tried; past `budget` of them the status is
    "inconclusive".  A found embedding is re-checked with
    verify_pg_embedding.  Raises IncidenceError unless every line has three
    points and no two lines share two points, and unless budget is a
    positive int."""
    if type(budget) is not int or budget < 1:
        raise IncidenceError(f"budget must be a positive int, got {budget!r}")
    for line in config.lines:
        if len(line) != 3:
            raise IncidenceError(f"line {line} does not have 3 points")
    require_partial_linear(config)
    third = config._third
    frame = next((quad for quad in combinations(range(len(config.points)), 4)
                  if all(third[u][v] != w for u, v, w in combinations(quad, 3))),
                 None)
    if frame is None:
        raise IncidenceError("no frame of four points in general position")
    search = _Search(third, _plane(q), budget)
    domains = dict.fromkeys(range(len(config.points)), (1 << len(search.points)) - 1)
    # (1,0,0), (0,1,0), (0,0,1), (1,1,1) by their indices in pg2q_points(q)
    for v, p in zip(frame, (q + 1, 1, 0, 2 * q + 2)):
        domains[v] = 1 << p
    try:
        found = search.solve({}, domains)
    except _Budget:
        return EmbedResult("inconclusive", None, search.nodes)
    if found is None:
        return EmbedResult("none", None, search.nodes)
    labeled = {config.points[v]: search.points[p] for v, p in found.items()}
    ok, reason = verify_pg_embedding(config, labeled, q)
    if not ok:
        raise AssertionError(f"embed_search found an unfaithful embedding: {reason}")
    return EmbedResult("found", labeled, search.nodes)


def verify_pg_embedding(config: Configuration, assignment: dict, q: int):
    """The GF(q) counterpart of verify_realization, which also checks that
    every point is a non-zero vector over GF(q).  Returns (ok, reason)."""
    f = galois_field(q)
    add, mul, neg = f.add, f.mul, f.neg

    def scale(v):
        s = f.inv(next(x for x in v if x))
        return tuple(mul(s, x) for x in v)

    def collinear_q(u, v, w):
        def minor(i, j):
            return add(mul(v[i], w[j]), neg(mul(v[j], w[i])))
        return add(add(mul(u[0], minor(1, 2)), mul(u[1], minor(2, 0))),
                   mul(u[2], minor(0, 1))) == 0

    return _faithful(config, assignment, lambda x: type(x) is int and 0 <= x < q,
                     f"a vector over GF({q})", scale, collinear_q)
