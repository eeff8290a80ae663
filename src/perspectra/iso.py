"""Generic isomorphism engine (ground truth) and criterion-based tests.

Canonical forms are computed by a refinement/individualization backtracking
search over point orderings.  The refinement invariant iterates (current
color, multiset of ranks of the point's lines) to a fixed point, seeded with
each point's rank and triangle count; equality of canonical line lists is
equivalent to isomorphism.  A leaf equal to the best leaf is an
automorphism.  It is stored, and the search jumps back to where the two paths
part, since the rest of that subtree is an image of an explored one.
Candidates in one orbit of the stored automorphisms fixing the path share
one subtree.  No group is built: |Aut| is the number of leaves of the
unpruned tree equal to the best leaf, counted as the search prunes
(McKay & Piperno, J. Symb. Comput. 60, 2014).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import time
from dataclasses import dataclass, field

from .incidence import (Configuration, IncidenceError, a_point, b_point,
                        c_point, center, require_partial_linear)
from .perms import LIFTS, all_permutations, induced_pair_map, pairs_of
from .families import (SkewPerspectiveSpec, _line_pair_sets, _pair_image,
                       skew_perspective)


@dataclass(frozen=True)
class CanonicalForm:
    position: tuple[int, ...]        # canonical position of each original point
    lines: tuple[tuple[int, ...], ...]
    cert: str
    aut_order: int
    # work done: nodes, leaves, refine_rounds, generators, elapsed_s
    stats: dict = field(default_factory=dict, compare=False, repr=False)


class _Jump(Exception):
    """Unwind the search to the node at level args[0] of the current path."""


class _CanonSearch:
    def __init__(self, n, lines):
        self.n = n
        self.lines = lines
        self.lines_of_point = [[] for _ in range(n)]
        for index, line in enumerate(lines):
            for v in line:
                self.lines_of_point[v].append(index)
        # refine's keys: color c, from -1 up to 2n - 2, weighs
        # base^(2n - 1 - c) at index c + 1, over a base above the line size;
        # line rank r weighs base^(b - r) over a base above every point rank
        base = len(lines[0]) + 1 if lines else 1
        self.color_weight = [base ** (2 * n - i) for i in range(2 * n)]
        base = max(map(len, self.lines_of_point), default=0) + 1
        self.rank_weight = [base ** (len(lines) - r) for r in range(len(lines))]
        self.sig_base = base ** (len(lines) + 1)     # above every point's key
        self.best_lines = self.best_perm = self.best_path = None
        self.gens = []
        self.nodes = self.leaves = self.rounds = 0

    def seed(self):
        """Color each point by its rank and by the sum, over the points u it
        shares a line with, of the points collinear with both: with one line
        size this orders the points as (rank, triangles through the point)
        would (nauty's adjtriang invariant).  Neighbourhoods are bitmasks,
        and as two lines share at most one point, each collinear pair {u, v}
        lies on one line and is counted once, for both of its points."""
        masks = [sum(1 << v for v in line) for line in self.lines]
        near = [functools.reduce(int.__or__, map(masks.__getitem__, lines), 0)
                & ~(1 << v) for v, lines in enumerate(self.lines_of_point)]
        triangles = [0] * self.n
        for line in self.lines:
            for u, v in itertools.combinations(line, 2):
                common = (near[u] & near[v]).bit_count()
                triangles[u] += common
                triangles[v] += common
        sigs = list(zip(map(len, self.lines_of_point), triangles))
        lut = {s: i for i, s in enumerate(sorted(set(sigs)))}
        return [lut[s] for s in sigs]

    def refine(self, colors):
        """Split cells by (color, sorted ranks of the point's lines) until a
        round splits nothing or every cell is a singleton.  A line ranks by
        the sorted colors of all its points: every line has the same size
        and a point's own color sits on each of its lines, so this orders the
        points exactly as the colors of their co-line points would.

        No tuple is sorted: a sorted tuple is keyed by its multiplicities,
        as the sum of base^(C - c) over its entries c, with C above every
        entry and a base above any multiplicity.  Among tuples of one length
        a larger key is then exactly a lexicographically smaller tuple.  Lines have one size, and
        points of one color have one rank, since the seed splits the ranks
        and every color here refines it."""
        n, lines, lines_of_point = self.n, self.lines, self.lines_of_point
        color_weight, rank_weight = self.color_weight, self.rank_weight
        sig_base = self.sig_base
        cells = len(set(colors))
        while True:
            self.rounds += 1
            weight = [color_weight[c + 1] for c in colors].__getitem__
            keys = [sum(map(weight, line)) for line in lines]
            ranked = {k: rank_weight[r]
                      for r, k in enumerate(sorted(set(keys), reverse=True))}
            line_weight = [ranked[k] for k in keys].__getitem__
            # ascending color, then descending key
            sigs = [c * sig_base - sum(map(line_weight, lines_of_point[v]))
                    for v, c in enumerate(colors)]
            lut = {s: i for i, s in enumerate(sorted(set(sigs)))}
            colors = [lut[s] for s in sigs]
            if len(lut) == cells or len(lut) == n:
                return colors
            cells = len(lut)

    def _leaf(self, colors, path):
        """1 for a new best leaf, 0 for a worse one; a leaf equal to the best
        is an automorphism: store it and jump back to where the paths part."""
        self.leaves += 1
        perm = tuple(colors)
        canon = tuple(sorted(tuple(sorted(map(perm.__getitem__, line)))
                             for line in self.lines))
        if self.best_lines is None or canon < self.best_lines:
            self.best_lines, self.best_perm, self.best_path = canon, perm, path
            return 1
        if canon > self.best_lines:
            return 0
        inv = sorted(range(self.n), key=self.best_perm.__getitem__)
        self.gens.append(tuple(inv[perm[v]] for v in range(self.n)))
        raise _Jump(next(i for i, (u, w) in enumerate(zip(path, self.best_path))
                         if u != w))

    def _orbit(self, v, path):
        """Orbit of v under the stored automorphisms that fix path pointwise."""
        stab = [g for g in self.gens if all(g[x] == x for x in path)]
        orbit, frontier = {v}, [v]
        while frontier:
            w = frontier.pop()
            for u in {g[w] for g in stab} - orbit:
                orbit.add(u)
                frontier.append(u)
        return orbit

    def run(self, colors, path):
        """Number of leaves below this node, pruned ones included, that equal
        the best leaf found so far."""
        self.nodes += 1
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1),
                      None)
        if target is None:
            return self._leaf(colors, path)
        tally = {}               # candidate -> its count; explored or pruned
        for v in target:
            if v in tally:
                continue
            best = self.best_lines
            new = [2 * c for c in colors]
            new[v] -= 1
            try:
                count = self.run(self.refine(new), path + [v])
            except _Jump as jump:
                if jump.args[0] < len(path):
                    raise
                # v's subtree is the image of the best path's sibling
                count = tally[self.best_path[len(path)]]
            if self.best_lines is not best:
                # no earlier leaf equals a new best
                tally = dict.fromkeys(tally, 0)
            for u in self._orbit(v, path):
                tally.setdefault(u, count)
        return sum(tally.values())


def canonical_form(config: Configuration) -> CanonicalForm:
    require_partial_linear(config)
    return _canonical(len(config.points), config.lines)


# Filled by the censuses (full_census computes 71 forms, classify_grasaxis
# one per cycle type), automorphism_count and are_isomorphic; identify reads
# no form.  The size holds the forms of all 1,440 labelled n = 4 instances
# and the census labels (1,442) with room to spare.
@functools.lru_cache(maxsize=4096)
def _canonical(n: int, lines: tuple) -> CanonicalForm:
    start = time.perf_counter()
    search = _CanonSearch(n, lines)
    aut_order = search.run(search.refine(search.seed()), [])
    cert = hashlib.sha256(repr((n, search.best_lines)).encode()).hexdigest()
    stats = {"nodes": search.nodes, "leaves": search.leaves,
             "refine_rounds": search.rounds, "generators": len(search.gens),
             "elapsed_s": time.perf_counter() - start}
    return CanonicalForm(search.best_perm, search.best_lines, cert,
                         aut_order, stats)


def automorphism_count(config: Configuration) -> int:
    return canonical_form(config).aut_order


def _as_label_map(c1, c2, form1, form2):
    inv2 = {form2.position[w]: w for w in range(len(c2.points))}
    return {c1.points[v]: c2.points[inv2[form1.position[v]]]
            for v in range(len(c1.points))}


def is_isomorphism(c1: Configuration, c2: Configuration, mapping) -> bool:
    if (set(mapping) != set(c1.points) or len(mapping) != len(c2.points)
            or set(mapping.values()) != set(c2.points)):
        return False
    lines2 = set(c2.lines)
    for line in c1.lines:
        img = tuple(sorted(c2.index_of(mapping[lab])
                           for lab in c1.line_labels(line)))
        if img not in lines2:
            return False
    return len(c1.lines) == len(c2.lines)


def are_isomorphic(c1: Configuration, c2: Configuration):
    """Witness label map when isomorphic, else None."""
    f1, f2 = canonical_form(c1), canonical_form(c2)
    if f1.lines != f2.lines:
        return None
    mapping = _as_label_map(c1, c2, f1, f2)
    assert is_isomorphism(c1, c2, mapping)
    return mapping


# ---------------------------------------------------------------------------
# criterion-based isomorphism for the two skew families

def _build_map(n: int, phi, swap_ab: bool, c_map):
    to_a, to_b = (b_point, a_point) if swap_ab else (a_point, b_point)
    m = {center(): center()}
    for i in range(1, n + 1):
        m[a_point(i)] = to_a(phi(i))
        m[b_point(i)] = to_b(phi(i))
    for u in pairs_of(n):
        m[c_point(*u)] = c_point(*c_map(u))
    return m


def criterion_iso(spec1: SkewPerspectiveSpec, spec2: SkewPerspectiveSpec):
    """Center-fixing isomorphism search for two skews of one family, both
    permutation ("induced") or both complement-composed ("kappa"): a
    conjugating phi aligning the skews (directly, or inverted with the sides
    swapped) whose pair action carries axis1 onto axis2."""
    tag = spec1.delta.tag
    if tag not in LIFTS or spec2.delta.tag != tag:
        raise IncidenceError("criterion requires two permutation skews or "
                             "two kappa-composed skews")
    if spec1.n != spec2.n:
        return None
    lift = LIFTS[tag]
    s1, s2 = spec1.delta.phi, spec2.delta.phi
    s2_inv = s2.inverse()
    lines1, target = _line_pair_sets(spec1.axis), _line_pair_sets(spec2.axis)
    for phi in all_permutations(spec1.n):
        pbar = induced_pair_map(phi)
        conj = phi.compose(s1)
        for swap_ab, other in ((False, s2), (True, s2_inv)):
            if conj != other.compose(phi):
                continue
            g = lift(s2_inv).compose(pbar) if swap_ab else pbar
            if _pair_image(g, lines1) == target:
                mapping = _build_map(spec1.n, phi, swap_ab, g)
                if not is_isomorphism(skew_perspective(spec1),
                                      skew_perspective(spec2), mapping):
                    raise AssertionError("criterion produced a non-isomorphism")
                return mapping
    return None
