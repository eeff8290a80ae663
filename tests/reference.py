"""Test-only reference helpers: brute-force permutation-group computations,
freeness from its definition, the alternate-center condition, the Veblen
labellings by exhaustive search, the Grassmannian-axis classification by a
sweep over every skew, the n = 4 census orbits under the explicit side swap,
the empty graph, the Veronesian two-letter clique candidates, the sorting
canonical-form seed and refinement, and the label-level Grassmannian and
pair-map image of an axis.  They back claims the tests check; the
library itself does not need them.
"""

from itertools import combinations, permutations

from perspectra import census
from perspectra.analysis import third_graph_criterion
from perspectra.families import (SkewPerspectiveSpec, _line_pair_sets,
                                 all_veblen_labelings, grassmannian)
from perspectra.incidence import (Configuration, IncidenceError, c_point,
                                  free_point, third_point)
from perspectra.perms import (Permutation, all_permutations, induced_pair_map,
                              kappa_composed, pairs_of, parse_cycles, top)


def cycle_type(sigma: Permutation) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in sigma.cycles()))


def are_conjugate(s1: Permutation, s2: Permutation):
    """Return (True, witness alpha with s2 = alpha s1 alpha^-1) or (False, None)."""
    if s1.n != s2.n:
        raise ValueError("different degrees")
    if cycle_type(s1) != cycle_type(s2):
        return False, None
    by_len1, by_len2 = {}, {}
    for c in s1.cycles():
        by_len1.setdefault(len(c), []).append(c)
    for c in s2.cycles():
        by_len2.setdefault(len(c), []).append(c)
    img = [0] * s1.n
    for length, cycs1 in by_len1.items():
        for c1, c2 in zip(cycs1, by_len2[length]):
            for a, b in zip(c1, c2):
                img[a - 1] = b
    alpha = Permutation(tuple(img))
    assert alpha.compose(s1).compose(alpha.inverse()) == s2
    return True, alpha




def representative_of_type(ctype, n: int) -> Permutation:
    """Lexicographically natural permutation with the given cycle type:
    cycles laid out on consecutive integers, fixed points first."""
    img = list(range(1, n + 1))
    pos = 1
    for length in sorted(ctype):
        block = list(range(pos, pos + length))
        for k, e in enumerate(block):
            img[e - 1] = block[(k + 1) % length]
        pos += length
    return Permutation(tuple(img))


def is_subgroup(H) -> bool:
    elems = set(h.image for h in H)
    if not elems:
        return False
    n = len(next(iter(elems)))
    if tuple(range(1, n + 1)) not in elems:
        return False
    for g in H:
        if g.inverse().image not in elems:
            return False
        for h in H:
            if g.compose(h).image not in elems:
                return False
    return True


def conjugacy_reps_under(H, n: int) -> list[Permutation]:
    """Orbit representatives of S_n under conjugation by the subgroup H.

    Deterministic: each orbit is represented by its lexicographically least
    image tuple.
    """
    H = list(H)
    if not is_subgroup(H):
        raise ValueError("not a subgroup")
    seen = set()
    reps = []
    for sigma in all_permutations(n):
        if sigma.image in seen:
            continue
        orbit = set()
        for alpha in H:
            conj = alpha.compose(sigma).compose(alpha.inverse())
            orbit.add(conj.image)
        seen |= orbit
        reps.append(Permutation(min(orbit)))
    return sorted(reps, key=lambda p: p.image)


def aut_group(axis_config):
    """Brute-force automorphisms of a labeled Veblen configuration.

    Returns (induced_auts, kappa_auts): the phi in S_4 whose induced pair map
    preserves the line set, and the phi whose kappa-composed map does.
    """
    lines = _line_pair_sets(axis_config)

    def preserved(pmap):
        return frozenset(frozenset(pmap(u) for u in line) for line in lines) == lines

    induced_auts, kappa_auts = [], []
    for phi in all_permutations(4):
        if preserved(induced_pair_map(phi)):
            induced_auts.append(phi)
        if preserved(kappa_composed(phi)):
            kappa_auts.append(phi)
    return induced_auts, kappa_auts


def is_freely_contained_by_definition(config: Configuration, vertices) -> bool:
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


def movecenter_condition(spec: SkewPerspectiveSpec, i0: int):
    """Search for tau with c_{i0,tau(i)} + c_{i0,tau(j)} = c_{i,j} for all
    pairs i,j != i0 (joins taken in the axis).  Returns tau or None."""
    valid = [i for i, _ in third_graph_criterion(spec)]
    if i0 not in valid:
        raise IncidenceError("i0 not a valid alternate center")
    others = [i for i in range(1, spec.n + 1) if i != i0]
    axis = spec.axis
    for images in permutations(others):
        tau = dict(zip(others, images))
        ok = True
        for i, j in combinations(others, 2):
            t = third_point(axis, c_point(i0, tau[i]), c_point(i0, tau[j]))
            if t != c_point(i, j):
                ok = False
                break
        if ok:
            return tau
    return None


def veblen_labelings_by_subsets():
    """Every Veblen configuration on the 6 pair-points of {1..4}, found by
    testing each of the 4,845 four-sets of triples: each point on two lines,
    two lines sharing at most one point; in the order of the four-sets."""
    pts = pairs_of(4)
    out = []
    for four in combinations(combinations(pts, 3), 4):
        if (sorted(u for line in four for u in line) == sorted(pts * 2)
                and all(len(set(l1) & set(l2)) <= 1
                        for l1, l2 in combinations(four, 2))):
            out.append(Configuration.build(
                [c_point(*u) for u in pts],
                [tuple(c_point(*u) for u in line) for line in four]))
    return out


def grasaxis_by_sweep(n: int):
    """classify_grasaxis(n) by canonicalising every one of the n! skews on
    its own; each class must hold a single cycle type."""
    axis = grassmannian(n)
    entries = census._classify("grasaxis", n, (
        ([(sigma.image, "G")], SkewPerspectiveSpec(n, induced_pair_map(sigma), axis))
        for sigma in all_permutations(n)))
    for e in entries:
        if len({cycle_type(parse_cycles(skew, n)) for skew, _ in e.members}) != 1:
            raise AssertionError("class does not match the cycle type")
    return entries


def n4_orbits_by_side_swap(lift):
    """The orbits of the 720 n = 4 instances (sigma, L) of one skew family
    under every relabelling, (sigma, L) -> (tau sigma tau^-1, tau L) for tau
    in S4, and the side swap, (sigma, L) -> (sigma^-1, delta L) for delta =
    lift(sigma), found by closing each instance under all 25 maps.  Members
    are (sigma's image, index of L); each orbit is sorted, and the orbits
    come in the order of their smallest members."""
    perms = all_permutations(4)
    line_sets = [_line_pair_sets(axis) for axis in all_veblen_labelings()]
    index = {lines: li for li, lines in enumerate(line_sets)}
    relabellings = [(tau, tau.inverse(), induced_pair_map(tau)) for tau in perms]

    def image(pmap, li):
        return index[frozenset(frozenset(map(pmap, line)) for line in line_sets[li])]

    def moves(sigma, li):
        for tau, tau_inv, induced in relabellings:
            yield tau.compose(sigma).compose(tau_inv), image(induced, li)
        yield sigma.inverse(), image(lift(sigma), li)

    seen, out = set(), []
    for sigma in perms:
        for li in range(len(line_sets)):
            if (sigma.image, li) in seen:
                continue
            orbit, todo = {(sigma.image, li)}, [(sigma, li)]
            while todo:
                for other, lj in moves(*todo.pop()):
                    if (other.image, lj) not in orbit:
                        orbit.add((other.image, lj))
                        todo.append((other, lj))
            seen |= orbit
            out.append(sorted(orbit))
    return out


def empty_graph(n: int):
    return set()


def veronesian_two_letter_set(k: int, x: str, y: str):
    """The clique candidate X_{x,y}: all degree-k multisets using only x, y."""
    out = []
    for i in range(k + 1):
        out.append(free_point("".join(sorted(x * (k - i) + y * i))))
    return out


def seed_by_sets(search):
    """_CanonSearch.seed over neighbourhood sets: each point's (rank, sum
    over its neighbours u of the common neighbours of it and u), ranked."""
    near = [set().union(*(search.lines[i] for i in lines)) - {v}
            for v, lines in enumerate(search.lines_of_point)]
    sigs = [(len(lines), sum(len(near[v] & near[u]) for u in near[v]))
            for v, lines in enumerate(search.lines_of_point)]
    lut = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [lut[s] for s in sigs]


def refine_by_sorting(search, colors):
    """_CanonSearch.refine with sorted tuples: a line ranks by the sorted
    colors of its points, a point by (color, sorted ranks of its lines)."""
    n, lines, lines_of_point = search.n, search.lines, search.lines_of_point
    cells = len(set(colors))
    while True:
        color = colors.__getitem__
        keys = [tuple(sorted(map(color, line))) for line in lines]
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        line_rank = [rank[k] for k in keys].__getitem__
        sigs = [(colors[v], tuple(sorted(map(line_rank, lines_of_point[v]))))
                for v in range(n)]
        lut = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [lut[s] for s in sigs]
        if len(lut) == cells or len(lut) == n:
            return colors
        cells = len(lut)


def grassmannian_by_labels(n: int) -> Configuration:
    """G(n, 2) built on point labels: the c-points of {1..n}, and for each
    3-subset Y the line on the c-points of top(Y)."""
    points = [c_point(i, j) for i, j in pairs_of(n)]
    lines = [tuple(c_point(*u) for u in top(Y))
             for Y in combinations(range(1, n + 1), 3)]
    return Configuration.build(points, lines)


def pair_map_axis_by_labels(pmap, axis: Configuration) -> Configuration:
    """The image of an axis under a pair map, label by label: each line's
    c-points are sent through pmap, on the axis's own points."""
    lines = []
    for line in axis.lines:
        labs = axis.line_labels(line)
        lines.append(tuple(c_point(*pmap(lab.key)) for lab in labs))
    return Configuration.build(axis.points, lines)
