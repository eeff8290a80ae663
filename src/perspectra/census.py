"""Classification censuses: Grassmannian-axis types by cycle type, the full
n=4 enumeration over all Veblen labelings for both skew families, and the
identify-this-configuration lookup, which reads its input back as a skew
perspective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .incidence import (Configuration, IncidenceError, require_signature,
                        to_json_dict)
from .perms import (Permutation, all_permutations, induced_pair_map,
                    kappa_composed, orbits, partitions)
from .families import (SkewPerspectiveSpec, _line_pair_sets,
                       _read_perspective, all_veblen_labelings, fez,
                       grassmannian, kantor, labeling_action, multiveblen,
                       path_graph, quasi_grassmannian, skew_perspective)
from .analysis import free_count, third_graph_criterion
from .iso import automorphism_count, canonical_form


@dataclass(frozen=True)
class CensusEntry:
    family: str
    representative: SkewPerspectiveSpec
    canonical_hash: str
    invariants: dict
    paper_label: str
    class_size: int
    members: tuple

    def as_json_dict(self) -> dict:
        return {
            "family": self.family,
            "representative": {
                "n": self.representative.n,
                "skew": self.representative.describe_skew(),
                "axis": to_json_dict(self.representative.axis),
            },
            "canonical_hash": self.canonical_hash,
            "invariants": self.invariants,
            "paper_label": self.paper_label,
            "class_size": self.class_size,
            "members": [list(m) for m in self.members],
        }


SCHEMA_VERSION = "2"


def _entry_invariants(spec: SkewPerspectiveSpec, config: Configuration) -> dict:
    inv = {
        "free_k": free_count(config, spec.n + 1),
        "aut_count": automorphism_count(config),
        "skew_class": spec.delta.tag,
    }
    if spec.delta.tag == "induced":
        inv["extra_free_cliques"] = len(third_graph_criterion(spec))
    return inv


@lru_cache(maxsize=8)
def _labels(n: int) -> dict:
    """Instance-verified class labels for the degree-n classes."""
    named = [(grassmannian(n + 2), "generalized Desargues configuration")]
    if n == 3:
        named += [(fez(), "fez"), (kantor(), "Kantor")]
    if n >= 4:
        named.append((quasi_grassmannian(n), f"quasi-Grassmannian R{n}"))
    if n == 4:
        g4 = grassmannian(4)
        named += [(multiveblen(4, path_graph(4), g4), "multiveblen (path graph)"),
                  (multiveblen(4, set(), g4), "multiveblen (empty graph)")]
    return {canonical_form(config).cert: label for config, label in named}


def _classify(family: str, n: int, items) -> list[CensusEntry]:
    """One entry per isomorphism class of the (members, spec) items, found by
    the canonical cert of each spec's configuration.  The members of an item
    are sortable (skew image, axis key) pairs of isomorphic instances, in
    increasing order, and its spec builds the first of them.  The items must
    come in increasing order of their first members: then the first item of
    a class holds its smallest member and represents it, and the classes
    come in the order of those members."""
    labels = _labels(n)
    classes = {}
    for members, spec in items:
        config = skew_perspective(spec)
        cls = classes.setdefault(canonical_form(config).cert, (spec, config, []))
        cls[2].extend(members)
    names = {image: str(Permutation(image)) for image in
             {image for _, _, members in classes.values() for image, _ in members}}
    return [CensusEntry(family, spec, cert, _entry_invariants(spec, config),
                        labels.get(cert, "new type"), len(members),
                        tuple((names[image], key) for image, key in sorted(members)))
            for cert, (spec, config, members) in classes.items()]


def _census(family: str, n: int, lift, labelings, keys, actions):
    """One entry per isomorphism class of the instances (sigma, L), sigma in
    S_n in image order and L in labelings: the items s * len(labelings) + l,
    with members (sigma's image, keys[l]).  Relabelling by tau = (1,2) or
    (1,...,n) gives (tau sigma tau^-1, tau L); swapping the sides (a_i <->
    b_i, c_u -> c_delta(u), delta = lift(sigma) = epsilon sigma) gives
    (sigma^-1, delta L), and relabelling that by sigma^-1 gives (sigma^-1,
    epsilon L), as epsilon, 1 or kappa, commutes with induced maps.  actions
    holds the three moves' tables on the labelings.  Only the smallest item
    of each orbit is built and canonicalised, and it represents its class."""
    images = list(permutations(range(1, n + 1)))
    index = {image: s for s, image in enumerate(images)}
    size = len(labelings)

    def conjugation(tau):
        back = [tau.index(i) for i in range(1, n + 1)]
        return lambda image: tuple(tau[image[j] - 1] for j in back)

    def inverse(image):
        return tuple(image.index(i) + 1 for i in range(1, n + 1))

    moves = (conjugation((2, 1) + tuple(range(3, n + 1))),
             conjugation(tuple(range(2, n + 1)) + (1,)), inverse)
    tables = [[s + x for s in (index[move(image)] * size for image in images)
               for x in action] for move, action in zip(moves, actions)]
    return _classify(family, n, (
        ([(images[x // size], keys[x % size]) for x in orbit],
         SkewPerspectiveSpec(n, lift(Permutation(images[orbit[0] // size])),
                             labelings[orbit[0] % size]))
        for orbit in orbits(len(images) * size, tables)))


def classify_grasaxis(n: int):
    """One class per cycle type over the Grassmannian axis: every relabelling
    fixes the axis, so the orbits are the p(n) conjugacy classes."""
    if not 3 <= n <= 8:
        raise IncidenceError("supported for 3 <= n <= 8")
    entries = _census("grasaxis", n, induced_pair_map, (grassmannian(n),),
                      ("G",), ([0], [0], [0]))
    if len(entries) != len(partitions(n)):
        raise AssertionError("a cycle type spans several classes")
    return entries


# the n = 4 census families and the lift of sigma to each family's skew
_FAMILY_LIFTS = {"perm": induced_pair_map, "kappa": kappa_composed}


def census_n4(family: str) -> list[CensusEntry]:
    """The n = 4 census of one skew family, "perm" or "kappa", over every
    Veblen labeling, keyed by its index in all_veblen_labelings()."""
    if family not in _FAMILY_LIFTS:
        raise IncidenceError(f"unknown census family {family!r}")
    labelings, (swap, cycle, complement) = all_veblen_labelings(), labeling_action()
    keys = range(len(labelings))
    epsilon = complement if family == "kappa" else keys
    return _census(family, 4, _FAMILY_LIFTS[family], labelings, keys,
                   (swap, cycle, epsilon))


PAPER_PERM_TOTAL = 42
PAPER_KAPPA_TOTAL = 20
PAPER_FULL_TOTAL = 62


@dataclass(frozen=True)
class CensusReport:
    entries: tuple
    findings: tuple

    def as_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "entries": [e.as_json_dict() for e in self.entries],
            "findings": list(self.findings),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_json_dict(), indent=2, sort_keys=True) + "\n"


def _compare(count: int, expected: int, what: str):
    if count == expected:
        return []
    return [f"{what}: computed {count} classes, stated count is {expected}"]


def full_census() -> CensusReport:
    perm = census_n4("perm")
    kap = census_n4("kappa")
    findings = []
    findings += _compare(len(perm), PAPER_PERM_TOTAL, "permutation-skew census")
    findings += _compare(len(kap), PAPER_KAPPA_TOTAL, "kappa-skew census")
    perm_certs = {e.canonical_hash for e in perm}
    kap_certs = {e.canonical_hash for e in kap}
    overlap = perm_certs & kap_certs
    if overlap:
        raise AssertionError(f"cross-family isomorphism found: {sorted(overlap)}")
    total = len(perm) + len(kap)
    findings += _compare(total, PAPER_FULL_TOTAL, "combined census")
    # internal consistency
    for e in kap:
        if e.invariants["free_k"] != 2:
            raise AssertionError("kappa entry with unexpected free-clique count")
    for e in perm:
        expect = 2 + e.invariants["extra_free_cliques"]
        if e.invariants["free_k"] != expect:
            raise AssertionError("perm entry free-clique count inconsistent")
    return CensusReport(tuple(perm) + tuple(kap), tuple(findings))


@lru_cache(maxsize=1)
def _identify_index() -> tuple:
    """The tables identify reads, built once per process from the full
    census: each member (family, str(sigma), labelling index) -> its entry;
    each Veblen labelling's pair-line set -> its index; and each of the 48
    census skews, as the set of its pair map's items -> (family, str(sigma))."""
    members = {(e.family,) + member: e for e in full_census().entries
               for member in e.members}
    axes = {_line_pair_sets(axis): li
            for li, axis in enumerate(all_veblen_labelings())}
    skews = {frozenset(lift(sigma).as_dict().items()): (family, str(sigma))
             for family, lift in _FAMILY_LIFTS.items()
             for sigma in all_permutations(4)}
    return members, axes, skews


def identify(config: Configuration):
    """The full n = 4 census entry of a 15-point binomial configuration, or
    None.  Read back as a skew perspective from a center p, with a_1 the
    first point on a line with p and a_2, a_3, a_4 the others on a line with
    both but b_1, the configuration is one labelled instance.  A census
    class lists every instance and is closed under renumbering and the side
    swap, so an input isomorphic to a member reads as a member at the image
    of that member's center."""
    require_signature(config, (15, 4, 20, 3),
                      "not a 15-point binomial configuration")
    members, axes, skews = _identify_index()
    third = config._third
    for p, on_p in enumerate(third):
        a1 = next(x for x, b in enumerate(on_p) if b is not None)
        a_side = [a1] + [x for x, c in enumerate(third[a1]) if c is not None
                         and on_p[x] is not None and x != on_p[a1]]
        if len(a_side) == 4 and (read := _read_perspective(config, p, a_side)):
            skew, li = skews.get(frozenset(read[1].items())), axes.get(read[2])
            if skew is not None and li is not None:
                return members[(*skew, li)]
    return None
