"""Classification censuses: Grassmannian-axis types by cycle type, the full
n=4 enumeration over all Veblen labelings for both skew families, and the
identify-this-configuration lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .incidence import (Configuration, IncidenceError, require_signature,
                        to_json_dict)
from .perms import (LIFTS, Permutation, all_permutations, induced_pair_map,
                    orbits, partitions)
from .families import (SkewPerspectiveSpec, all_veblen_labelings, fez,
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


def _conjugation(n: int):
    """all_permutations(n), the generators (1,2) and (1,...,n) of S_n, and
    for each generator tau the table of the indices of tau sigma tau^-1."""
    perms = all_permutations(n)
    index = {sigma.image: s for s, sigma in enumerate(perms)}
    taus = [Permutation((2, 1) + tuple(range(3, n + 1))),
            Permutation(tuple(range(2, n + 1)) + (1,))]
    tables = []
    for tau in taus:
        t_inv = [x - 1 for x in tau.inverse().image]
        tables.append([index[tuple(tau.image[sigma.image[i] - 1] for i in t_inv)]
                       for sigma in perms])
    return perms, taus, tables


def classify_grasaxis(n: int):
    """One class per cycle type over the Grassmannian axis.  Relabelling by
    tau maps the instance of sigma onto that of tau sigma tau^-1, as the
    axis is invariant, so only the smallest skew of each conjugacy class is
    built and canonicalised; p(n) distinct certs then make p(n) classes."""
    if not 3 <= n <= 8:
        raise IncidenceError("supported for 3 <= n <= 8")
    perms, _, tables = _conjugation(n)
    axis = grassmannian(n)
    entries = _classify("grasaxis", n, (
        ([(perms[x].image, "G") for x in orbit],
         SkewPerspectiveSpec(n, induced_pair_map(perms[orbit[0]]), axis))
        for orbit in orbits(len(perms), tables)))
    if len(entries) != len(partitions(n)):
        raise AssertionError("a cycle type spans several classes")
    return entries


@lru_cache(maxsize=1)
def _n4_orbits() -> dict:
    """Per skew family tag, the S4 x C2 orbits of the n = 4 instances: the
    items s * 30 + l, sigma = all_permutations(4)[s], L = labelings[l].
    Relabelling a_i -> a_tau(i), b_i -> b_tau(i), c_u -> c_tau(u) maps
    (sigma, L) onto (tau sigma tau^-1, tau L); swapping the sides, a_i <->
    b_i and c_u -> c_delta(u) for delta = LIFTS[tag](sigma), maps it onto
    (sigma^-1, delta L).  As kappa commutes with induced pair maps, the two
    commute, and for kappa delta L is kappa of the induced image."""
    perms, taus, conj = _conjugation(4)
    size = len(all_veblen_labelings())
    *induced, complement = labeling_action()
    tables = [[row[s] * size + x for s in range(len(perms))
               for x in induced[perms.index(tau)]] for row, tau in zip(conj, taus)]
    inverse = [perms.index(sigma.inverse()) * size for sigma in perms]
    swaps = {"induced": induced,
             "kappa": [[complement[x] for x in row] for row in induced]}
    return {tag: tuple(map(tuple, orbits(len(perms) * size, tables + [
                [inv + x for inv, row in zip(inverse, swap) for x in row]])))
            for tag, swap in swaps.items()}


def census_n4(family: str) -> list[CensusEntry]:
    """The n = 4 census of one skew family, "perm" or "kappa": every skew
    over every Veblen labeling, one entry per isomorphism class.  Only the
    smallest member of each orbit of _n4_orbits is built and canonicalised,
    and the smallest member of a class is one of those, so the entries are
    those of classifying every instance."""
    tags = {"perm": "induced", "kappa": "kappa"}
    if family not in tags:
        raise IncidenceError(f"unknown census family {family!r}")
    perms, labelings = all_permutations(4), all_veblen_labelings()
    size, lift = len(labelings), LIFTS[tags[family]]
    return _classify(family, 4, (
        ([(perms[x // size].image, x % size) for x in orbit],
         SkewPerspectiveSpec(4, lift(perms[orbit[0] // size]),
                             labelings[orbit[0] % size]))
        for orbit in _n4_orbits()[tags[family]]))


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
def _identify_index() -> dict:
    """The full census entries by canonical hash; built once per process."""
    return {e.canonical_hash: e for e in full_census().entries}


def identify(config: Configuration):
    """Canonical-hash lookup of a 15-point binomial configuration against the
    full n=4 census."""
    require_signature(config, (15, 4, 20, 3),
                      "not a 15-point binomial configuration")
    return _identify_index().get(canonical_form(config).cert)
