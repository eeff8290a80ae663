"""Classification censuses: Grassmannian-axis types by cycle type, the full
n=4 enumeration over all Veblen labelings for both skew families, and the
identify-this-configuration lookup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .incidence import (Configuration, IncidenceError, require_signature,
                        to_json_dict)
from .perms import (Permutation, all_permutations, cycle_type,
                    induced_pair_map, kappa_composed, parse_cycles, partitions)
from .families import (SkewPerspectiveSpec, enumerate_veblen, fez, grassmannian,
                       kantor, multiveblen, path_graph, quasi_grassmannian,
                       skew_perspective)
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


SCHEMA_VERSION = "1"


def _entry_invariants(spec: SkewPerspectiveSpec, config: Configuration) -> dict:
    inv = {
        "free_k": free_count(config, spec.n + 1),
        "aut_count": automorphism_count(config),
        "skew_class": spec.delta.tag,
    }
    if spec.delta.tag == "induced":
        inv["extra_free_cliques"] = len(third_graph_criterion(spec))
    return inv


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
    """One entry per isomorphism class of the (member, spec) items, found by
    the canonical cert of each spec's configuration.  A member is a sortable
    (skew image, axis key) pair; each class is represented by its smallest
    member, and the classes come in the order of those members."""
    labels = _labels(n)
    classes = {}
    for member, spec in items:
        config = skew_perspective(spec)
        cert = canonical_form(config).cert
        cls = classes.get(cert)
        if cls is None:
            classes[cert] = cls = [member, spec, config, []]
        elif member < cls[0]:
            cls[:3] = member, spec, config
        cls[3].append(member)
    return [CensusEntry(family, spec, cert, _entry_invariants(spec, config),
                        labels.get(cert, "new type"), len(members),
                        tuple((str(Permutation(image)), key)
                              for image, key in sorted(members)))
            for cert, (_, spec, config, members)
            in sorted(classes.items(), key=lambda kv: kv[1][0])]


def classify_grasaxis(n: int):
    """One class per cycle type over the Grassmannian axis, found by
    classifying every one of the n! skews generically."""
    if not 3 <= n <= 6:
        raise IncidenceError("supported for 3 <= n <= 6")
    axis = grassmannian(n)
    entries = _classify("grasaxis", n, (
        ((sigma.image, "G"), SkewPerspectiveSpec(n, induced_pair_map(sigma), axis))
        for sigma in all_permutations(n)))
    # completeness: each class is one cycle type, and there are p(n) classes
    for e in entries:
        if len({cycle_type(parse_cycles(skew, n)) for skew, _ in e.members}) != 1:
            raise AssertionError("class does not match the cycle type")
    if len(entries) != len(partitions(n)):
        raise AssertionError("a cycle type spans several classes")
    return entries


def census_n4(family: str) -> list[CensusEntry]:
    """The n = 4 census of one skew family, "perm" or "kappa": every skew
    over every Veblen labeling, one entry per isomorphism class."""
    lifts = {"perm": induced_pair_map, "kappa": kappa_composed}
    if family not in lifts:
        raise IncidenceError(f"unknown census family {family!r}")
    labelings = enumerate_veblen().labelings

    def items():
        for sigma in all_permutations(4):
            delta = lifts[family](sigma)
            for li, axis in enumerate(labelings):
                yield (sigma.image, li), SkewPerspectiveSpec(4, delta, axis)

    return _classify(family, 4, items())


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


_identify_index = None


def identify(config: Configuration):
    """Canonical-hash lookup of a 15-point binomial configuration against the
    full n=4 census."""
    require_signature(config, (15, 4, 20, 3),
                      "not a 15-point binomial configuration")
    global _identify_index
    if _identify_index is None:
        report = full_census()
        _identify_index = {e.canonical_hash: e for e in report.entries}
    return _identify_index.get(canonical_form(config).cert)
