"""Classification censuses and the identify lookup."""

import hashlib
import json

import pytest

from perspectra.incidence import IncidenceError
from perspectra.census import (PAPER_FULL_TOTAL, PAPER_KAPPA_TOTAL,
                               PAPER_PERM_TOTAL, SCHEMA_VERSION,
                               census_n4, classify_grasaxis, full_census,
                               identify)
from perspectra.families import (desargues, fez, grassmannian, kantor,
                                 multiveblen, path_graph, perm_spec,
                                 quasi_grassmannian, skew_perspective)
from perspectra.iso import canonical_form
from perspectra.perms import partitions


def test_classify_grasaxis_n3_names():
    entries = classify_grasaxis(3)
    assert len(entries) == 3
    labels = {e.paper_label for e in entries}
    assert labels == {"generalized Desargues configuration", "fez", "Kantor"}
    assert sum(e.class_size for e in entries) == 6


def test_classify_grasaxis_counts_match_partitions():
    for n in (3, 4, 5):
        entries = classify_grasaxis(n)
        assert len(entries) == len(partitions(n))
        import math
        assert sum(e.class_size for e in entries) == math.factorial(n)


def test_classify_grasaxis_rejects_out_of_range():
    with pytest.raises(IncidenceError):
        classify_grasaxis(2)
    with pytest.raises(IncidenceError):
        classify_grasaxis(7)


def test_classify_grasaxis_n4_known_labels():
    labels = {e.paper_label for e in classify_grasaxis(4)}
    assert "generalized Desargues configuration" in labels
    assert "quasi-Grassmannian R4" in labels
    assert "multiveblen (path graph)" in labels


def test_census_families_are_deterministic(census_report):
    perm1 = census_n4("perm")
    perm2 = census_n4("perm")
    assert [e.canonical_hash for e in perm1] == [e.canonical_hash for e in perm2]
    kap = census_n4("kappa")
    assert all(e.family == "kappa" for e in kap)
    assert all(e.family == "perm" for e in perm1)


def test_census_n4_matches_full_census(census_report):
    for family in ("perm", "kappa"):
        assert census_n4(family) == [e for e in census_report.entries
                                     if e.family == family]


def test_census_n4_rejects_unknown_family():
    with pytest.raises(IncidenceError, match="unknown census family"):
        census_n4("bogus")


def test_census_entries_cover_all_720_labeled_instances(census_report):
    perm = [e for e in census_report.entries if e.family == "perm"]
    kap = [e for e in census_report.entries if e.family == "kappa"]
    assert sum(e.class_size for e in perm) == 720
    assert sum(e.class_size for e in kap) == 720
    for e in census_report.entries:
        assert e.class_size == len(e.members)


def test_census_certs_are_distinct(census_report):
    certs = [e.canonical_hash for e in census_report.entries]
    assert len(certs) == len(set(certs))


def test_census_invariants_match_family(census_report):
    for e in census_report.entries:
        if e.family == "kappa":
            assert e.invariants["free_k"] == 2
        else:
            assert e.invariants["free_k"] == 2 + e.invariants["extra_free_cliques"]


def test_census_findings_report_count_deviations(census_report):
    # count comparisons against the stated totals are emitted as findings,
    # never silently dropped
    perm = [e for e in census_report.entries if e.family == "perm"]
    kap = [e for e in census_report.entries if e.family == "kappa"]
    expect = []
    if len(perm) != PAPER_PERM_TOTAL:
        expect.append("permutation-skew census")
    if len(kap) != PAPER_KAPPA_TOTAL:
        expect.append("kappa-skew census")
    if len(perm) + len(kap) != PAPER_FULL_TOTAL:
        expect.append("combined census")
    got = [f.split(":")[0] for f in census_report.findings]
    assert got == expect


def test_census_json_schema(census_report):
    data = json.loads(census_report.to_json())
    assert data["schema_version"] == SCHEMA_VERSION
    assert len(data["entries"]) == len(census_report.entries)
    e = data["entries"][0]
    assert set(e) == {"family", "representative", "canonical_hash",
                      "invariants", "paper_label", "class_size", "members"}
    assert set(e["representative"]) == {"n", "skew", "axis"}


def test_identify_known_instances(census_report):
    assert identify(grassmannian(6)).paper_label == \
        "generalized Desargues configuration"
    assert identify(quasi_grassmannian(4)).paper_label == "quasi-Grassmannian R4"
    assert identify(multiveblen(4, path_graph(4), grassmannian(4))
                    ).paper_label == "multiveblen (path graph)"
    assert identify(multiveblen(4, set(), grassmannian(4))
                    ).paper_label == "multiveblen (empty graph)"


def test_identify_rejects_wrong_signature():
    with pytest.raises(IncidenceError):
        identify(desargues())
    with pytest.raises(IncidenceError):
        identify(grassmannian(4))


def test_identify_reflects_membership(census_report):
    entry = identify(skew_perspective(perm_spec(4, "(1,2,3,4)")))
    assert entry is not None and entry.family == "perm"


def test_canonical_output_is_pinned(census_report):
    # certificates may change only with a schema version bump
    assert SCHEMA_VERSION == "1"
    assert hashlib.sha256(census_report.to_json().encode()).hexdigest() == \
        "1c488821868c90938ac68a07856e50cd2a37fa388816b7380bfb572d47e5705b"
    pinned = [
        (desargues(), "ce33c1d30027b16a4239e944dc1932e8ad1c1481af879eab109c6d1034964828"),
        (fez(), "711ac8cc2eeed63f0acd990defdc070a15753170c1868e6e151be8e1db526bd1"),
        (kantor(), "e78ac5880cdcb46b62d85ccf9afceec86ea18d71f5fef40136f4b149f91c1266"),
        (grassmannian(4), "03bf227779e3e8f737cde2c9a4374f900a700dcb5f7a46a98f3a9d7944593cf3"),
        (grassmannian(5), "ce33c1d30027b16a4239e944dc1932e8ad1c1481af879eab109c6d1034964828"),
        (grassmannian(6), "2b8818a2f271a36065143f3605173cdfe7a9b741541235b15b6a034f268b3fba"),
        (grassmannian(7), "746b91de71988363fa9ec3d1b68ce6415e0cc7dd05b6dd231777712329052ae7"),
    ]
    for config, cert in pinned:
        assert canonical_form(config).cert == cert


@pytest.mark.parametrize("n, digest", [
    (3, "92c78faa0bc46eba69f02c97d4e7a3cb1718c32532cd5d9ad92c2e1d6b157d85"),
    (4, "55bcc4a3cfac84b7eff9d69f9be07a80b5361da3dd5e4458b37fcbf46a4f5d06"),
    (5, "6d4a12d1f06f45fedb163deae3bc574b84b7fa0c6365e6579baf419823115fac"),
])
def test_classify_grasaxis_output_is_pinned(n, digest):
    # class order, representatives, labels, invariants and members
    text = json.dumps([e.as_json_dict() for e in classify_grasaxis(n)],
                      indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
