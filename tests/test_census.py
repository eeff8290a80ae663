"""Classification censuses and the identify lookup."""

import hashlib
import json
import math
import random
import re
from itertools import permutations, product

import pytest

from perspectra import census, iso
from perspectra.incidence import IncidenceError
from perspectra.census import (PAPER_FULL_TOTAL, PAPER_KAPPA_TOTAL,
                               PAPER_PERM_TOTAL, SCHEMA_VERSION,
                               census_n4, classify_grasaxis, full_census,
                               identify)
from perspectra.families import (SkewPerspectiveSpec, _line_pair_sets,
                                 _read_perspective, all_veblen_labelings,
                                 apply_pair_map_to_axis, complete_graph,
                                 desargues, enumerate_veblen, fez,
                                 grassmannian, kantor, labeling_action,
                                 multiveblen, path_graph, perm_spec,
                                 quasi_grassmannian, skew_perspective, zeta)
from perspectra.incidence import (a_point, b_point, c_point, center,
                                  free_point, from_json, to_json_dict)
from perspectra.iso import canonical_form, is_isomorphism
from perspectra.perms import (Permutation, all_permutations, induced_pair_map,
                              kappa_composed, pair_perm_from_dict, pairs_of,
                              parse_cycles, partitions)

from reference import (grasaxis_by_sweep, n4_orbits_by_side_swap,
                       veblen_labelings_by_subsets)


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
        assert sum(e.class_size for e in entries) == math.factorial(n)


def test_classify_grasaxis_rejects_out_of_range():
    with pytest.raises(IncidenceError):
        classify_grasaxis(2)
    with pytest.raises(IncidenceError):
        classify_grasaxis(9)


@pytest.mark.parametrize("n", [4.0, "4"])
def test_classify_grasaxis_rejects_a_non_int_degree(n):
    message = re.escape(f"n must be an int, got {n!r}")
    with pytest.raises(IncidenceError, match=message):
        classify_grasaxis(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classify_grasaxis_matches_the_full_sweep(n):
    # second method for the conjugacy-class orbits: canonicalise all n! skews
    assert classify_grasaxis(n) == grasaxis_by_sweep(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_conjugation_relabelling_is_an_isomorphism(n):
    # a_i -> a_tau(i), b_i -> b_tau(i), c_u -> c_tau(u) maps Pi(n, sigma, G)
    # onto Pi(n, tau sigma tau^-1, G), for sampled sigma and tau
    rng = random.Random(n)
    for _ in range(3):
        sigma, tau = (Permutation(tuple(rng.sample(range(1, n + 1), n)))
                      for _ in range(2))
        mapping = {center(): center()}
        for i in range(1, n + 1):
            mapping[a_point(i)] = a_point(tau(i))
            mapping[b_point(i)] = b_point(tau(i))
        for i, j in pairs_of(n):
            mapping[c_point(i, j)] = c_point(tau(i), tau(j))
        conj = tau.compose(sigma).compose(tau.inverse())
        assert is_isomorphism(skew_perspective(perm_spec(n, sigma)),
                              skew_perspective(perm_spec(n, conj)), mapping)


def test_classify_grasaxis_up_to_the_cap():
    for n in (7, 8):
        entries = classify_grasaxis(n)
        assert len(entries) == len(partitions(n))
        assert sum(e.class_size for e in entries) == math.factorial(n)


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


def _relabelled(config, rng):
    """config sent through JSON and from_json with its points renamed to
    shuffled free names, and its lines and their points shuffled."""
    data = to_json_dict(config)
    data["points"] = rng.sample([f"v{i}" for i in range(len(config.points))],
                                len(config.points))
    data["lines"] = [rng.sample(line, len(line)) for line in data["lines"]]
    rng.shuffle(data["lines"])
    return from_json(json.dumps(data))


def _instances():
    """((family, (str(sigma), labelling index)), spec) for each of the 1,440
    labelled n = 4 instances."""
    return [((family, (str(sigma), li)), SkewPerspectiveSpec(4, lift(sigma), axis))
            for family, lift in (("perm", induced_pair_map), ("kappa", kappa_composed))
            for sigma in all_permutations(4)
            for li, axis in enumerate(all_veblen_labelings())]


def test_identify_matches_the_cert_lookup(census_report):
    # second method: identify gives the census entry with the input's
    # canonical cert, or None when no entry has it.  The inputs: the 1,440
    # labelled instances, all 720 bijections of the pairs each over three
    # seeded Veblen labellings, and the named 15-point configurations, all
    # relabelled (the named ones also as built)
    by_cert = {e.canonical_hash: e for e in census_report.entries}
    rng = random.Random("identify-oracle")
    labelings = all_veblen_labelings()
    for (family, member), spec in _instances():
        config = _relabelled(skew_perspective(spec), rng)
        entry = identify(config)
        assert entry == by_cert[canonical_form(config).cert]
        assert entry.family == family and member in entry.members
    g4 = grassmannian(4)
    named = [grassmannian(6), quasi_grassmannian(4),
             multiveblen(4, path_graph(4), g4), multiveblen(4, set(), g4),
             multiveblen(4, complete_graph(4), g4),
             skew_perspective(SkewPerspectiveSpec(4, zeta(), g4))]
    configs = named + [_relabelled(config, rng) for config in named]
    configs += [_relabelled(skew_perspective(SkewPerspectiveSpec(
        4, pair_perm_from_dict(4, dict(zip(pairs_of(4), image))),
        rng.choice(labelings))), rng)
        for image in permutations(pairs_of(4)) for _ in range(3)]
    found = []
    for config in configs:
        entry = identify(config)
        assert entry == by_cert.get(canonical_form(config).cert)
        found.append(entry is not None)
    assert sum(found[:12]) == 12
    assert sum(found[12:]) == 169


def test_identify_runs_no_canonical_search(census_report):
    # once its index exists, identify reads its input back as a skew
    # perspective and asks the canonical-form kernel for nothing
    rng = random.Random("identify-no-search")
    configs = [_relabelled(skew_perspective(spec), rng)
               for _, spec in rng.sample(_instances(), 40)]
    stray = skew_perspective(SkewPerspectiveSpec(4, pair_perm_from_dict(
        4, dict(zip(pairs_of(4), ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 4))))),
        grassmannian(4)))
    identify(grassmannian(6))
    before = iso._canonical.cache_info()
    assert all(identify(config) is not None for config in configs)
    assert identify(stray) is None
    assert iso._canonical.cache_info() == before


def test_identify_index_has_one_key_per_member(census_report):
    # identify looks an instance up by one key, (its skew's pair-map items,
    # its axis's pair-line set): 1,440 distinct keys, one per member of the
    # 68 entries, so the 48 census skews and the 30 labelings are distinct
    index = census._identify_index()
    assert len(index) == sum(len(e.members) for e in census_report.entries) == 1440
    assert len({skew for skew, _ in index}) == 48
    assert len({axis for _, axis in index}) == 30
    by_hash = {e.canonical_hash: e for e in index.values()}
    assert tuple(by_hash.values()) == census_report.entries
    labelings = all_veblen_labelings()
    lifts = {"perm": induced_pair_map, "kappa": kappa_composed}
    for e in census_report.entries:
        for sigma, li in e.members:
            skew = lifts[e.family](parse_cycles(sigma, 4)).as_dict()
            key = (frozenset(skew.items()), _line_pair_sets(labelings[li]))
            assert index[key].canonical_hash == e.canonical_hash


def test_identify_reads_a_center_at_the_last_index(census_report):
    # the 4-cycle skew over G has one center; renamed to the last label, it
    # is the last point tried, and of the choices of one point on each line
    # through a point, only its two sides read as a skew perspective
    config = skew_perspective(perm_spec(4, "(1,2,3,4)"))
    data = to_json_dict(config)
    data["points"] = ["z" if name == "p" else "y" + name for name in data["points"]]
    moved = from_json(json.dumps(data))
    assert moved.points[-1] == free_point("z")
    third = moved._third
    read = [(p, sorted(side)) for p in range(15)
            for side in product(*sorted({tuple(sorted((x, y)))
                                         for x, y in enumerate(third[p])
                                         if y is not None}))
            if _read_perspective(moved, p, sorted(side))]
    assert sorted(read) == [(14, [0, 1, 2, 3]), (14, [4, 5, 6, 7])]
    entry = identify(moved)
    li = all_veblen_labelings().index(grassmannian(4))
    assert entry.family == "perm" and ("(1,2,3,4)", li) in entry.members


def test_canonical_output_is_pinned(census_report):
    # certificates may change only with a schema version bump
    assert SCHEMA_VERSION == "2"
    assert hashlib.sha256(census_report.to_json().encode()).hexdigest() == \
        "06ca9953f0952139d1bf509b6925b2b8f788ebae7cae175845b10b39b24c1ab9"
    pinned = [
        (desargues(), "ce33c1d30027b16a4239e944dc1932e8ad1c1481af879eab109c6d1034964828"),
        (fez(), "711ac8cc2eeed63f0acd990defdc070a15753170c1868e6e151be8e1db526bd1"),
        (kantor(), "24128c9d56814c317713d3956c4c3e8d6acf21f392b4ae7709b1a151b4fb41ea"),
        (grassmannian(4), "03bf227779e3e8f737cde2c9a4374f900a700dcb5f7a46a98f3a9d7944593cf3"),
        (grassmannian(5), "ce33c1d30027b16a4239e944dc1932e8ad1c1481af879eab109c6d1034964828"),
        (grassmannian(6), "2b8818a2f271a36065143f3605173cdfe7a9b741541235b15b6a034f268b3fba"),
        (grassmannian(7), "746b91de71988363fa9ec3d1b68ce6415e0cc7dd05b6dd231777712329052ae7"),
        (grassmannian(8), "ccba9033ef168042514f809d41f854d73892c25f13c9bf01b2d4cdfb9e9a1d2e"),
        (grassmannian(9), "dca1d7fd73db837260fff0a35711dd9f1c07ce4e8ef8e47cbfbc1bf006999ca7"),
    ]
    for config, cert in pinned:
        assert canonical_form(config).cert == cert


def _grasaxis_json(n):
    return json.dumps([e.as_json_dict() for e in classify_grasaxis(n)],
                      indent=2, sort_keys=True) + "\n"


def _sha256_without_certs(text):
    # a new canonical labeling changes the certs and the schema version only
    text = re.sub(r'"canonical_hash": "[0-9a-f]{64}"', '"canonical_hash": "-"', text)
    text = re.sub(r'"schema_version": "[^"]*"', '"schema_version": "-"', text)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_grasaxis_output_is_pinned(n):
    # class order, representatives, labels, invariants, members and certs
    digest = {
        3: "efc1a7e30e61e3d6d9cc1f7b0062461b5d838deeffe7c15e106908b5a872b348",
        4: "174e75dbe0fa9b83462ace9d4e245cfa7bc71543e3a77aa08a1bafec2bf12aa0",
        5: "4b66badf9b06dea755bf6a42108fe080e99fc151cbe34393fa8748f8b3e92e86",
    }[n]
    assert hashlib.sha256(_grasaxis_json(n).encode()).hexdigest() == digest


def test_census_output_without_certs_is_pinned(census_report):
    assert _sha256_without_certs(census_report.to_json()) == \
        "fc797b9d9ff5e4a16e0eb638d26b5094080ade9428f0a81927bab201d1b29a92"


@pytest.mark.parametrize("n", [3, 4, 5])
def test_classify_grasaxis_output_without_certs_is_pinned(n):
    digest = {
        3: "671cd9030e7251f6cae1119bb02f673e5218836bdeb815360401c542ef6d9dfd",
        4: "65859725fec6bfd969812c9ec2faa3bb1ba7b468848f29abf1948a92af9a6cb7",
        5: "2c9356f0e61cf2b5acf5fe6e46ea8d61579ca6c8bd20bbbb010771371fccb55b",
    }[n]
    assert _sha256_without_certs(_grasaxis_json(n)) == digest


@pytest.fixture(scope="module")
def labelled_sweep():
    """(family, member) -> (the _canonical key of its configuration, its
    canonical form), for every one of the 1,440 labelled n = 4 instances,
    each built through skew_perspective (which verifies it) and
    canonicalised on its own."""
    sweep = {}
    labelings = all_veblen_labelings()
    for family, lift in (("perm", induced_pair_map), ("kappa", kappa_composed)):
        for sigma in all_permutations(4):
            for li, axis in enumerate(labelings):
                config = skew_perspective(SkewPerspectiveSpec(4, lift(sigma), axis))
                sweep[family, (str(sigma), li)] = ((len(config.points), config.lines),
                                                   canonical_form(config))
    return sweep


def _record_forms(monkeypatch):
    """The distinct forms the canonical-form kernel is asked for from now on."""
    forms = {}
    canonical = iso._canonical

    def record(n, lines):
        forms[n, lines] = form = canonical(n, lines)
        return form

    monkeypatch.setattr(iso, "_canonical", record)
    return forms


def _search_totals(forms):
    return {key: sum(form.stats[key] for form in forms.values())
            for key in ("nodes", "leaves", "refine_rounds", "generators")}


def test_census_search_totals_are_pinned(monkeypatch, labelled_sweep):
    # the search tree the canonical-form kernel walks: summed over the 1,442
    # distinct forms of every labelled instance and of the class labels, over
    # the 71 a cold full_census computes (one instance per S4 x C2 orbit of
    # (skew, labelling), plus the two labels that are no instance), and for
    # G(9)
    forms = _record_forms(monkeypatch)
    census._labels.cache_clear()
    census._labels(4)
    forms.update(labelled_sweep.values())
    assert len(forms) == 1442
    assert _search_totals(forms) == {"nodes": 4191, "leaves": 2816,
                                     "refine_rounds": 8925, "generators": 1080}
    forms.clear()
    census._labels.cache_clear()
    full_census()
    assert len(forms) == 71
    assert _search_totals(forms)["nodes"] == 388
    stats = canonical_form(grassmannian(9)).stats
    assert (stats["nodes"], stats["leaves"], stats["refine_rounds"],
            stats["generators"]) == (42, 9, 74, 8)


def test_every_labelled_instance_is_in_its_census_class(census_report,
                                                         labelled_sweep):
    # second method for the orbit step: each instance, canonicalised on its
    # own, has the cert of the one entry whose members list it
    entry_of = {(e.family, member): e for e in census_report.entries
                for member in e.members}
    assert len(entry_of) == sum(e.class_size for e in census_report.entries)
    assert entry_of.keys() == labelled_sweep.keys()
    for instance, (_, form) in labelled_sweep.items():
        assert form.cert == entry_of[instance].canonical_hash


def _image(pmap, lines):
    return frozenset(frozenset(map(pmap, line)) for line in lines)


def test_census_orbit_count_is_burnsides(monkeypatch):
    # Burnside: the orbits of (sigma, L) under a group number the mean over
    # its elements of the pairs each fixes.  Under S4 alone,
    # (sigma, L) -> (tau sigma tau^-1, tau L), a pair is fixed when tau
    # commutes with sigma and fixes L; with the a/b swap, which maps it onto
    # (sigma^-1, delta L) for delta = lift(sigma), S4 x C2 also fixes the
    # pairs with tau sigma^-1 tau^-1 = sigma and tau delta L = L
    perms = all_permutations(4)
    labelings = all_veblen_labelings()
    fixed = [sum(tau.compose(sigma) == sigma.compose(tau) for sigma in perms)
             * sum(_line_pair_sets(apply_pair_map_to_axis(induced_pair_map(tau), axis))
                   == _line_pair_sets(axis) for axis in labelings)
             for tau in perms]
    assert sum(fixed) % len(perms) == 0
    assert sum(fixed) // len(perms) == 50
    line_sets = list(map(_line_pair_sets, labelings))
    for family, lift, orbits in (("perm", induced_pair_map, 44),
                                 ("kappa", kappa_composed, 25)):
        swapped = sum(
            _image(induced_pair_map(tau).compose(lift(sigma)), lines) == lines
            for tau in perms for sigma in perms
            if tau.compose(sigma.inverse()).compose(tau.inverse()) == sigma
            for lines in line_sets)
        assert (sum(fixed) + swapped) % (2 * len(perms)) == 0
        assert (sum(fixed) + swapped) // (2 * len(perms)) == orbits
        # the census builds one instance per orbit
        built = []
        monkeypatch.setattr(census, "skew_perspective",
                            lambda spec: built.append(spec) or skew_perspective(spec))
        census_n4(family)
        assert len(built) == orbits


@pytest.mark.parametrize("lift", [induced_pair_map, kappa_composed],
                         ids=["perm", "kappa"])
def test_side_swap_is_an_isomorphism(lift):
    # a_i <-> b_i, c_u -> c_delta(u) maps the instance (sigma, L) onto
    # (sigma^-1, delta L), delta = lift(sigma), for every one of the 720
    labelings = all_veblen_labelings()
    index = {_line_pair_sets(axis): li for li, axis in enumerate(labelings)}
    configs = {(sigma.image, li): skew_perspective(SkewPerspectiveSpec(4, lift(sigma), axis))
               for sigma in all_permutations(4) for li, axis in enumerate(labelings)}
    for sigma in all_permutations(4):
        delta = lift(sigma)
        mapping = {center(): center()}
        for i in range(1, 5):
            mapping[a_point(i)], mapping[b_point(i)] = b_point(i), a_point(i)
        for u in pairs_of(4):
            mapping[c_point(*u)] = c_point(*delta(u))
        for li, axis in enumerate(labelings):
            target = index[_image(delta, _line_pair_sets(axis))]
            assert is_isomorphism(configs[sigma.image, li],
                                  configs[sigma.inverse().image, target], mapping)


def test_veblen_labelings_match_the_exhaustive_search():
    # the 30 labellings built from perfect matchings are those of the 4,845
    # four-sets of triples, in the same order
    assert list(all_veblen_labelings()) == veblen_labelings_by_subsets()


def test_veblen_labelings_and_class_labels_are_built_once():
    # the first census enumerates the labellings and builds the class
    # labels; the other family's census, enumerate_veblen and a repeated
    # census reuse both.  Each census builds its own orbits.
    tables = (all_veblen_labelings, census._labels)
    for table in tables:
        table.cache_clear()
    census_n4("perm")
    assert [table.cache_info().misses for table in tables] == [1, 1]
    census_n4("kappa")
    census_n4("perm")
    assert enumerate_veblen().labelings is all_veblen_labelings()
    assert [table.cache_info().misses for table in tables] == [1, 1]


def test_classify_items_come_in_the_order_of_their_smallest_members(monkeypatch):
    # _classify takes the first item of a class as its representative: every
    # caller's items list their members in increasing order, the items'
    # first members increase, and each item's spec builds its first member
    classify, calls = census._classify, []

    def record(family, n, items):
        items = list(items)
        calls.append(items)
        return classify(family, n, items)

    monkeypatch.setattr(census, "_classify", record)
    for n in range(3, 9):
        classify_grasaxis(n)
    census_n4("perm")
    census_n4("kappa")
    assert len(calls) == 8
    for items in calls:
        assert all(members == sorted(members) for members, _ in items)
        firsts = [members[0] for members, _ in items]
        assert firsts == sorted(firsts) and len(set(firsts)) == len(firsts)
        assert all(spec.delta.phi.image == members[0][0] for members, spec in items)


@pytest.mark.parametrize("family, lift", [("perm", induced_pair_map),
                                          ("kappa", kappa_composed)],
                         ids=["perm", "kappa"])
def test_census_orbits_match_the_explicit_side_swap(monkeypatch, family, lift):
    # second method for the side-swap table: the census swaps (sigma, L)
    # onto (sigma^-1, epsilon L), the reference onto (sigma^-1, delta L)
    # with delta = lift(sigma), and both close under all of S4
    orbs = []
    monkeypatch.setattr(census, "_classify",
                        lambda family, n, items: orbs.extend(m for m, _ in items))
    census_n4(family)
    assert orbs == n4_orbits_by_side_swap(lift)


def test_labeling_action_matches_the_axis_images():
    # second method for the rows _census and enumerate_veblen build: the
    # index of each labelling's image, built as a Configuration, under all
    # 48 maps; and G(n) fixed by every induced map tried
    labelings = all_veblen_labelings()
    maps = [lift(phi) for lift in (induced_pair_map, kappa_composed)
            for phi in all_permutations(4)]
    assert labeling_action(labelings, maps) == [
        [labelings.index(apply_pair_map_to_axis(m, axis)) for axis in labelings]
        for m in maps]
    rng = random.Random("labeling-action")
    for n in range(3, 9):
        phis = [Permutation(tuple(rng.sample(range(1, n + 1), n)))
                for _ in range(100)]
        phis += all_permutations(n) if n <= 6 else []
        rows = labeling_action((grassmannian(n),), map(induced_pair_map, phis))
        assert rows == [[0]] * len(phis)
