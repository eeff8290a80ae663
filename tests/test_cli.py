"""Command line behavior: subcommands, output files, exit codes."""

import argparse
import ast
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import perspectra
from perspectra import __version__, iso
from perspectra.census import SCHEMA_VERSION
from perspectra.analysis import reperspective
from perspectra.cli import _build_parser, run, spec_from_config
from perspectra.incidence import (Configuration, ConfigurationSignature,
                                  a_point, b_point, center, from_json, to_json,
                                  to_json_dict, verify)
from perspectra.families import (SkewPerspectiveSpec, desargues, grassmannian,
                                 kappa_spec, perm_spec, skew_perspective,
                                 veblen_catalog, zeta)


def _construct(tmp_path, name, *argv):
    out = tmp_path / name
    assert run(["construct", *argv, "-o", str(out)]) == 0
    return out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert __version__ in text and SCHEMA_VERSION in text


def test_usage_error_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        run(["construct"])          # --family is required
    assert exc.value.code == 2


def test_construct_and_verify(tmp_path, capsys):
    path = _construct(tmp_path, "g.json", "--family", "gras", "--n", "5")
    assert run(["verify", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["signature"] == [10, 3, 10, 3]


def test_construct_skew_with_catalog_axis(tmp_path):
    path = _construct(tmp_path, "w2.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2)", "--axis", "W2")
    config = from_json(path.read_text())
    assert verify(config).as_tuple() == (15, 4, 20, 3)


def test_construct_mveb_edge_list(tmp_path):
    path = _construct(tmp_path, "mv.json", "--family", "mveb", "--n", "4",
                      "--graph", "1-2,2-3")
    config = from_json(path.read_text())
    assert verify(config).as_tuple() == (15, 4, 20, 3)


def test_construct_zeta(tmp_path):
    path = _construct(tmp_path, "z.json", "--family", "zeta")
    config = from_json(path.read_text())
    assert verify(config).as_tuple() == (15, 4, 20, 3)


@pytest.mark.parametrize("argv, what", [
    (["--family", "zeta", "--n", "5"], "zeta"),
    (["--family", "skew", "--kappa", "--n", "5"], "kappa"),
    (["--family", "skew", "--kappa", "--n", "3"], "kappa"),
], ids=["zeta-5", "kappa-5", "kappa-3"])
def test_construct_rejects_n_of_four_point_families(tmp_path, capsys, argv, what):
    assert run(["construct", *argv, "-o", str(tmp_path / "x.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the {what} skew is only defined for n=4\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["--family", "gras", "--n", "5", "--kappa", "--skew", "(1,2)",
      "--graph", "path"], "--skew does not apply to --family gras"),
    (["--family", "gras", "--kappa"], "--kappa does not apply to --family gras"),
    (["--family", "zeta", "--skew", "(1,2)"],
     "--skew does not apply to --family zeta"),
    (["--family", "mveb", "--kappa"], "--kappa does not apply to --family mveb"),
    (["--family", "skew", "--graph", "path"],
     "--graph does not apply to --family skew"),
    (["--family", "quasigras", "--graph", "complete"],
     "--graph does not apply to --family quasigras"),
    (["--family", "veronese", "--axis", "G"],
     "--axis does not apply to --family veronese"),
], ids=["gras-all-three", "gras-kappa", "zeta-skew", "mveb-kappa",
        "skew-graph", "quasigras-graph", "veronese-axis"])
def test_construct_rejects_flags_the_family_ignores(tmp_path, capsys, argv,
                                                    message):
    assert run(["construct", *argv, "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, flag", [
    (["--family", "mveb", "--graph="], "graph"),
    (["--family", "skew", "--skew=", "--axis="], "skew"),
    (["--family", "skew", "--skew", "(1,2)", "--axis="], "axis"),
    (["--family", "zeta", "--axis", ""], "axis"),
], ids=["mveb-graph", "skew-skew-axis", "skew-axis", "zeta-axis"])
def test_construct_rejects_empty_values(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.json"
    assert run(["construct", *argv, "--n", "4", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --{flag} must not be empty\n"
    assert not out.exists()


@pytest.mark.parametrize("family, n, least", [
    ("gras", -2, 3), ("gras", 0, 3), ("gras", 1, 3), ("gras", 2, 3),
    ("skew", 2, 3), ("mveb", 2, 3), ("quasigras", 3, 4), ("veronese", 0, 1),
])
def test_construct_names_n_in_range_errors(tmp_path, capsys, family, n, least):
    out = tmp_path / "x.json"
    assert run(["construct", "--family", family, "--n", str(n),
                "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --n must be at least {least} for --family {family}, got {n}\n")
    assert not out.exists()


def test_verify_reports_violation_with_exit_1(tmp_path, capsys):
    bad = {"points": ["w", "x", "y", "z"], "lines": [[0, 1, 2], [0, 1, 3]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["verify", str(path), "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["violation"] == "not partially linear"


def test_analyze_free_and_skew_class(tmp_path, capsys):
    path = _construct(tmp_path, "c.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2)")
    assert run(["analyze", str(path), "--free-k", "5", "--skew-class",
                "--centers", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["free_count"] == 4          # two sides + two fixed indices
    assert data["skew_class"] == "induced"
    assert data["alternate_centers"] == [3, 4]


def test_skew_class_runs_no_canonical_search(tmp_path, capsys):
    # reperspective checks its reading with an explicit label map, so
    # neither it nor analyze --skew-class asks the canonical-form kernel
    paths = [_construct(tmp_path, f"{k}.json", "--family", "skew", "--n", "4",
                        "--skew", skew)
             for k, skew in enumerate(["(1,2)", "(1,2,3,4)", "id"])]
    config = skew_perspective(kappa_spec("(1,3)", veblen_catalog()["W2"]))
    sides = [[center()] + [side(i) for i in range(1, 5)] for side in (a_point, b_point)]
    before = iso._canonical.cache_info()
    assert reperspective(config, center(), *sides).delta.tag == "kappa"
    for path in paths:
        assert run(["analyze", str(path), "--skew-class", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["skew_class"] == "induced"
    assert iso._canonical.cache_info() == before


def test_iso_command(tmp_path, capsys):
    p1 = _construct(tmp_path, "a.json", "--family", "skew", "--n", "4",
                    "--skew", "id", "--axis", "W2")
    p2 = _construct(tmp_path, "b.json", "--family", "skew", "--n", "4",
                    "--skew", "(3,4)")
    assert run(["iso", str(p1), str(p2), "--json", "--witness"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["isomorphic"] is True
    assert len(data["witness"]) == 15


def test_aut_command(tmp_path, capsys):
    path = _construct(tmp_path, "g6.json", "--family", "gras", "--n", "6")
    assert run(["aut", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["automorphisms"] == 720


def test_census_command_writes_file(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert run(["census", "--family", "perm", "-o", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == SCHEMA_VERSION
    assert all(e["family"] == "perm" for e in data["entries"])


def test_identify_command(tmp_path, capsys):
    path = _construct(tmp_path, "q.json", "--family", "quasigras", "--n", "4")
    assert run(["identify", str(path)]) == 0
    assert "quasi-Grassmannian R4" in capsys.readouterr().out


def test_realize_command(tmp_path, capsys):
    path = _construct(tmp_path, "c4.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2,3,4)")
    out = tmp_path / "coords.json"
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=2", "-o", str(out)]) == 0
    coords = json.loads(out.read_text())
    assert len(coords) == 15
    assert all(len(v) == 3 for v in coords.values())


def test_realize_rejects_mismatched_input(tmp_path, capsys):
    path = _construct(tmp_path, "id.json", "--family", "skew", "--n", "4",
                      "--skew", "id")
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=2"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[0, 1], [0, 1, 2, 3]], ids=["two", "four"])
def test_realize_rejects_lines_not_of_three_points(tmp_path, capsys, extra):
    # a line of 2 or 4 points once reached the 3-argument collinearity test
    # and escaped as a TypeError traceback
    data = to_json_dict(skew_perspective(perm_spec(4, "(1,2,3,4)")))
    data["lines"].append(extra)
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(data))
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=2"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: realization not faithful on input: line ")


def test_realize_rejects_unknown_parameters(tmp_path, capsys):
    path = _construct(tmp_path, "c4.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2,3,4)")
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=2,beta1=5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown parameters ['beta1']\n"


def test_realize_rejects_repeated_parameters(tmp_path, capsys):
    path = _construct(tmp_path, "c4.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2,3,4)")
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=2,beta2=3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: repeated parameters ['beta2']\n"


def test_realize_rejects_zero_denominator(tmp_path, capsys):
    path = _construct(tmp_path, "c4.json", "--family", "skew", "--n", "4",
                      "--skew", "(1,2,3,4)")
    assert run(["realize", str(path), "--case", "c4",
                "--params", "beta2=2,x=2,y=1/0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parameter y is not a rational number: '1/0'\n"


def test_search_pg_command(tmp_path, capsys):
    path = _construct(tmp_path, "d.json", "--family", "skew", "--n", "3",
                      "--skew", "id")
    assert run(["search-pg", str(path), "--q", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "none"


@pytest.mark.parametrize("budget", ["inf", "nan", "0", "-3", "2.5"])
def test_search_pg_rejects_bad_budget(tmp_path, capsys, budget):
    path = _construct(tmp_path, "d.json", "--family", "skew", "--n", "3",
                      "--skew", "id")
    assert run(["search-pg", str(path), "--q", "5", "--budget", budget]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("budget", ["1e9", "50"])
def test_search_pg_accepts_whole_budgets(tmp_path, capsys, budget):
    path = _construct(tmp_path, "d.json", "--family", "skew", "--n", "3",
                      "--skew", "id")
    assert run(["search-pg", str(path), "--q", "5", "--budget", budget,
                "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] in ("found", "inconclusive")


@pytest.mark.parametrize("graph", ["1-9", "1-1", "0-1"])
def test_construct_mveb_rejects_bad_edges(tmp_path, capsys, graph):
    out = tmp_path / "mv.json"
    assert run(["construct", "--family", "mveb", "--n", "4", "--graph", graph,
                "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("graph, edge", [("1-2,x", "x"), (",", ""),
                                         ("1-2-3", "1-2-3")],
                         ids=["letter", "empty", "three-ends"])
def test_construct_mveb_rejects_malformed_edges(tmp_path, capsys, graph, edge):
    out = tmp_path / "mv.json"
    assert run(["construct", "--family", "mveb", "--n", "4", "--graph", graph,
                "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --graph edge {edge!r} is not of the form i-j\n")
    assert not out.exists()


def test_construct_mveb_edges_take_int_spellings(tmp_path):
    spaced = _construct(tmp_path, "a.json", "--family", "mveb", "--n", "4",
                        "--graph", " 1-2, 2 -3")
    plain = _construct(tmp_path, "b.json", "--family", "mveb", "--n", "4",
                       "--graph", "1-2,2-3")
    assert spaced.read_text() == plain.read_text()


def test_analyze_rejects_negative_free_k(tmp_path, capsys):
    path = _construct(tmp_path, "c.json", "--family", "skew", "--n", "4")
    assert run(["analyze", str(path), "--free-k", "-2"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert run(["analyze", str(path), "--free-k", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {}


def test_export_dot(tmp_path, capsys):
    path = _construct(tmp_path, "d.json", "--family", "skew", "--n", "3",
                      "--skew", "id")
    assert run(["export", str(path), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("graph levi {")
    with pytest.raises(SystemExit) as exc:
        run(["export", str(path), "--format", "svg"])
    assert exc.value.code == 2


def test_missing_file_is_domain_error(capsys):
    assert run(["verify", "/nonexistent/x.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_spec_from_config_roundtrip():
    spec = perm_spec(4, "(1,2,3)")
    back = spec_from_config(skew_perspective(spec))
    assert back.delta.same_map(spec.delta)
    assert back.axis.lines == spec.axis.lines


_SPEC_CASES = (
    [("census", i) for i in range(68)]
    + [("zeta", name) for name in ("G", "G*", "W2", "V4", "V5", "V6")]
    + [("perm", n, skew) for n, skew in ((3, "(1,2,3)"), (3, "(2,3)"),
                                         (5, "(1,2)(3,4,5)"), (5, "id"),
                                         (6, "(1,2,3,4,5,6)"))]
    + [("kappa", skew, axis) for skew, axis in (("id", "G"), ("(1,2,3)", "W2"))])


def _case_spec(case, census_report):
    kind, *rest = case
    if kind == "census":
        assert len(census_report.entries) == 68
        return census_report.entries[rest[0]].representative
    if kind == "zeta":
        return SkewPerspectiveSpec(4, zeta(), veblen_catalog()[rest[0]])
    if kind == "perm":
        return perm_spec(*rest)
    return kappa_spec(rest[0], veblen_catalog()[rest[1]])


@pytest.mark.parametrize("case", _SPEC_CASES,
                         ids=lambda case: "-".join(map(str, case)))
def test_spec_from_config_matches_reperspective(census_report, case):
    spec = _case_spec(case, census_report)
    config = skew_perspective(spec)
    back = spec_from_config(config)
    sides = [[center()] + [side(i) for i in range(1, spec.n + 1)]
             for side in (a_point, b_point)]
    assert back == reperspective(config, center(), *sides)
    assert back.delta.same_map(spec.delta)
    if spec.delta.tag != "general":
        assert (back.delta.tag, back.delta.phi) == (spec.delta.tag, spec.delta.phi)
    assert back.axis == spec.axis


def test_console_entry_point_runs():
    src = str(Path(perspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "perspectra.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "perspectra" in proc.stdout


def test_runtime_imports_only_the_standard_library():
    # site hooks may load third-party modules before any perspectra import,
    # so only the names the import adds are checked
    code = ("import sys\n"
            "before = {m.partition('.')[0] for m in sys.modules}\n"
            "import perspectra, perspectra.cli\n"
            "print(sorted({m.partition('.')[0] for m in sys.modules} - before))\n")
    src = str(Path(perspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    added = set(ast.literal_eval(proc.stdout)) - {"perspectra"}
    assert added <= sys.stdlib_module_names, sorted(added - sys.stdlib_module_names)


def test_src_names_are_used_or_exported():
    # every top-level function and class of src/perspectra is referenced by
    # another top-level statement of src/, or exported by the package
    def names(node):
        return {sub.id if isinstance(sub, ast.Name) else sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute))}

    src = Path(perspectra.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    exported = {alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    nodes = [node for tree in trees.values() for node in tree.body]
    refs = collections.Counter(name for node in nodes for name in names(node))
    unused = sorted(node.name for node in nodes
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and refs[node.name] == (node.name in names(node))
                    and node.name not in exported)
    assert unused == []


def test_src_imports_are_read():
    # every name a src/perspectra module imports is read in it; the package
    # __init__.py imports to export, and __future__ imports set a mode
    src = Path(perspectra.__file__).parent
    unread = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unread += [f"{path.name}:{name}" for alias in node.names
                           if (name := (alias.asname or alias.name).partition(".")[0])
                           not in read]
    assert unread == []


def test_src_locals_are_read():
    # every local name a src/ function stores into is read in it; d[k] = v
    # stores into d, and `_` names a value kept unread.  Parameters and
    # global or nonlocal names are seen by the caller, so they are exempt.
    src = Path(perspectra.__file__).parent
    dead = []
    for path in sorted(src.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(func))
            into = set()
            for sub in nodes:
                if isinstance(sub, ast.Subscript) and isinstance(sub.ctx, ast.Store):
                    base = sub.value
                    while isinstance(base, ast.Subscript):
                        base = base.value
                    into.add(base)
            names = [sub for sub in nodes if isinstance(sub, ast.Name)]
            stored = {sub.id for sub in names
                      if isinstance(sub.ctx, ast.Store) or sub in into}
            read = {sub.id for sub in names
                    if isinstance(sub.ctx, ast.Load) and sub not in into}
            seen = {arg.arg for arg in ast.walk(func.args)
                    if isinstance(arg, ast.arg)}
            seen |= {name for sub in nodes
                     if isinstance(sub, (ast.Global, ast.Nonlocal))
                     for name in sub.names}
            dead += [f"{path.name}:{func.name}:{name}"
                     for name in sorted(stored - read - seen - {"_"})]
    assert dead == []



def test_src_tables_are_bounded_caches():
    # a process-wide table is an lru_cache with an integer maxsize, not a
    # module global rebound through a global statement
    def cache_name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def bounded(call):
        size = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
        return (len(size) == 1 and isinstance(size[0], ast.Constant)
                and type(size[0].value) is int)

    src = Path(perspectra.__file__).parent
    bad = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Global):
                bad.append(f"{where}: global {', '.join(node.names)}")
            elif isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
                if not bounded(node):
                    bad.append(f"{where}: lru_cache without an integer maxsize")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad += [f"{where}: bare {cache_name(dec)} on {node.name}"
                        for dec in node.decorator_list
                        if cache_name(dec) in ("lru_cache", "cache")]
    assert bad == []

def test_src_definitions_are_reached():
    # every top-level function or class of a src/ module is imported by the
    # package, or loaded by name outside its own body: in its module, or in a
    # module that imports it from there.  Unlike a match on bare names, a
    # local variable or an attribute of the same name elsewhere does not count.
    src = Path(perspectra.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    reached = set()
    for module, tree in trees.items():
        source = {alias.asname or alias.name: node.module
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
        if module == "__init__":
            reached |= {(origin, name) for name, origin in source.items()}
        for top in tree.body:
            own = getattr(top, "name", None)
            reached |= {(source.get(sub.id, module), sub.id)
                        for sub in ast.walk(top)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load) and sub.id != own}
    defined = {(module, node.name) for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert sorted(defined - reached) == []


def test_src_imports_are_at_module_level():
    # an import inside a function or class body can hide a cycle in the
    # module graph, which a top-level import would fail on at once
    src = Path(perspectra.__file__).parent
    nested = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                nested |= {f"{path.name}:{sub.lineno}" for sub in ast.walk(node)
                           if isinstance(sub, (ast.Import, ast.ImportFrom))}
    assert sorted(nested) == []


def test_test_imports_are_used():
    # every name a test module takes with `from ... import` is used in it
    unused = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {alias.asname or alias.name}"
                   for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for alias in node.names
                   if (alias.asname or alias.name) not in used]
    assert unused == []


@pytest.mark.parametrize("data", [
    {"points": ["x", "y", "z"], "lines": [[0, 1, -1]]},
    {"points": ["x", "y", "z"], "lines": [[0, 1, 5]]},
    {"points": ["x", "y", "z"], "lines": [[0, 1, "2"]]},
    {"lines": [[0, 1, 2]]},
    [["x", "y", "z"], [[0, 1, 2]]],
], ids=["negative-index", "index-out-of-range", "string-index",
        "missing-points", "top-level-list"])
def test_malformed_json_is_domain_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_json_is_domain_error(tmp_path, capsys):
    # the decoder's recursion limit once escaped as a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


def test_search_pg_rejects_q_above_the_bound(tmp_path, capsys, monkeypatch):
    # 131 is the first prime above the bound; no field table may be built
    path = _construct(tmp_path, "d.json", "--family", "skew", "--n", "3",
                      "--skew", "id")
    monkeypatch.setattr(perspectra.realize, "GF", None)
    assert run(["search-pg", str(path), "--q", "131"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: no field of order 131 available: "
                            "q is above the bound 127\n")


def test_search_pg_rejects_four_point_line(tmp_path, capsys):
    # embed_search's own check names the line; search-pg runs no other first
    bad = {"points": list("abcdefg"), "lines": [[0, 1, 2, 3], [0, 4, 5]]}
    path = tmp_path / "four.json"
    path.write_text(json.dumps(bad))
    assert run(["search-pg", str(path), "--q", "7"]) == 1
    assert capsys.readouterr() == ("", "error: line (0, 1, 2, 3) does not have 3 points\n")


@pytest.mark.parametrize("command", [
    ["construct", "--family", "gras"], ["census", "--family", "perm"],
    ["realize", "x.json", "--case", "c4", "--params", "beta2=2,x=2,y=2"],
    ["export", "x.json"]])
def test_json_flag_only_where_it_is_read(command):
    # these subcommands always write JSON, so --json is a usage error
    with pytest.raises(SystemExit) as exc:
        run(command + ["--json"])
    assert exc.value.code == 2


def test_unused_flags_are_gone(tmp_path):
    path = _construct(tmp_path, "g.json", "--family", "gras", "--n", "4")
    for flag in ("--seed", "--threads"):
        with pytest.raises(SystemExit) as exc:
            run(["verify", str(path), flag, "1"])
        assert exc.value.code == 2


def _desargues_less_one_line():
    d = desargues()
    return Configuration.build(d.points,
                               [d.line_labels(l) for l in d.lines[:-1]])


def test_non_regular_input_is_accepted(tmp_path, capsys):
    path = tmp_path / "d9.json"
    path.write_text(to_json(_desargues_less_one_line()))
    assert run(["search-pg", str(path), "--q", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "none"
    assert run(["aut", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"automorphisms": 12}


@pytest.mark.parametrize("command", ["search-pg", "aut", "analyze"])
@pytest.mark.parametrize("fault", ["duplicate line", "not partially linear"])
def test_non_partial_linear_input_is_rejected(tmp_path, capsys, fault, command):
    data = to_json_dict(_desargues_less_one_line())
    first = data["lines"][0]
    off = next(i for i in range(len(data["points"])) if i not in first)
    data["lines"].append(first[::-1] if fault == "duplicate line"
                         else first[:2] + [off])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + {"search-pg": ["--q", "5"],
                                   "analyze": ["--free-k", "3"]}.get(command, [])
    assert run(argv) == 1
    assert fault in capsys.readouterr().err


# exact stdout and exit code of the reporting subcommands, text and --json;
# tests/cli_golden.json holds the expected output
_GOLDEN_INPUTS = {
    "g5": ["--family", "gras", "--n", "5"],
    "g6": ["--family", "gras", "--n", "6"],
    "perm": ["--family", "skew", "--n", "4", "--skew", "(1,2)"],
    "kappa": ["--family", "skew", "--n", "4", "--skew", "(1,2,3)", "--kappa"],
    "w2": ["--family", "skew", "--n", "4", "--skew", "id", "--axis", "W2"],
    "perm34": ["--family", "skew", "--n", "4", "--skew", "(3,4)"],
    "quasi": ["--family", "quasigras", "--n", "4"],
    "veronese": ["--family", "veronese", "--n", "4"],
    "desargues": ["--family", "skew", "--n", "3", "--skew", "id"],
}

_GOLDEN_CASES = {
    "verify-valid": ["verify", "g5"],
    "verify-violation": ["verify", "bad"],
    "analyze-perm": ["analyze", "perm", "--free-k", "5", "--skew-class",
                     "--centers"],
    "analyze-kappa": ["analyze", "kappa", "--free-k", "5", "--skew-class"],
    "analyze-bare": ["analyze", "perm"],
    "iso-witness": ["iso", "w2", "perm34", "--witness"],
    "iso-non-match": ["iso", "perm", "kappa"],
    "aut": ["aut", "g6"],
    "identify-match": ["identify", "quasi"],
    "identify-no-match": ["identify", "veronese"],
    "identify-g5": ["identify", "g5"],
    "search-pg": ["search-pg", "desargues", "--q", "5"],
}


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in _GOLDEN_INPUTS.items():
        paths[name] = str(folder / f"{name}.json")
        assert run(["construct", *argv, "-o", paths[name]]) == 0
    paths["bad"] = str(folder / "bad.json")
    Path(paths["bad"]).write_text(json.dumps(
        {"points": ["w", "x", "y", "z"], "lines": [[0, 1, 2], [0, 1, 3]]}))
    return paths


def _golden_run(paths, case, mode, capsys):
    argv = [paths.get(word, word) for word in _GOLDEN_CASES[case]]
    code = run(argv + (["--json"] if mode == "json" else []))
    return [code, capsys.readouterr().out]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", list(_GOLDEN_CASES))
def test_cli_output_is_golden(golden_inputs, capsys, case, mode):
    golden = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    assert _golden_run(golden_inputs, case, mode, capsys) == golden[case][mode]


# command-line fuzz: every subcommand and option, with valid and broken
# values, over a small pool of valid and mutated JSON files
def _fuzz_files(folder):
    valid = {"desargues": desargues(), "g4": grassmannian(4),
             "perm": skew_perspective(perm_spec(4, "(1,2)")),
             "c4": skew_perspective(perm_spec(4, "(1,2,3,4)")),
             "kappa": skew_perspective(kappa_spec("(1,2,3)")),
             "w2": veblen_catalog()["W2"]}
    texts = {name: to_json(config) for name, config in valid.items()}
    data = to_json_dict(desargues())
    first = data["lines"][0]
    off = next(i for i in range(len(data["points"])) if i not in first)

    def mutated(points=data["points"], lines=data["lines"], extra=()):
        return json.dumps({"points": points, "lines": lines + list(extra)})

    texts.update({
        "less-a-line": mutated(lines=data["lines"][:-1]),
        "not-partially-linear": mutated(extra=[first[:2] + [off]]),
        "duplicate-line": mutated(extra=[first[::-1]]),
        "mixed-sizes": mutated(extra=[[first[0], off]]),
        "four-point-line": mutated(extra=[first + [off]]),
        "index-out-of-range": mutated(extra=[[0, 1, 99]]),
        "string-index": mutated(extra=[[0, 1, "2"]]),
        "float-index": mutated(extra=[[0, 1, 2.0]]),
        "repeated-point": mutated(extra=[[0, 0, 1]]),
        "duplicate-label": mutated(points=[data["points"][1]] + data["points"][1:]),
        "bad-label": mutated(points=["q!"] + data["points"][1:]),
        "free-labels": mutated(points=[f"x{i}" for i in range(len(data["points"]))]),
        "no-points": json.dumps({"lines": data["lines"]}),
        "top-level-list": json.dumps([data["points"], data["lines"]]),
        "truncated": texts["desargues"][:len(texts["desargues"]) // 2],
        "empty": "",
        "deep": "[" * 100_000 + "]" * 100_000,
    })
    paths = {}
    for name, text in texts.items():
        paths[name] = str(folder / f"{name}.json")
        Path(paths[name]).write_text(text)
    paths["not-utf8"] = str(folder / "not-utf8.json")
    Path(paths["not-utf8"]).write_bytes(b"\xff\xfe{")
    paths["missing"] = str(folder / "missing.json")
    paths["folder"] = str(folder)
    return paths


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    return folder, _fuzz_files(folder)


def _fuzz_values(files, out):
    """Valid and broken values for each option of the parser, by its dest."""
    some = st.sampled_from
    n = st.integers(-1, 6).map(str) | some(["x", "", "4.0"])
    path = some(list(files.values()))
    return {
        "input": path, "a": path, "b": path, "n": n, "free_k": n,
        "output": some([str(out), str(out.parent), str(out.parent / "no" / "x")]),
        "family": some(["gras", "skew", "mveb", "veronese", "quasigras", "zeta",
                        "perm", "kappa", "all", "fano"]),
        "skew": some(["id", "(1,2)", "(1,2,3,4)", "(1,2)(3,4)", "(1,5)", "(1,1)",
                      "((", "", "1,2"]),
        "axis": some(["G", "G*", "W2", "V4", "V5", "V6", "X9", ""]) | path,
        "graph": some(["complete", "empty", "path", "1-2,2-3", "1-2-3", "a-b",
                       "", "1-9", "0-1", "1-1", ","]),
        "case": some(["c4", "c3f", "c5"]),
        "params": some(["beta2=2,x=2,y=2", "beta1=5,beta2=2,y=2",
                        "beta2=2,x=2,y=1/0", "beta2=2,beta2=3", "bogus=1",
                        "beta2=a", "", "=,"]),
        "q": st.integers(-1, 13).map(str) | some(["x", ""]),
        "budget": some(["1000", "100", "1e3", "0", "-5", "1.5", "nan", "inf",
                        "abc"]),
        "format": some(["json", "dot", "svg"]),
    }


def _parser_commands():
    """Each subcommand of the parser and its arguments, --help aside."""
    parser = _build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: [action for action in command._actions
                   if not isinstance(action, argparse._HelpAction)]
            for name, command in sub.choices.items()}


@st.composite
def _invocations(draw, commands, values):
    command = draw(st.sampled_from(sorted(commands)))
    actions = commands[command]
    argv = [command] + [draw(values[action.dest]) for action in actions
                        if not action.option_strings]
    # a --budget is always given, to keep every search small
    options = [action for action in actions if action.option_strings]
    always = [action for action in options
              if action.required or action.dest == "budget"]
    chosen = always + draw(st.lists(st.sampled_from(
        [action for action in options if action not in always]),
        unique=True, max_size=4))
    for action in chosen:
        flag = draw(st.sampled_from(action.option_strings))
        argv += [flag] if action.nargs == 0 else [flag, draw(values[action.dest])]
    if draw(st.sampled_from([False] * 19 + [True])):
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_fuzz(fuzz_files):
    folder, files = fuzz_files
    out = folder / "out.json"

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_invocations(_parser_commands(), _fuzz_values(files, out)))
    def check(argv):
        if out.exists():
            out.unlink()
        code, stdout, stderr = _run_captured(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in stdout + stderr, argv
        if code == 1:
            assert ("error: " in stderr
                    or argv[0] == "verify" and "violation" in stdout), argv
        if code == 0 and argv[0] == "construct":
            text = out.read_text() if str(out) in argv else stdout
            assert isinstance(verify(from_json(text)), ConfigurationSignature)

    check()


def test_cli_rejects_a_catalog_axis_off_n4_and_an_unlabelled_skew_class(
        tmp_path, capsys):
    argv = ["construct", "--family", "skew", "--n", "5", "--axis", "W2"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: axis W2 is only defined for n=4\n"
    path = _construct(tmp_path, "g5.json", "--family", "gras", "--n", "5")
    assert run(["analyze", str(path), "--skew-class"]) == 1
    assert capsys.readouterr().err == (
        "error: input is not labeled as a skew perspective\n")
