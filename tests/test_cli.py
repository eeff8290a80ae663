"""Command line behavior: subcommands, output files, exit codes."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perspectra
from perspectra import __version__
from perspectra.census import SCHEMA_VERSION
from perspectra.analysis import reperspective
from perspectra.cli import run, spec_from_config
from perspectra.incidence import (Configuration, a_point, b_point, center,
                                  from_json, to_json, to_json_dict, verify)
from perspectra.families import (SkewPerspectiveSpec, desargues, kappa_spec,
                                 perm_spec, skew_perspective, veblen_catalog,
                                 zeta)


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


def test_search_pg_rejects_four_point_line(tmp_path, capsys):
    bad = {"points": list("abcdefg"), "lines": [[0, 1, 2, 3], [0, 4, 5]]}
    path = tmp_path / "four.json"
    path.write_text(json.dumps(bad))
    assert run(["search-pg", str(path), "--q", "7"]) == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["search-pg", "aut"])
@pytest.mark.parametrize("fault", ["duplicate line", "not partially linear"])
def test_non_partial_linear_input_is_rejected(tmp_path, capsys, fault, command):
    data = to_json_dict(_desargues_less_one_line())
    first = data["lines"][0]
    off = next(i for i in range(len(data["points"])) if i not in first)
    data["lines"].append(first[::-1] if fault == "duplicate line"
                         else first[:2] + [off])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--q", "5"] if command == "search-pg" else [])
    assert run(argv) == 1
    assert fault in capsys.readouterr().err
