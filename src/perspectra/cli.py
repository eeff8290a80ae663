"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .incidence import (Configuration, ConfigurationSignature, IncidenceError,
                        center, from_json, to_dot, to_json, verify)
from .families import (SkewPerspectiveSpec, grassmannian, kappa_spec,
                       multiveblen, path_graph, complete_graph, perm_spec,
                       quasi_grassmannian, skew_perspective, veblen_catalog,
                       veronesian, zeta)
from .analysis import (classify_pair_skew, free_complete_subgraphs,
                       reperspective, third_graph_criterion)
from .iso import are_isomorphic, automorphism_count
from .census import (SCHEMA_VERSION, CensusReport, census_n4, full_census,
                     identify)
from .realize import (PARAMETRIC_CASES, embed_search, parametric_realization,
                      verify_realization)


def _load(path: str) -> Configuration:
    with open(path) as fh:
        return from_json(fh.read())


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(args, payload, text: str):
    """Print payload as sorted JSON under --json, otherwise text (if any)."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif text:
        print(text)


def _resolve_axis(name: str, n: int):
    if name == "G":
        return grassmannian(n)
    cat = veblen_catalog()
    if name in cat:
        if n != 4:
            raise IncidenceError(f"axis {name} is only defined for n=4")
        return cat[name]
    return _load(name)


def _resolve_graph(text: str, n: int):
    named = {"complete": complete_graph, "empty": lambda n: set(),
             "path": path_graph}
    if text in named:
        return named[text](n)
    edges = set()
    for part in text.split(","):
        try:
            i, j = map(int, part.split("-"))
        except ValueError:
            raise IncidenceError(f"--graph edge {part!r} is not of the form "
                                 "i-j") from None
        edges.add(tuple(sorted((i, j))))
    return edges


# family: (least --n, the optional flags it reads, its builder from n or None)
_FAMILIES = {"gras": (3, (), grassmannian),
             "skew": (3, ("skew", "kappa", "axis"), None),
             "mveb": (3, ("graph", "axis"), None), "veronese": (1, (), veronesian),
             "quasigras": (4, (), quasi_grassmannian), "zeta": (4, ("axis",), None)}


def _cmd_construct(args):
    n, family = args.n, args.family
    least, reads, build = _FAMILIES[family]
    for flag in ("skew", "kappa", "graph", "axis"):
        value = getattr(args, flag)
        if value not in (None, False) and flag not in reads:
            raise IncidenceError(f"--{flag} does not apply to --family {family}")
        if value == "":
            raise IncidenceError(f"--{flag} must not be empty")
    if n != 4 and (family == "zeta" or args.kappa):
        what = "kappa" if args.kappa else "zeta"
        raise IncidenceError(f"the {what} skew is only defined for n=4")
    if n < least:
        raise IncidenceError(f"--n must be at least {least} for --family {family}, got {n}")
    axis = None if build else _resolve_axis(args.axis or "G", n)
    if build:
        config = build(n)
    elif family == "mveb":
        config = multiveblen(n, _resolve_graph(args.graph or "complete", n), axis)
    elif family == "zeta":
        config = skew_perspective(SkewPerspectiveSpec(4, zeta(), axis))
    elif args.kappa:
        config = skew_perspective(kappa_spec(args.skew or "id", axis))
    else:
        config = skew_perspective(perm_spec(n, args.skew or "id", axis))
    _emit(to_json(config), args.output)
    return 0


def _cmd_verify(args):
    config = _load(args.input)
    result = verify(config)
    if isinstance(result, ConfigurationSignature):
        _report(args, {"signature": list(result.as_tuple())},
                f"signature (nu,r,b,kappa) = {result.as_tuple()}")
        return 0
    witness = [[str(x) for x in w] if isinstance(w, tuple) else w
               for w in result.witness]
    _report(args, {"violation": result.axiom, "witness": witness},
            f"violation: {result.axiom}; witness {witness}")
    return 1


def spec_from_config(config: Configuration) -> SkewPerspectiveSpec:
    """Recover the (n, skew, axis) presentation from a labeled construction:
    the perspective from p between the a-side and the b-side."""
    a_side = [lab for lab in config.points if lab.kind == "a"]
    b_side = [lab for lab in config.points if lab.kind == "b"]
    if not a_side or not config.has_point(center()):
        raise IncidenceError("input is not labeled as a skew perspective")
    return reperspective(config, center(), [center()] + a_side,
                         [center()] + b_side)


def _cmd_analyze(args):
    config = _load(args.input)
    out = {}
    if args.free_k:
        report = free_complete_subgraphs(config, args.free_k)
        out["free_k"] = args.free_k
        out["free_count"] = len(report.free_sets)
        out["free_sets"] = [[str(x) for x in s] for s in report.free_sets]
    if args.skew_class or args.centers:
        spec = spec_from_config(config)
        if args.skew_class:
            cls = classify_pair_skew(spec.delta)
            out["skew_class"] = cls.kind
            if cls.phi is not None:
                out["skew_phi"] = str(cls.phi)
        if args.centers:
            out["alternate_centers"] = [i for i, _ in third_graph_criterion(spec)]
    _report(args, out, "\n".join(f"{k}: {out[k]}" for k in sorted(out)))
    return 0


def _cmd_iso(args):
    c1, c2 = _load(args.a), _load(args.b)
    witness = are_isomorphic(c1, c2)
    payload = {"isomorphic": witness is not None}
    lines = ["isomorphic" if witness is not None else "not isomorphic"]
    if witness is not None and args.witness:
        payload["witness"] = {str(k): str(v) for k, v in witness.items()}
        lines += [f"  {k} -> {witness[k]}" for k in sorted(witness, key=str)]
    _report(args, payload, "\n".join(lines))
    return 0


def _cmd_aut(args):
    config = _load(args.input)
    count = automorphism_count(config)
    _report(args, {"automorphisms": count}, str(count))
    return 0


def _cmd_census(args):
    if args.family == "all":
        report = full_census()
    else:
        report = CensusReport(tuple(census_n4(args.family)), ())
    _emit(report.to_json(), args.output)
    if args.output:
        totals = {}
        for e in report.entries:
            totals[e.family] = totals.get(e.family, 0) + 1
        print("classes per family:", totals)
    return 0


def _cmd_identify(args):
    config = _load(args.input)
    entry = identify(config)
    if entry is None:
        _report(args, None, "no match in the census")
    else:
        _report(args, entry.as_json_dict(),
                f"{entry.family} class: skew {entry.representative.describe_skew()}"
                f" label {entry.paper_label!r}")
    return 0


def _cmd_realize(args):
    config = _load(args.input)
    real = parametric_realization(args.case, args.params)
    ok, reason = verify_realization(config, real.coords)
    if not ok:
        raise IncidenceError(f"realization not faithful on input: {reason}")
    payload = {str(lab): list(map(str, v))
               for lab, v in real.coords.items()}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def _budget(text: str) -> int:
    value = float(text)
    if not (math.isfinite(value) and value.is_integer()):
        raise IncidenceError(f"--budget must be a whole number, got {text!r}")
    return int(value)


def _cmd_search_pg(args):
    config = _load(args.input)
    result = embed_search(config, args.q, _budget(args.budget))
    payload = {"status": result.status, "nodes": result.nodes}
    if result.assignment:
        payload["embedding"] = {str(k): list(v)
                                for k, v in result.assignment.items()}
    _report(args, payload, f"{result.status} (q={args.q}, nodes={result.nodes})")
    return 0


def _cmd_export(args):
    config = _load(args.input)
    _emit(to_dot(config) if args.format == "dot" else to_json(config),
          args.output)
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="print the report as JSON")

    top = argparse.ArgumentParser(prog="perspectra")
    top.add_argument("--version", action="version",
                     version=f"perspectra {__version__} (census schema {SCHEMA_VERSION})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--skew", default=None)
    p.add_argument("--kappa", action="store_true")
    p.add_argument("--axis",
                   help="G (the default), G*, W2, V4, V5, V6 or a JSON file")
    p.add_argument("--graph", help="complete (the default), empty, path or "
                   "an edge list like 1-2,2-3")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("input")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("analyze", parents=[common])
    p.add_argument("input")
    p.add_argument("--free-k", type=int, default=0)
    p.add_argument("--skew-class", action="store_true")
    p.add_argument("--centers", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("iso", parents=[common])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("aut", parents=[common])
    p.add_argument("input")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("census")
    p.add_argument("--family", choices=["perm", "kappa", "all"], default="all")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("identify", parents=[common])
    p.add_argument("input")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("realize")
    p.add_argument("input")
    p.add_argument("--case", required=True, choices=list(PARAMETRIC_CASES))
    p.add_argument("--params", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("search-pg", parents=[common])
    p.add_argument("input")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", default="1e9")
    p.set_defaults(func=_cmd_search_pg)

    p = sub.add_parser("export")
    p.add_argument("input")
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export)

    return top


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IncidenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
