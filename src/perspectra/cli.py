"""Command line front end.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .incidence import (Configuration, ConfigurationSignature, IncidenceError,
                        center, export, from_json, require_partial_linear,
                        to_json, verify)
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
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    if text == "complete":
        return complete_graph(n)
    if text == "empty":
        return set()
    if text == "path":
        return path_graph(n)
    edges = set()
    for part in text.split(","):
        i, _, j = part.partition("-")
        edges.add(tuple(sorted((int(i), int(j)))))
    return edges


def _cmd_construct(args):
    n = args.n
    if args.family == "gras":
        config = grassmannian(n)
    elif args.family == "veronese":
        config = veronesian(n)
    elif args.family == "quasigras":
        config = quasi_grassmannian(n)
    elif args.family == "zeta":
        axis = _resolve_axis(args.axis, 4)
        config = skew_perspective(SkewPerspectiveSpec(4, zeta(), axis))
    elif args.family == "mveb":
        axis = _resolve_axis(args.axis, n)
        config = multiveblen(n, _resolve_graph(args.graph, n), axis)
    else:  # skew
        axis = _resolve_axis(args.axis, n)
        if args.kappa:
            spec = kappa_spec(args.skew or "id", axis)
        else:
            spec = perm_spec(n, args.skew or "id", axis)
        config = skew_perspective(spec)
    _emit(to_json(config), args.output)
    return 0


def _cmd_verify(args):
    config = _load(args.input)
    result = verify(config)
    if isinstance(result, ConfigurationSignature):
        if args.json:
            print(json.dumps({"signature": list(result.as_tuple())}))
        else:
            print("signature (nu,r,b,kappa) =", result.as_tuple())
        return 0
    payload = {"violation": result.axiom,
               "witness": [[str(x) for x in w] if isinstance(w, tuple) else w
                           for w in result.witness]}
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"violation: {result.axiom}; witness {payload['witness']}")
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
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        for k in sorted(out):
            print(f"{k}: {out[k]}")
    return 0


def _cmd_iso(args):
    c1, c2 = _load(args.a), _load(args.b)
    witness = are_isomorphic(c1, c2)
    if args.json:
        payload = {"isomorphic": witness is not None}
        if witness is not None and args.witness:
            payload["witness"] = {str(k): str(v) for k, v in witness.items()}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("isomorphic" if witness is not None else "not isomorphic")
        if witness is not None and args.witness:
            for k in sorted(witness, key=str):
                print(f"  {k} -> {witness[k]}")
    return 0


def _cmd_aut(args):
    config = _load(args.input)
    count = automorphism_count(config)
    print(json.dumps({"automorphisms": count}) if args.json else count)
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
    if args.json:
        print(json.dumps(entry.as_json_dict() if entry else None, sort_keys=True))
    elif entry is None:
        print("no match in the census")
    else:
        print(f"{entry.family} class: skew {entry.representative.describe_skew()}"
              f" label {entry.paper_label!r}")
    return 0


def _frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _cmd_realize(args):
    config = _load(args.input)
    real = parametric_realization(args.case, args.params)
    ok, reason = verify_realization(config, real.coords)
    if not ok:
        raise IncidenceError(f"realization not faithful on input: {reason}")
    payload = {str(lab): [_frac_str(x) for x in v]
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
    require_partial_linear(config)
    result = embed_search(config, args.q, _budget(args.budget))
    payload = {"status": result.status, "nodes": result.nodes}
    if result.assignment:
        payload["embedding"] = {str(k): list(v)
                                for k, v in result.assignment.items()}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{result.status} (q={args.q}, nodes={result.nodes})")
    return 0


def _cmd_export(args):
    config = _load(args.input)
    data = export(config, args.format)
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="force JSON output")

    top = argparse.ArgumentParser(prog="perspectra")
    top.add_argument("--version", action="version",
                     version=f"perspectra {__version__} (census schema {SCHEMA_VERSION})")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common])
    p.add_argument("--family", required=True,
                   choices=["gras", "skew", "mveb", "veronese", "quasigras", "zeta"])
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--skew", default=None)
    p.add_argument("--kappa", action="store_true")
    p.add_argument("--axis", default="G",
                   help="G, G*, W2, V4, V5, V6 or a JSON file")
    p.add_argument("--graph", default="complete",
                   help="complete, empty, path or an edge list like 1-2,2-3")
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

    p = sub.add_parser("census", parents=[common])
    p.add_argument("--family", choices=["perm", "kappa", "all"], default="all")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("identify", parents=[common])
    p.add_argument("input")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("realize", parents=[common])
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

    p = sub.add_parser("export", parents=[common])
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
