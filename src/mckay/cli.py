"""Command-line front end.

One command per verification family, a `group ... all` style battery, and
JSON emission.  Identical configuration (including the seed) produces
byte-identical output: keys are sorted, there are no timestamps, and every
numeric value is exact.

Exit codes: 0 all requested checks pass; 1 a check failed; 2 usage or
precondition error; 3 a resource guard tripped.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, verify
from .bgp import QuiverRep, reflect_minus, reflect_plus
from .chartab import character_table
from .errors import ConsistencyError, PreconditionError, ResourceLimitError
from .groups import build_group, group_summary, parse_descriptor
from .heights import (HeightFunction, enumerate_heights, ext_vanishing_check,
                      kirillov_check, path_count)
from .mckaygraph import mckay_graph
from .ktheory import weyl_checks
from .molien import HomDims, koszul_check, molien_matrices
from .preproj import preprojective_presentation, truncated_hilbert

MAX_DEGREE_LIMIT = 12
WINDOW_LIMIT = 4

STATEMENTS = {
    "koszul": "S(t) * E(-t) = Id as exact rational functions",
    "kirillov": "directed path counts equal equivariant Hom dimensions",
    "ext": "first Ext between height projectives vanishes",
    "hilbert": "preprojective graded dimensions equal the Molien table",
    "lattice": "simple classes realize the affine root lattice and twists "
               "realize the height flips",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "table"), default="json",
                        help="output mode (default json)")
    common.add_argument("--max-degree", type=int, default=6,
                        help=f"series truncation degree, at most {MAX_DEGREE_LIMIT}")
    common.add_argument("--window", type=int, default=2,
                        help=f"height enumeration window, at most {WINDOW_LIMIT}")
    common.add_argument("--seed", type=int, default=1,
                        help="seed for the eigenspace splitting and sampling")
    common.add_argument("--cache-dir", default=None,
                        help="character table cache directory "
                             "(or set MCKAY_CACHE_DIR)")
    parser = argparse.ArgumentParser(
        prog="mckay",
        parents=[common],
        description="Exact checks for McKay graphs, Molien series, "
                    "preprojective algebras, and spherical-twist lattices.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, descriptor=True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if descriptor:
            p.add_argument("descriptor", help="cyclic:n, bd:n, 2T, 2O or 2I")
        return p

    add("group", "build the group and print its class data")
    add("chartab", "irreducible character table")
    add("graph", "multiplicity graph, ADE type, imaginary root, parity")
    add("molien", "Molien matrices S and E with truncated series")
    add("koszul-check", "verify S(t) * E(-t) = Id")
    add("heights", "enumerate canonical height functions")
    p = add("paths", "path-count matrix of one height's quiver")
    p.add_argument("--height", required=True,
                   help="comma-separated values in vertex order, e.g. 0,1,2,1")
    p = add("kirillov-check", "path counts against Hom dimensions")
    p.add_argument("--height", default=None)
    p.add_argument("--all-heights", action="store_true")
    p = add("ext-check", "Ext vanishing between height projectives")
    p.add_argument("--height", default=None)
    p.add_argument("--all-heights", action="store_true")
    p.add_argument("--d-max", type=int, default=5,
                   help=f"largest twist, at most {MAX_DEGREE_LIMIT}")
    p = add("reflect", "apply a reflection functor to a representation file",
            descriptor=False)
    p.add_argument("--rep", required=True, help="QuiverRep JSON file, or - for stdin")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--dir", choices=("plus", "minus"), required=True)
    add("preproj", "preprojective presentation and truncated dimensions")
    p = add("hilbert-match", "preprojective dimensions against the Molien table")
    p.add_argument("--height", default=None)
    p = add("lattice-check", "dual bases, Cartan form, twists versus flips")
    p.add_argument("--height", default=None)
    p.add_argument("--all-heights", action="store_true")
    sub.add_parser("all", help="run the full acceptance battery", parents=[common])
    return parser


def _parse_height(graph, text: str) -> HeightFunction:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PreconditionError(f"bad height literal {text!r}") from None
    h = HeightFunction(graph, values)
    h.require_valid()
    return h


def _heights_for(args, graph):
    if getattr(args, "height", None):
        return [_parse_height(graph, args.height)]
    return enumerate_heights(graph, args.window)


def _config_doc(args) -> dict:
    return {
        "command": args.command,
        "descriptor": getattr(args, "descriptor", None),
        "max_degree": args.max_degree,
        "window": args.window,
        "seed": args.seed,
        "version": __version__,
    }


def _check(name, ok, witness=None) -> dict:
    return {"name": name, "statement": STATEMENTS.get(name.split("/")[0], name),
            "pass": bool(ok), "witness": witness}


def run(args) -> tuple[dict, int]:
    command = args.command
    if args.max_degree < 0 or args.max_degree > MAX_DEGREE_LIMIT:
        raise PreconditionError(f"--max-degree must be in 0..{MAX_DEGREE_LIMIT}")
    if args.window < 1 or args.window > WINDOW_LIMIT:
        raise PreconditionError(f"--window must be in 1..{WINDOW_LIMIT}")
    if command == "ext-check" and not 0 <= args.d_max <= MAX_DEGREE_LIMIT:
        raise PreconditionError(f"--d-max must be in 0..{MAX_DEGREE_LIMIT}")
    doc: dict = {"config": _config_doc(args)}
    checks: list[dict] = []

    if command == "reflect":
        try:
            if args.rep == "-":
                data = json.load(sys.stdin)
            else:
                with open(args.rep, encoding="utf-8") as fh:
                    data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"cannot read --rep {args.rep}: {exc}") from None
        rep = QuiverRep.from_json(data)
        out = (reflect_plus if args.dir == "plus" else reflect_minus)(rep, args.vertex)
        doc["result"] = out.to_json()
        return doc, 0

    if command == "all":
        checks = verify.run_all()
        doc["checks"] = checks
        return doc, 0 if all(c["pass"] for c in checks) else 1

    group = build_group(parse_descriptor(args.descriptor))
    if command == "group":
        doc["group"] = group_summary(group)
        return doc, 0

    table = character_table(group, seed=args.seed, cache_dir=args.cache_dir)
    if command == "chartab":
        doc["chartab"] = table.to_json()
        return doc, 0

    graph = mckay_graph(group, table)
    if command == "graph":
        doc["graph"] = graph.to_json()
        return doc, 0

    hd = HomDims(group, table)

    if command == "molien":
        matrices = molien_matrices(group, table)
        doc["molien"] = matrices.to_json(args.max_degree)
        return doc, 0

    if command == "koszul-check":
        ok, witness = koszul_check(molien_matrices(group, table))
        checks.append(_check("koszul", ok, witness))

    elif command == "heights":
        doc["heights"] = [list(h.values) for h in enumerate_heights(graph, args.window)]
        return doc, 0

    elif command == "paths":
        h = _parse_height(graph, args.height)
        quiver = h.quiver()
        doc["paths"] = [[path_count(quiver, i, j) for j in range(graph.size)]
                        for i in range(graph.size)]
        doc["sinks"] = list(quiver.sinks())
        doc["sources"] = list(quiver.sources())
        return doc, 0

    elif command == "kirillov-check":
        for h in _heights_for(args, graph):
            ok, rows = kirillov_check(h, hd)
            checks.append(_check(f"kirillov/{','.join(map(str, h.values))}", ok,
                                 None if ok else [r for r in rows if not r["ok"]]))

    elif command == "ext-check":
        for h in _heights_for(args, graph):
            ok, witness = ext_vanishing_check(h, hd, args.d_max)
            checks.append(_check(f"ext/{','.join(map(str, h.values))}", ok,
                                 witness or None))

    elif command == "preproj":
        pres = preprojective_presentation(graph)
        doc["presentation"] = pres.to_json()
        doc["graded_dims"] = truncated_hilbert(pres, args.max_degree).to_json()
        return doc, 0

    elif command == "hilbert-match":
        dims = truncated_hilbert(preprojective_presentation(graph), args.max_degree)
        mismatch = verify.hilbert_mismatches(graph, hd, dims)
        checks.append(_check("hilbert", not mismatch, mismatch or None))
        if args.height:
            h = _parse_height(graph, args.height)
            bad = verify.regraded_mismatches(hd, h, dims)
            checks.append(_check("hilbert/regraded", not bad, bad or None))

    elif command == "lattice-check":
        for h in _heights_for(args, graph):
            failures = verify.lattice_failures(graph, hd, h)
            checks.append(_check(f"lattice/{','.join(map(str, h.values))}",
                                 not failures, failures or None))
        report = weyl_checks(graph, seed=args.seed)
        checks.append(_check("lattice/weyl", report["ok"], report))

    else:
        raise PreconditionError(f"unknown command {command!r}")

    doc["checks"] = checks
    return doc, 0 if all(c["pass"] for c in checks) else 1


def _render_table(doc: dict) -> str:
    lines = []
    for check in doc.get("checks", []):
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(f"{status}  {check['name']}: {check['statement']}")
    if not lines:
        lines.append(json.dumps(doc, indent=2, sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = run(args)
    except PreconditionError as exc:
        print(json.dumps({"error": str(exc), "kind": "precondition"},
                         sort_keys=True), file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(json.dumps({"error": str(exc), "kind": "resource"},
                         sort_keys=True), file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(json.dumps({"error": str(exc), "kind": "consistency"},
                         sort_keys=True), file=sys.stderr)
        return 1
    if args.output == "table":
        print(_render_table(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
