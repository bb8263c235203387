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
from .chartab import DEFAULT_SEED, character_table
from .errors import ConsistencyError, PreconditionError, ResourceLimitError
from .groups import build_group, group_summary, parse_descriptor
from .heights import (HEIGHT_WORK_CAP, HeightFunction, enumerate_heights,
                      ext_vanishing_check, kirillov_check, path_counts)
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


class UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of printing usage text and exiting, so
    they reach `main` and end as a JSON error like every other bad input."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    # The options every command takes, before or after the subcommand: one
    # copy for the main parser and one for the subcommands.  Their defaults
    # are set on the main parser only, because argparse lets a subparser's
    # defaults overwrite what the main parser read.
    main_options, common = (argparse.ArgumentParser(add_help=False,
                                                    argument_default=argparse.SUPPRESS)
                            for _ in range(2))
    for options in (main_options, common):
        add = options.add_argument
        add("--output", choices=("json", "table"), help="output mode (default json)")
        add("--max-degree", type=int, help=f"series truncation degree, at most {MAX_DEGREE_LIMIT}")
        add("--window", type=int, help=f"height enumeration window, at most {WINDOW_LIMIT}")
        add("--seed", type=int, help="seed for the eigenspace splitting")
        add("--cache-dir", help="character table cache directory (or set MCKAY_CACHE_DIR)")
    parser = _Parser(
        prog="mckay",
        parents=[main_options],
        description="Exact checks for McKay graphs, Molien series, "
                    "preprojective algebras, and spherical-twist lattices.")
    parser.set_defaults(output="json", max_degree=6, window=2, seed=1, cache_dir=None)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, descriptor=True):
        p = sub.add_parser(name, help=help_text, parents=[common])
        if descriptor:
            p.add_argument("descriptor", help="cyclic:n, bd:n, 2T, 2O or 2I")
        return p

    def add_height_choice(p):
        choice = p.add_mutually_exclusive_group()
        choice.add_argument("--height", default=None,
                            help="one height, comma-separated values in vertex order")
        choice.add_argument("--all-heights", action="store_true",
                            help="every height of the window (the default)")

    add("group", "build the group and print its class data")
    add("chartab", "irreducible character table")
    add("graph", "multiplicity graph, ADE type, imaginary root, parity")
    add("molien", "Molien matrices S and E with truncated series")
    add("koszul-check", "verify S(t) * E(-t) = Id")
    add("heights", "enumerate canonical height functions")
    p = add("paths", "path-count matrix of one height's quiver")
    p.add_argument("--height", required=True,
                   help="comma-separated values in vertex order, e.g. 0,1,2,1")
    add_height_choice(add("kirillov-check", "path counts against Hom dimensions"))
    p = add("ext-check", "Ext vanishing between height projectives")
    add_height_choice(p)
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
    add_height_choice(add("lattice-check", "dual bases, Cartan form, twists versus flips"))
    sub.add_parser("all", help="run the full acceptance battery", parents=[common])
    return parser


def _parse_height(graph, text: str) -> HeightFunction:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise PreconditionError(f"bad height literal {text!r}") from None
    return HeightFunction(graph, values)


def _heights_for(args, graph):
    if args.height is not None:
        return [_parse_height(graph, args.height)]
    heights = enumerate_heights(graph, args.window)
    if (work := len(heights) * graph.size ** 3) > HEIGHT_WORK_CAP:
        raise ResourceLimitError(f"{len(heights)} heights on {graph.size} vertices cost "
                                 f"{len(heights)} x {graph.size}^3 = {work}, more than "
                                 f"{HEIGHT_WORK_CAP}")
    return heights


def _config_doc(args, descriptor) -> dict:
    return {
        "command": args.command,
        "descriptor": None if descriptor is None else descriptor.label,
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
    # Echo the canonical label, so every spelling of a group prints the same
    # bytes.
    descriptor = getattr(args, "descriptor", None)
    if descriptor is not None:
        descriptor = parse_descriptor(descriptor)
    doc: dict = {"config": _config_doc(args, descriptor)}
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
        fixed = (verify.WINDOW, verify.HILBERT_DEGREE, DEFAULT_SEED)
        if (args.window, args.max_degree, args.seed) != fixed:
            raise PreconditionError("all runs the battery at --window %d, "
                                    "--max-degree %d and --seed %d only" % fixed)
        checks = verify.run_all()
        doc["checks"] = checks
        return doc, 0 if all(c["pass"] for c in checks) else 1

    group = build_group(descriptor)
    if command == "group":
        doc["group"] = group_summary(group)
        return doc, 0

    table = character_table(group, seed=args.seed, cache_dir=args.cache_dir)
    if command == "chartab":
        doc["chartab"] = table.to_json()
        return doc, 0

    # Neither Molien command reads the McKay graph, which refuses cyclic:1.
    if command == "molien":
        doc["molien"] = molien_matrices(group, table).to_json(args.max_degree)
        return doc, 0

    if command == "koszul-check":
        ok, witness = koszul_check(molien_matrices(group, table))
        doc["checks"] = [_check("koszul", ok, witness)]
        return doc, 0 if ok else 1

    graph = mckay_graph(group, table)
    if command == "graph":
        doc["graph"] = graph.to_json()
        return doc, 0

    hd = HomDims(group, table)

    if command == "heights":
        doc["heights"] = [list(h.values) for h in enumerate_heights(graph, args.window)]
        return doc, 0

    elif command == "paths":
        h = _parse_height(graph, args.height)
        quiver = h.quiver()
        doc["paths"] = [list(row) for row in path_counts(quiver)]
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
        if args.height is not None:
            h = _parse_height(graph, args.height)
            bad = verify.regraded_mismatches(hd, h, dims)
            checks.append(_check("hilbert/regraded", not bad, bad or None))

    elif command == "lattice-check":
        for h in _heights_for(args, graph):
            failures = verify.lattice_failures(graph, hd, h)
            checks.append(_check(f"lattice/{','.join(map(str, h.values))}",
                                 not failures, failures or None))
        report = weyl_checks(graph)
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


# Each error type's JSON kind and exit code.
ERRORS = {UsageError: ("usage", 2), PreconditionError: ("precondition", 2),
          ResourceLimitError: ("resource", 3), ConsistencyError: ("consistency", 1)}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = run(args)
    except tuple(ERRORS) as exc:
        kind, code = next(v for t, v in ERRORS.items() if isinstance(exc, t))
        print(json.dumps({"error": str(exc), "kind": kind}, sort_keys=True), file=sys.stderr)
        return code
    if args.output == "table":
        print(_render_table(doc))
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
