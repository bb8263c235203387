"""Every public top-level function of the package is used by the package.

A function counts as used when an AST name or attribute load of its name
appears somewhere in `src/mckay` outside its own definition.  The only
exceptions are the functions that the benchmark alone calls; the test also
checks that `perfbench/child.py` still calls each of them, so the list
cannot outlive its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mckay"

# Kept for `perfbench/child.py` alone; a benchmark change that stops calling
# them lets them go.
BENCHMARK_ONLY = {"bgp.assembled_rank", "bgp.find_isomorphism",
                  "bgp.round_trip_isomorphism", "ktheory.verify_twist_vs_flip"}


def loads(node: ast.AST) -> set[str]:
    """Names read under a node, as bare names or as attribute names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def unused_functions() -> set[str]:
    """module.function for each public top-level function of the package
    that nothing in the package outside its own body reads."""
    public, reads = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(stmt, ast.FunctionDef):
                owner = f"{module}.{stmt.name}"
                if not stmt.name.startswith("_"):
                    public.append((owner, stmt.name))
            reads.append((owner, loads(stmt)))
    return {owner for owner, name in public
            if not any(name in names for other, names in reads if other != owner)}


def test_every_public_function_is_used_in_the_package():
    assert unused_functions() == BENCHMARK_ONLY


def test_the_benchmark_still_calls_the_exempt_functions():
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    called = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert {name.split(".")[1] for name in BENCHMARK_ONLY} <= called
