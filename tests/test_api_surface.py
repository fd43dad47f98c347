"""The public surface of the package is what the package itself uses.

A public function or method that nothing in ``src/spintrack`` names,
outside its own body, is either dead or kept alive only by the tests;
both should go.  The deliberate exceptions are listed with the reason
they stay.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spintrack"

ALLOWED_UNUSED = {
    "model.fluctuating_plant":
        "builds a plant from the stationary field variance, the form the paper quotes",
    "lqg_filter.run_open_loop_linefit":
        "the paper's least-squares line-fit baseline that the Kalman filter is compared with",
    "riccati.controller_riccati_steady":
        "independent reverse-time route that checks the closed-form controller gain",
}


def _scopes(tree):
    """(owner, node): each top-level function, each method, and the other
    statements of the module and of class bodies."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                name = sub.name if isinstance(sub, ast.FunctionDef) else None
                yield f"{stmt.name}.{name}" if name else stmt.name, sub
        else:
            yield stmt.name if isinstance(stmt, ast.FunctionDef) else None, stmt


def _surface():
    """Public functions/methods as (where, bare name), and for every bare
    name the set of places that reference it."""
    defs, refs = [], defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{owner}" if owner else path.stem
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((where, node.name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs[sub.id].add(where)
                elif isinstance(sub, ast.Attribute):
                    refs[sub.attr].add(where)
                elif isinstance(sub, ast.alias):
                    refs[sub.name].add(where)
    return defs, refs


def test_every_public_function_is_used_by_the_package():
    defs, refs = _surface()
    assert len(defs) > 50   # the parse found the package
    unused = {where for where, name in defs if not refs[name] - {where}}
    assert sorted(unused - set(ALLOWED_UNUSED)) == [], "public but unused in src: delete or use it"
    assert sorted(set(ALLOWED_UNUSED) - unused) == [], "used now: drop it from ALLOWED_UNUSED"
