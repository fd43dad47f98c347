"""The public surface of the package is what the package itself uses.

A public function or method that nothing in ``src/spintrack`` names,
outside its own body, is either dead or kept alive only by the tests;
both should go.  The same holds for a defaulted parameter that no call
in the package sets, and for a parameter that every call in the package
passes as the same string constant or None (a mode or callback whose
other branches only the tests reach).  The deliberate exceptions are
listed with the reason they stay.  A private function or method (a
leading underscore, dunders aside) that nothing else in the package
names is dead, with no exceptions.  Every name a module imports is also
used by that module: an import left behind by a deleted route goes with
it.
"""

import ast
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spintrack"

ALLOWED_UNUSED = {
    "model.fluctuating_plant":
        "builds a plant from the stationary field variance, the form the paper quotes",
    "numerics.trial_stream":
        "the documented per-trial stream that trial_normals and the SME records reproduce",
}

# defaulted parameters that nothing in src/ sets; a bare function name
# allows all of its defaults
_SUITE_SIZES = "the benchmark and the tests shrink the oracle battery through these"
ALLOWED_UNSET = {
    "qsme.suite_jx_decay": _SUITE_SIZES,
    "qsme.suite_variance_tracking": _SUITE_SIZES,
    "qsme.suite_two_point": _SUITE_SIZES,
    "qsme.suite_grid_kalman": _SUITE_SIZES,
    "qsme.suite_ramp_statistics": _SUITE_SIZES,
    "cli.main(argv=)": "the console script passes nothing; tests and the benchmark pass argv",
    "model.fluctuating_plant": "the paper's form of the plant, kept whole (see ALLOWED_UNUSED)",
}

# "module.function(parameter)" that every call in src/ passes as the same
# string constant or None, each with the reason it stays; none today
ALLOWED_FIXED = {}


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
    """Functions/methods other than dunders as (where, bare name), and for
    every bare name the set of places that reference it."""
    defs, refs = [], defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{owner}" if owner else path.stem
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                defs.append((where, node.name))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs[sub.id].add(where)
                elif isinstance(sub, ast.Attribute):
                    refs[sub.attr].add(where)
                elif isinstance(sub, ast.alias):
                    refs[sub.name].add(where)
    return defs, refs


def _params():
    """Public functions/methods with their parameters, as (where, bare name,
    [(position or None, parameter, default node or None)])."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = 1 if "." in owner and positional and positional[0].arg in ("self", "cls") else 0
            defaults = [None] * (len(positional) - len(a.defaults)) + list(a.defaults)
            params = [(i - skip, arg.arg, d)
                      for i, (arg, d) in enumerate(zip(positional, defaults)) if i >= skip]
            params += [(None, arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
            out.append((f"{path.stem}.{owner}", node.name, params))
    return out


def _calls():
    """Every call in the package as (calling scope, bare callee name, node)."""
    for path in sorted(SRC.glob("*.py")):
        for owner, node in _scopes(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.stem}.{owner}" if owner else path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    f = sub.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name:
                        yield where, name, sub


_SPLAT = object()


def _argument(call, position, param):
    """The expression a call passes for the parameter: None if it passes
    none, _SPLAT if a splat may pass it."""
    for k in call.keywords:
        if k.arg == param:
            return k.value
    starred = [isinstance(a, ast.Starred) for a in call.args]
    if position is not None and position < len(call.args) and not any(starred[:position + 1]):
        return call.args[position]
    if any(starred) or any(k.arg is None for k in call.keywords):
        return _SPLAT
    return None


def _literal(node):
    """repr of a str or None constant; None for anything else."""
    if isinstance(node, ast.Constant) and (node.value is None or isinstance(node.value, str)):
        return repr(node.value)
    return None


def _unset_defaults():
    calls = list(_calls())
    unset = set()
    for where, name, params in _params():
        own = [c for w, n, c in calls if n == name and w != where]
        unset |= {f"{where}({param}=)" for pos, param, default in params
                  if default is not None and not any(_argument(c, pos, param) for c in own)}
    return unset


def _fixed_arguments():
    """Parameters that every call in the package passes as one and the same
    string constant or None (a default that a call leaves in place counts
    as passed); at least one call must pass it explicitly."""
    calls = list(_calls())
    fixed = set()
    for where, name, params in _params():
        own = [c for w, n, c in calls if n == name and w != where]
        for pos, param, default in params:
            args = [_argument(c, pos, param) for c in own]
            if any(a is _SPLAT for a in args) or all(a is None for a in args):
                continue
            values = {_literal(default if a is None else a) for a in args}
            if len(values) == 1 and None not in values:
                fixed.add(f"{where}({param})")
    return fixed


def test_every_public_function_is_used_by_the_package():
    defs, refs = _surface()
    public = [(where, name) for where, name in defs if not name.startswith("_")]
    assert len(public) > 50   # the parse found the package
    unused = {where for where, name in public if not refs[name] - {where}}
    assert sorted(unused - set(ALLOWED_UNUSED)) == [], "public but unused in src: delete or use it"
    assert sorted(set(ALLOWED_UNUSED) - unused) == [], "used now: drop it from ALLOWED_UNUSED"


def test_every_private_function_is_used_by_the_package():
    # a helper left behind by a route that went (or one that only the tests
    # call) is dead code; no exceptions
    defs, refs = _surface()
    private = [(where, name) for where, name in defs if name.startswith("_")]
    assert len(private) > 30   # the parse found the helpers
    assert sorted(where for where, name in private if not refs[name] - {where}) == [], \
        "private but unused in src: delete it"


def test_every_defaulted_parameter_is_set_by_the_package():
    # an option that no caller in src/ sets is either dead or test-only
    flagged = _unset_defaults()
    allowed = {entry for entry in flagged
               if entry.split("(")[0] in ALLOWED_UNSET or entry in ALLOWED_UNSET}
    assert sorted(flagged - allowed) == [], "option never set in src: delete it or set it"
    stale = {entry for entry in ALLOWED_UNSET
             if not any(f == entry or f.split("(")[0] == entry for f in flagged)}
    assert sorted(stale) == [], "set now: drop it from ALLOWED_UNSET"


def test_no_parameter_gets_one_literal_from_every_call():
    # a mode string or callable that every caller fixes is a branch kept
    # for the tests only
    fixed = _fixed_arguments()
    assert sorted(fixed - set(ALLOWED_FIXED)) == [], "every call passes the same literal: drop it"
    assert sorted(set(ALLOWED_FIXED) - fixed) == [], "varies now: drop it from ALLOWED_FIXED"


def _unused_imports():
    """'module.name' for every name a module of the package imports and
    never reads (``from __future__`` imports are directives, not names)."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused |= {f"{path.stem}.{name}" for name in bound - read}
    return unused


def test_every_import_is_used():
    assert sorted(_unused_imports()) == [], "imported but never used: drop the import"


# the analysis layers follow from the classical model alone; the Monte
# Carlo, the truth simulator, the quantum oracle and the runner only check
# or drive them, so none of them may be imported by an analysis layer
ANALYSIS_LAYERS = ("model", "numerics", "riccati", "total_covariance", "freq")
SIMULATION_LAYERS = {"lqg_filter", "truth_sim", "qsme", "cli"}


def _relative_imports(stem):
    """The package modules that module ``stem`` names in its relative imports."""
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            named |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
    return named


def test_analysis_layers_import_no_simulation():
    imports = {stem: _relative_imports(stem) for stem in ANALYSIS_LAYERS}
    assert imports["total_covariance"] >= {"model", "riccati"}   # the parse found the imports
    assert {stem: sorted(named & SIMULATION_LAYERS) for stem, named in imports.items()
            if named & SIMULATION_LAYERS} == {}
