"""No dead definitions in the package.

Every top-level definition of ``src/biconsurf`` (function, class or module
constant), and every method of ``tensors.MetricCalculus``, must be referenced
somewhere under ``src/`` outside its own definition: by name, as an
attribute, or in an import. The package's public names (``__all__``), the
click commands and :data:`ALLOWED` are exempt. Matching is by name, with the
stdlib ``ast`` module, so a name that only tests or benchmarks use is
flagged: code that only tests call belongs in a test helper such as
``tests/lemmas.py``.
"""

import ast
from pathlib import Path

import biconsurf

PACKAGE = Path(biconsurf.__file__).parent

# unreferenced names that stay: name -> why, and what retires it
ALLOWED = {
    "backend_name": "perfbench/run.py records the stencil backend; goes with the"
                    " benchmark change of ROADMAP item 7",
    "equivalence_matrix": "called by tests only until ROADMAP item 4 gives it a caller",
    "parallel_AH_checks": "called by tests only until ROADMAP item 4 gives it a caller",
    "derive_spaceform_target": "called by tests only until ROADMAP item 4 gives it a caller",
    "expected_values": "the closed-form oracle that perfbench/workloads.py and the"
                       " tests read; stays",
}


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _references(node) -> list[str]:
    """Names that ``node`` reads: loaded names, loaded attributes, imports."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.append(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.extend(alias.name for alias in sub.names)
    return names


def _is_command(node) -> bool:
    """A function decorated as a click command or group."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _definitions(trees: dict) -> list[tuple[str, str, ast.AST]]:
    """(module, name, node) of every top-level definition and every method of
    MetricCalculus, less dunder names and click commands."""
    defs = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not _is_command(node):
                    defs.append((module, node.name, node))
                if isinstance(node, ast.ClassDef) and node.name == "MetricCalculus":
                    defs.extend((module, f"MetricCalculus.{m.name}", m) for m in node.body
                                if isinstance(m, ast.FunctionDef))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.extend((module, t.id, node) for t in targets
                            if isinstance(t, ast.Name) and not t.id.startswith("__"))
    return defs


def dead_definitions(trees: dict) -> list[str]:
    """``module: name`` of every definition in ``trees`` that nothing else
    references and that is not exempt."""
    everywhere = {}
    for tree in trees.values():
        for name in _references(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    dead = []
    for module, qualname, node in _definitions(trees):
        name = qualname.rpartition(".")[2]
        if name in biconsurf.__all__ or name in ALLOWED:
            continue
        if everywhere.get(name, 0) - _references(node).count(name) == 0:
            dead.append(f"{module}: {qualname}")
    return dead


def test_no_dead_definitions():
    assert dead_definitions(_trees()) == []


def test_allow_list_is_still_needed():
    # an allowed name that gained a caller, or was removed, leaves the list
    trees = _trees()
    defined = {qualname for _, qualname, _ in _definitions(trees)}
    referenced = [name for tree in trees.values() for name in _references(tree)]
    assert sorted(name for name in ALLOWED if name not in defined) == []
    assert sorted(name for name in ALLOWED if name in referenced) == []


def test_guard_sees_dead_definitions():
    # the guard itself: an uncalled MetricCalculus method and an uncalled
    # module function are flagged, and a call from the package clears them
    trees = _trees()
    calculus = next(node for node in trees["tensors.py"].body
                    if isinstance(node, ast.ClassDef) and node.name == "MetricCalculus")
    calculus.body.append(ast.parse("def unused_operator(self):\n    return self.g").body[0])
    recursive = "def unused_helper():\n    return unused_helper()"
    trees["grid.py"].body.append(ast.parse(recursive).body[0])
    assert dead_definitions(trees) == ["grid.py: unused_helper",
                                       "tensors.py: MetricCalculus.unused_operator"]
    trees["cli.py"].body.append(ast.parse("x.unused_operator(unused_helper)").body[0])
    assert dead_definitions(trees) == []
