"""Every definition in ``src/spinelab`` is reached from a CLI command.

The walk starts at the click commands and groups of ``cli.py``, at the
module-level statements of every module, leaving out imports and
``__all__``, and at the allowlist below.  Each name a reached piece of
code mentions (``Name``, ``Attribute`` or an imported ``alias``, through
its ``as`` name) reaches every top-level function or class and every
method of that name, in any module.  A reached class reaches its
decorators, bases and class-level statements, and the methods that run
without being named: dunders, and overrides of a method of a base from
outside the package, which that base calls.  Matching by name alone can
only over-approximate what a command runs, so a definition it misses is
one that no command can call.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import spinelab

PACKAGE = Path(spinelab.__file__).parent

# definitions kept although no command reaches them, each with its reason
ALLOWED = {
    "algebra.AlgebraMorphism.matrix_in_degree": (
        "perfbench/tracer.py wraps it (TRACED_METHODS) and perfbench/tests/test_tracer.py checks the wrapper"
    ),
    "algebra.ProductMorphism.matrix_in_degree": (
        "perfbench/tracer.py wraps it (TRACED_METHODS) and perfbench/tests/test_tracer.py checks the wrapper"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_command(node) -> bool:
    """A function decorated with ``<group>.command(...)`` or ``<group>.group(...)``."""
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def _is_all(stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _modules(package: Path) -> dict:
    """Each module's dotted name under the package, with its parsed tree."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts) or "__init__"] = ast.parse(path.read_text(), str(path))
    return out


def _parts(node) -> list:
    """The subtrees that run when a definition is reached: a function
    whole, a class without its methods (methods are definitions of their
    own)."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [s for s in node.body if not isinstance(s, DEFINITIONS)]
    return [*node.decorator_list, *node.bases, *node.keywords, *body]


def _runs_unnamed(module: str, cls: str, method: str) -> bool:
    """A dunder, or an override of a method that a base from outside the
    package defines (and calls)."""
    if _is_dunder(method):
        return True
    owner = getattr(importlib.import_module("spinelab" if module == "__init__" else f"spinelab.{module}"), cls)
    return any(
        method in vars(base) for base in owner.__mro__[1:] if not base.__module__.startswith("spinelab")
    )


def unreached(package: Path = PACKAGE, allowed=ALLOWED) -> list:
    """The qualified names of the non-dunder definitions that neither a
    command, a module-level statement nor an ``allowed`` entry reaches."""
    defs: dict = {}  # qualified name -> node
    by_name: dict = {}  # name -> [qualified name]
    aliases: dict = {}  # "as" name -> imported name
    unnamed: dict = {}  # qualified class name -> methods that run unnamed
    roots = list(allowed)
    stack = []
    for module, tree in _modules(package).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                aliases[node.asname] = node.name.rpartition(".")[2]
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or _is_all(stmt):
                continue
            if not isinstance(stmt, DEFINITIONS):
                stack.append(stmt)
                continue
            qualified = f"{module}.{stmt.name}"
            defs[qualified] = stmt
            by_name.setdefault(stmt.name, []).append(qualified)
            if module == "cli" and _is_command(stmt):
                roots.append(qualified)
            if isinstance(stmt, ast.ClassDef):
                unnamed[qualified] = []
                for method in stmt.body:
                    if isinstance(method, DEFINITIONS):
                        defs[f"{qualified}.{method.name}"] = method
                        by_name.setdefault(method.name, []).append(f"{qualified}.{method.name}")
                        if _runs_unnamed(module, stmt.name, method.name):
                            unnamed[qualified].append(f"{qualified}.{method.name}")
    reached: set = set()

    def reach(qualified):
        if qualified not in reached:
            reached.add(qualified)
            stack.extend(_parts(defs[qualified]))
            for method in unnamed.get(qualified, ()):
                reach(method)

    for qualified in roots:
        reach(qualified)
    while stack:
        for node in ast.walk(stack.pop()):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            for key in {name, aliases.get(name, name)}:
                for qualified in by_name.get(key, ()):
                    reach(qualified)
    return sorted(q for q in defs if q not in reached and not _is_dunder(q.rpartition(".")[2]))


def test_every_definition_is_reached_from_a_command():
    assert unreached() == []


def test_each_allowlist_entry_is_needed():
    # reached only through the allowlist: no command calls it
    assert set(ALLOWED) <= set(unreached(allowed=()))


def test_the_walk_sees_an_unreferenced_definition(tmp_path):
    package = tmp_path / "spinelab"
    for path in PACKAGE.rglob("*.py"):
        target = package / path.relative_to(PACKAGE)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(path.read_text())
    with open(package / "linalg.py", "a") as fh:
        fh.write("\n\ndef _unused():\n    pass\n")
    assert unreached(package) == ["linalg._unused"]
