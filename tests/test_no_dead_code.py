"""Every function, class, method and property in ``src/repro`` has a caller.

An AST walk over ``src/repro/**/*.py`` collects each top-level function
and class, and each method or property of a top-level class.  Dunder
names (``__init__``, a module ``__getattr__``) are left out: Python
itself calls them.
Each name must appear as a whole word somewhere in ``src/``, ``tests/``,
``benchmarks/`` or ``examples/`` beyond its own ``def``/``class`` line.
A package ``__init__.py``'s import statements and ``__all__`` list do
not count: re-exporting a name is not calling it.

A name the standard library calls by convention (a handler hook, say)
would go in ``ALLOWLIST`` with a comment saying who calls it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")
WORD = re.compile(r"\w+")

#: ``module path relative to src/repro :: qualified name`` → why it may
#: have no caller in this repo.
ALLOWLIST: dict[str, str] = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """Yield ``(qualified name, bare name, def line)`` for each definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or _is_dunder(node.name):
            continue
        yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not _is_dunder(member.name):
                    yield (
                        f"{node.name}.{member.name}",
                        member.name,
                        member.lineno,
                    )


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Line numbers of a package's imports and its ``__all__`` list."""
    lines: set[int] = set()
    for node in tree.body:
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        )
        if is_all or isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def test_every_definition_has_a_reference():
    words: Counter = Counter()
    definitions = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            lines = text.splitlines()
            skip: set[int] = set()
            if path.name == "__init__.py":
                skip = _reexport_lines(ast.parse(text))
            for number, line in enumerate(lines, start=1):
                if number not in skip:
                    words.update(WORD.findall(line))
            if top == "src" and "repro" in path.parts:
                module = path.relative_to(ROOT / "src" / "repro").as_posix()
                for qualname, name, lineno in _definitions(ast.parse(text)):
                    own = WORD.findall(lines[lineno - 1]).count(name)
                    definitions.append((f"{module}::{qualname}", name, own))
    assert definitions, "no definitions found under src/repro"
    unreferenced = sorted(
        key
        for key, name, own in definitions
        if words[name] - own <= 0 and key not in ALLOWLIST
    )
    assert unreferenced == [], (
        "definitions with no reference in src/, tests/, benchmarks/ or "
        f"examples/: {unreferenced}"
    )
