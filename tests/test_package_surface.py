"""The package holds what the system runs, and the README's quick start runs.

A top-level function, class or method of ``src/multistage`` must be
referenced from the package itself (outside its own body) or be named in
the README or in ``perfbench``; code that only the tests read belongs in
the tests (``tests/instances.py``). Being listed in ``__all__`` is not a
use. The check is by name: an attribute or variable of the same name
anywhere in the package counts as a reference. ``ALLOWED`` lists the
exceptions, each with its reason.

``multistage.__all__`` lists only classes of the package (its types and
exceptions) and names that the README or ``perfbench`` uses, and
``from multistage import *`` imports every one of them.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import multistage

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multistage"
README = ROOT / "README.md"

#: definition -> why it stays in the package although only the tests reference it
ALLOWED = {
    "holder_table_violation": "ROADMAP item 9 (certified values off the grid) builds on it",
}


def definitions() -> list[tuple[str, str, int, int]]:
    """(file, qualified name, first line, last line) of every top-level function
    and class of the package and of every method of a top-level class, dunder
    methods left out."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((path.name, node.name, node.lineno, node.end_lineno))
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    qualified = f"{node.name}.{member.name}"
                    out.append((path.name, qualified, member.lineno, member.end_lineno))
    return out


def package_references() -> list[tuple[str, str, int]]:
    """Every name and attribute the package reads, as (name, file, line)."""
    refs = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.append((node.id, path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, path.name, node.lineno))
    return refs


def api_names(tree: ast.AST) -> set[str]:
    """The names a piece of Python uses as library API: what it imports from
    ``multistage``, calls or reads as an attribute, and the whole of a piece
    that is one name or one dotted name. A variable or an argument is not
    API."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multistage"):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            out.add(node.func.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    body = tree.body if isinstance(tree, ast.Module) else []
    if len(body) == 1 and isinstance(body[0], ast.Expr):
        value = body[0].value
        while isinstance(value, ast.Attribute):
            value = value.value
        if isinstance(value, ast.Name):
            out.add(value.id)
    return out


def readme_api() -> set[str]:
    """The names that the README's Python blocks and code spans use as API."""
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    out = set()
    for piece in blocks + spans:
        try:
            out |= api_names(ast.parse(piece))
        except SyntaxError:  # a command line, a path or an error message
            continue
    return out


def perfbench_api() -> set[str]:
    """The names ``perfbench`` imports from the package, and the modules, functions,
    classes and methods its ``spans.LAYERS`` wraps."""
    out = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("multistage"):
                out.update(alias.name for alias in node.names)
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    layers = next(node.value for node in spans.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"])
    for pairs in ast.literal_eval(layers).values():
        for module, name in pairs:
            out.update([module, *name.split(".")])
    return out


def named_outside() -> set[str]:
    """The names that the README or ``perfbench`` uses as library API."""
    return readme_api() | perfbench_api()


def overrides(file: str, qualified: str) -> bool:
    """Whether ``qualified`` is a method that overrides one of a base class,
    through which the base class or its callers reach it."""
    if "." not in qualified:
        return False
    owner, method = qualified.split(".")
    module = importlib.import_module(f"multistage.{file.removesuffix('.py')}")
    return any(method in vars(base) for base in getattr(module, owner).__mro__[1:])


def unreferenced() -> list[str]:
    """Qualified names of the definitions that nothing but the tests may read."""
    refs, named = package_references(), named_outside()
    out = []
    for file, qualified, first, last in definitions():
        name = qualified.rsplit(".", 1)[-1]
        if name in named or overrides(file, qualified):
            continue
        if any(n == name and not (f == file and first <= line <= last) for n, f, line in refs):
            continue
        out.append(qualified)
    return out


def test_every_definition_is_used_by_the_system():
    stray = [name for name in unreferenced() if name not in ALLOWED]
    assert stray == [], f"referenced only from the tests, or from nowhere: {stray}"


def test_every_allowed_name_is_still_needed():
    assert sorted(set(ALLOWED) - set(unreferenced())) == []


def test_every_export_is_a_class_or_used_by_the_readme_or_perfbench():
    defined, named = {qualified for _, qualified, _, _ in definitions()}, named_outside()
    stray = sorted(
        name for name in multistage.__all__
        if name not in named
        and not (name in defined and isinstance(getattr(multistage, name), type))
    )
    assert stray == [], f"exported, neither a class nor used by the README or perfbench: {stray}"


def test_a_star_import_brings_every_export():
    scope: dict = {}
    exec("from multistage import *", scope)
    assert sorted(set(multistage.__all__) - set(scope)) == []
    assert len(set(multistage.__all__)) == len(multistage.__all__)


def quick_start() -> str:
    """The Python block of the README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "the quick start has no python block"
    return match.group(1)


def test_the_readme_quick_start_runs_and_prints_what_it_says():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), "README.md", "exec"), {})
    assert out.getvalue() == "0.6\nmartingale optimal\n"
