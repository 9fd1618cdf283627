"""Which lines of the package the command line reaches.

Imports ``multistage.cli`` and runs ``multistage.cli.main`` in process,
under ``sys.settrace``, over every operation of the ``perfbench`` workload
plans at seed 1 and every golden report, MDP and ``demo-interchange``
case of ``tests/test_golden_reports.py``, with their inputs written to a
temporary directory. Run

    python tools/cli_lines.py

from any directory. It prints, per module of ``src/multistage``,
how many of its function-body lines ran and the functions never entered,
then, as its last line, the reached share of all function-body lines.

A function-body line is a line that holds bytecode of a function (a
``def`` or ``lambda`` body, comprehensions included), not counting its
docstring and its ``def`` line; module and class bodies, which run on
import, do not count.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import types
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _code_objects(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def _body_lines(tree: ast.Module) -> set[int]:
    """Lines inside function bodies, docstrings and ``def`` lines left out."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            for stmt in body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
        elif isinstance(node, ast.Lambda):
            lines.update(range(node.body.lineno, node.body.end_lineno + 1))
    return lines


@dataclass
class Module:
    """One source file: its function-body lines and its named functions, each
    as (qualified name, first line)."""

    lines: set[int]
    functions: set[tuple[str, int]]
    reached: set[int] = field(default_factory=set)
    entered: set[tuple[str, int]] = field(default_factory=set)


def package_modules(package: Path) -> dict[str, Module]:
    """File name -> :class:`Module` for every ``.py`` file of the package."""
    out = {}
    for file in sorted(package.glob("*.py")):
        source = file.read_text()
        code = compile(source, str(file), "exec")
        body = _body_lines(ast.parse(source))
        module = out[str(file)] = Module(set(), set())
        for c in _code_objects(code):
            if c.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                module.lines.update(line for _, _, line in c.co_lines() if line in body)
                if not c.co_name.startswith("<"):
                    module.functions.add((c.co_qualname, c.co_firstlineno))
    return out


def trace_calls(modules: dict[str, Module], calls) -> None:
    """Run every ``calls()`` item (a zero-argument callable) under ``sys.settrace``,
    recording the lines and functions of ``modules`` that ran."""

    def local(frame, event, arg):
        if event == "line":
            modules[frame.f_code.co_filename].reached.add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        module = modules.get(frame.f_code.co_filename)
        if module is None:
            return None
        code = frame.f_code
        module.entered.add((code.co_qualname, code.co_firstlineno))
        return local

    previous = sys.gettrace()
    sys.settrace(global_)
    try:
        for call in calls:
            call()
    finally:
        sys.settrace(previous)


def _quiet_main(argv: list[str]) -> None:
    from multistage import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))


def perfbench_lines(directory: str) -> list[list[str]]:
    """The command lines of every ``perfbench`` workload at seed 1, their
    inputs written under ``directory``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS, Workload
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    lines = []
    for name, build in sorted(WORKLOADS.items()):
        workdir = os.path.join(directory, name)
        os.makedirs(workdir)
        workload = Workload(workdir)
        build(workload, 1)
        lines += [op.argv for op in workload.ops]
    return lines


def golden_lines(directory: str) -> list[list[str]]:
    """The command lines of the golden report, MDP and ``demo-interchange``
    cases, inputs written under ``directory``."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import test_golden_reports as golden
    finally:
        sys.path.remove(str(ROOT / "tests"))
    lines = []
    for name, data in golden.inputs().items():
        path = os.path.join(directory, f"golden-{name}.json")
        Path(path).write_text(json.dumps(data))
        lines += [[*command, "--input", path, "--json"] for command in golden.commands(name)]
    for name, data in golden.mdp_inputs().items():
        path = os.path.join(directory, f"golden-{name}.json")
        Path(path).write_text(json.dumps(data))
        for command in golden.MDP_COMMANDS[name]:
            lines += [[*command.split(), "--input", path, *flag]
                      for flag in ([], ["--json"])]
    return lines + [command.split() for command in golden.demo_ids()]


def _import_cli() -> None:
    """Import ``multistage.cli`` from the checkout's ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import multistage.cli  # noqa: F401
    finally:
        sys.path.remove(str(ROOT / "src"))


def _package_names() -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == "multistage"]


def _fresh_import() -> None:
    """Import ``multistage.cli`` anew, so that what runs at import runs again,
    and the parser and the memo, built once per process, start afresh."""
    for name in _package_names():
        del sys.modules[name]
    _import_cli()


def reach() -> dict[str, Module]:
    """Trace a fresh import of ``multistage.cli`` (:func:`_fresh_import`) and
    then ``cli.main`` over the command lines, and return the modules of the
    checkout's ``src/multistage``. The package modules imported before are
    put back afterwards."""
    _import_cli()  # the plans and golden inputs are written with the package
    imported = {name: sys.modules[name] for name in _package_names()}
    modules = package_modules(ROOT / "src" / "multistage")
    try:
        with tempfile.TemporaryDirectory() as directory:
            lines = perfbench_lines(directory) + golden_lines(directory)
            trace_calls(modules, [_fresh_import]
                        + [lambda argv=argv: _quiet_main(argv) for argv in lines])
    finally:
        for name in _package_names():
            del sys.modules[name]
        sys.modules.update(imported)
    return modules


def report(modules: dict[str, Module]) -> list[str]:
    """Per module its reached lines and unentered functions, then the share."""
    out = []
    for path, m in modules.items():
        out.append(f"{Path(path).name}: {len(m.lines & m.reached)} of {len(m.lines)} "
                   "function-body lines reached")
        for qualname, first in sorted(m.functions - m.entered, key=lambda f: f[1]):
            out.append(f"  never entered: {qualname} (line {first})")
    reached = sum(len(m.lines & m.reached) for m in modules.values())
    total = sum(len(m.lines) for m in modules.values())
    out.append(f"reached: {reached} of {total} function-body lines, share {reached / total:.4f}")
    return out


def main(argv: list[str]) -> int:
    if argv:
        sys.stderr.write("usage: python tools/cli_lines.py\n")
        return 2
    print("\n".join(report(reach())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
