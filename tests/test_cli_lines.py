"""``tools/cli_lines.py`` finds the package lines that ``cli.main`` runs."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_lines.py"
_spec = importlib.util.spec_from_file_location("cli_lines", TOOL)
cli_lines = sys.modules["cli_lines"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_lines)

#: the reached share of function-body lines when the tool was added; it may only rise
COMMITTED_SHARE = 0.7082

SOURCE = '''def f(x):
    """Docstring."""
    if x:
        return 1
    return 2


def g():
    return [i for i in range(3)]


class C:
    y = 1

    def h(self):
        return self.y
'''


def test_only_function_bodies_count(tmp_path):
    file = tmp_path / "m.py"
    file.write_text(SOURCE)
    modules = cli_lines.package_modules(tmp_path)
    module = modules[str(file)]
    assert module.lines == {3, 4, 5, 9, 16}
    assert module.functions == {("f", 1), ("g", 8), ("C.h", 15)}
    spec = importlib.util.spec_from_file_location("m", file)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    cli_lines.trace_calls(modules, [lambda: m.f(1)])
    assert module.lines & module.reached == {3, 4}
    assert cli_lines.report(modules) == [
        "m.py: 2 of 5 function-body lines reached",
        "  never entered: g (line 8)",
        "  never entered: C.h (line 15)",
        "reached: 2 of 5 function-body lines, share 0.4000",
    ]


def test_the_command_line_reaches_the_committed_share():
    last = cli_lines.report(cli_lines.reach())[-1]
    assert float(last.rsplit(" ", 1)[1]) >= COMMITTED_SHARE
