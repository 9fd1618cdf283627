"""``tools/code_lines.py`` counts the lines that hold code: docstrings,
comments and blank lines do not count, every line of any other string does."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_of_modules_classes_and_functions_do_not_count():
    source = '''"""Module
docstring."""


class A:
    """Class docstring."""

    def f(self):
        """Method
        docstring."""
        return 1


def g():
    """Function docstring."""
    return 2


async def h():
    """Coroutine docstring."""
'''
    # class A:, def f, return 1, def g, return 2, async def h
    assert code_lines.code_lines(source) == 6


def test_comments_and_blank_lines_do_not_count():
    source = "# a comment\n\nx = 1  # trailing comment\n\n    \n# another\ny = 2\n"
    assert code_lines.code_lines(source) == 2


def test_a_multi_line_string_that_is_not_a_docstring_counts_every_line():
    source = 'x = 1\ntext = """one\ntwo\n\nfour"""\nprint(\n    """a\n    b"""\n)\n'
    # x = 1, the four lines of text, then print( , two string lines and )
    assert code_lines.code_lines(source) == 9


def test_a_string_statement_after_the_first_is_code():
    source = 'def f():\n    x = 1\n    """not a docstring"""\n'
    assert code_lines.code_lines(source) == 3


def test_a_directory_counts_recursively(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "pkg" / "sub" / "c.py").write_text('"""Doc."""\nc = 3\n')
    (tmp_path / "pkg" / "sub" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"     2  {tmp_path / 'pkg' / 'a.py'}",
        f"     1  {tmp_path / 'pkg' / 'sub' / 'c.py'}",
        "     3  total",
    ]


def test_without_an_argument_it_prints_the_usage_and_exits_two():
    run = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "usage: python tools/code_lines.py PATH [PATH ...]\n"
