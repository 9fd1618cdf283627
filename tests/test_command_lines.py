"""argparse is the only command-line parser, and :func:`cli.main` keeps its
parses per process (``cli._parsed``).

Each distinct line reaches ``ArgumentParser.parse_args`` once per process,
and each call of ``main`` gets a fresh namespace of that line's fields. A
line argparse rejects, ``--help`` and ``--version`` exit through argparse on
every call, with argparse's text.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistage import cli
from multistage.bundle import ProblemBundle
from multistage.cli import build_parser, main
from multistage.generate import rng_from_seed
from multistage.policy import policy_to_json
from instances import (
    bundle_to_json,
    constant_cost_mdp,
    document,
    mdp_to_json,
    random_sddp,
    recourse_fixture,
)


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def fields(namespace) -> dict:
    """The namespace's fields with their values' reprs (``nan`` equals ``nan``)."""
    return {k: repr(v) for k, v in vars(namespace).items()}


def exits(call) -> tuple:
    """``("parsed", fields)`` of what ``call()`` returns, or ``("exit", code,
    stdout, stderr)`` where it raises ``SystemExit``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return ("parsed", fields(call()))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())


def reference(argv) -> tuple:
    """What a fresh argparse parser makes of ``argv``, as :func:`exits`."""
    return exits(lambda: build_parser().parse_args(list(argv)))


@contextlib.contextmanager
def spied():
    """Every namespace ``main`` hands a handler, in order; the handlers only
    record it, and the flag checks are off, so every parsed line is
    dispatched."""
    seen: list = []

    def spy(args):
        seen.append(args)
        return 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "HANDLERS", dict.fromkeys(cli.HANDLERS, spy))
        patch.setattr(cli, "_check_flags", lambda args: None)
        yield seen


@pytest.fixture
def dispatched():
    with spied() as seen:
        yield seen


@pytest.fixture
def parse_calls(monkeypatch):
    """The argv of every ``ArgumentParser.parse_args`` call, starting from an
    empty cache of parsed lines."""
    calls: list = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, args=None, namespace=None):
        calls.append(args)
        return parse_args(self, args, namespace)

    cli._parsed.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    yield calls
    cli._parsed.cache_clear()


def run_main(argv, dispatched) -> tuple:
    """``main(argv)`` as :func:`exits`, reading the namespace it dispatched."""
    return exits(lambda: main(list(argv)) == 0 and dispatched[-1])


PARSER = build_parser()
#: valid values of a flag by its ``type``; a flag with ``choices`` takes those
GOOD = {int: ["0", "3", "17"], float: ["0", "1e-6", "2.5", "inf", "nan"],
        None: ["a.json", "x y", "", "3"]}
#: each subcommand's flags, read from argparse, with the values each takes
#: (None for a flag that takes no value)
FLAGS = {
    name: {flag: None if action.nargs == 0 else list(action.choices or GOOD[action.type])
           for action in sub._actions if not isinstance(action, argparse._HelpAction)
           for flag in action.option_strings}
    for name, sub in subcommands(PARSER).items()
}
REQUIRED = {flag for sub in subcommands(PARSER).values() for action in sub._actions
            if action.required for flag in action.option_strings}
#: values that start with ``-`` or fail a flag's type or choices
BAD = ["-1", "-1e-9", "--", "-h", "both", "Brute", " 2", "1_0", "2.5", "a.json", "0x10"]
#: tokens of other shapes: abbreviations, ``=``, help, version, unknown flags
#: and commands, and flags out of place
EDGES = ["--", "-h", "--help", "--version", "--inp", "--tol", "--j", "--no-such-flag",
         "--input=a.json", "--json=1", "--method=brute", "nope", "--cap", "--json", *BAD]


@st.composite
def command_lines(draw) -> list[str]:
    """A line of a subcommand's flags, each with a valid value, perhaps with
    tokens of other shapes inserted, its last token dropped, or its
    subcommand dropped."""
    command = draw(st.sampled_from([*FLAGS, *FLAGS, "nope", "-h", "--version"]))
    flags = FLAGS.get(command, FLAGS["validate"])
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        if draw(st.integers(0, 9)) < (9 if flag in REQUIRED else 5):
            argv.append(flag)
            if flags[flag] is not None:
                bad = draw(st.integers(0, 9)) == 0
                argv.append(draw(st.sampled_from(BAD if bad else flags[flag])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(EDGES)))
    if draw(st.integers(0, 9)) == 0:
        argv.pop()
    return draw(st.sampled_from([argv] * 8 + [argv[1:], []]))


@settings(max_examples=1500, deadline=None)
@given(command_lines())
def test_main_dispatches_what_argparse_parses_on_every_repetition(argv):
    expected = reference(argv)
    with spied() as dispatched:
        assert run_main(argv, dispatched) == expected
        assert run_main(argv, dispatched) == expected
    if expected[0] == "exit":
        assert expected[1] in (0, 3)
        assert expected[1] == 0 or "multistage" in expected[3]


def test_a_repeated_line_is_parsed_once_and_a_new_line_once_more(parse_calls, dispatched):
    line = ["demo-interchange", "--trials", "2", "--json"]
    for _ in range(3):
        assert main(list(line)) == 0
    assert parse_calls == [line]
    other = ["demo-interchange", "--seed", "4"]
    assert main(other) == main(tuple(line)) == main(other) == 0
    assert parse_calls == [line, other]
    assert [fields(args) for args in dispatched[3:]] == [
        fields(build_parser().parse_args(argv)) for argv in (other, line, other)]


@pytest.mark.parametrize("argv", [
    ["solve", "--input", "b.json", "--method", "both"],
    ["solve", "--no-such-flag"],
    ["mdp-solve", "--input", "m.json"],
    ["nope"],
    [],
    ["--help"],
    ["verify", "-h"],
    ["--version"],
])
def test_an_exit_prints_argparse_text_on_every_repetition(argv, parse_calls, dispatched):
    expected = reference(argv)
    assert expected[0] == "exit" and expected[1] in (0, 3) and expected[2] + expected[3]
    before = len(parse_calls)
    for _ in range(3):
        assert run_main(argv, dispatched) == expected
    assert len(parse_calls) == before + 3 and dispatched == []


def test_a_namespace_changed_by_one_call_does_not_reach_the_next(monkeypatch):
    seen = []

    def changing(args):
        seen.append(dict(vars(args)))
        args.trials, args.seed, args.extra = 99, 7, "left over"
        return 0

    monkeypatch.setattr(cli, "HANDLERS", {**cli.HANDLERS, "demo-interchange": changing})
    line = ["demo-interchange", "--trials", "2"]
    assert main(line) == main(line) == 0
    assert seen[0] == seen[1] == vars(build_parser().parse_args(line))


SCALARS = (str, int, float, bool, type(None))


def test_every_action_stores_an_immutable_scalar():
    top = {type(action) for action in PARSER._actions}
    assert top == {argparse._HelpAction, argparse._VersionAction, argparse._SubParsersAction}
    for name, sub in subcommands(PARSER).items():
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert type(action) in (argparse._StoreAction, argparse._StoreTrueAction), name
            assert action.nargs in (None, 0), (name, action.dest)
            assert action.type in (None, int, float), (name, action.dest)
            assert type(action.default) in SCALARS and type(action.const) in SCALARS
            assert all(type(choice) is str for choice in action.choices or ())


class TestBenchmarkLines:
    """The lines of the benchmark's shape are parsed once per distinct line,
    and print what they print when argparse parses every call."""

    @pytest.fixture
    def lines(self, tmp_path):
        fx = recourse_fixture()
        files = {
            "bundle": bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"],
                                                   cls=fx["cls"])),
            "policy": policy_to_json(fx["perturbed_policy"]),
            "mdp": mdp_to_json(constant_cost_mdp(gamma=0.5)),
            "sddp": document(random_sddp(rng_from_seed(8), horizon=2)),
        }
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(data))
        bundle, policy, mdp, sddp = (str(tmp_path / f"{name}.json") for name in files)
        lines = [
            ["validate", "--input", bundle],
            ["solve", "--input", bundle],
            ["solve", "--input", bundle, "--method", "backward"],
            ["solve", "--input", bundle, "--method", "brute"],
            ["verify", "--input", bundle, "--policy", policy],
            ["dynamic-check", "--input", bundle, "--policy", policy],
            ["demo-interchange", "--trials", "3", "--seed", "2"],
            ["mdp-solve", "--input", mdp, "--horizon", "3"],
            ["value-iterate", "--input", mdp, "--tolerance", repr(1e-6)],
            ["sddp-solve", "--input", sddp],
        ]
        return lines + [line + ["--json"] for line in lines]

    @staticmethod
    def outcomes(lines, capsys):
        out = []
        for argv in lines:
            code = main(list(argv))
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_each_line_is_parsed_once_per_process(self, lines, capsys, parse_calls):
        first = self.outcomes(lines, capsys)
        assert self.outcomes(lines, capsys) == first
        assert parse_calls == lines
        assert {line[0] for line in lines} == set(FLAGS)

    def test_a_fresh_parse_per_call_prints_the_same(self, lines, capsys, monkeypatch):
        kept = self.outcomes(lines, capsys)
        monkeypatch.setattr(cli, "_parsed",
                            lambda argv: vars(build_parser().parse_args(list(argv))))
        assert self.outcomes(lines, capsys) == kept
        assert {code for code, _, _ in kept} == {0, 1}


def test_the_entry_point_reads_sys_argv(tmp_path, capsys):
    fx = recourse_fixture()
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(bundle_to_json(
        ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))))
    assert main(["solve", "--input", str(bundle), "--json"]) == 0
    expected = capsys.readouterr()
    for flags in (["--input", str(bundle)], ["--inp", str(bundle)], [f"--input={bundle}"]):
        result = subprocess.run([sys.executable, "-m", "multistage", "solve", *flags, "--json"],
                                capture_output=True, text=True, check=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, expected.out, "")
