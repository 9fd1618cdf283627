"""Command lines read from the flag table (``cli._parse_canonical``) mean what
they mean to argparse, the reference.

The table is built from the argparse parser's own actions. A canonical line
(a subcommand, then distinct flags spelled out in full, each with one value
that does not start with ``-``) is read from it; the table returns None for
every other line, and argparse parses that line and writes every help and
usage text.
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
from multistage.generate import recourse_fixture, rng_from_seed
from multistage.policy import policy_to_json
from instances import bundle_to_json, constant_cost_mdp, mdp_to_json, random_sddp


def subcommands(parser: argparse.ArgumentParser) -> dict:
    """Subcommand name -> its parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def fields(namespace):
    """The namespace's fields with their values' reprs (``nan`` equals ``nan``), or None."""
    return None if namespace is None else {k: repr(v) for k, v in vars(namespace).items()}


def argparse_outcome(argv):
    """What a fresh argparse parser makes of ``argv``, as :func:`fields`; None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return fields(build_parser().parse_args(argv))
        except SystemExit:
            return None


PARSER = build_parser()
#: valid values of a flag by its ``type``; a flag with ``choices`` takes those
GOOD = {int: ["0", "3", "17"], float: ["0", "1e-6", "2.5", "inf", "nan"],
        None: ["a.json", "x y", "", "3"]}
#: each subcommand's flags, read from argparse, not from the table, with the
#: values each takes (None for a flag that takes no value)
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
def test_the_table_reads_a_line_as_argparse_does_or_not_at_all(argv):
    table = fields(cli._parse_canonical(argv))
    reference = argparse_outcome(argv)
    assert table is None or table == reference
    if reference is None:
        assert table is None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_canonical_line_is_read_from_the_table(data):
    name = data.draw(st.sampled_from(sorted(FLAGS)))
    sub = subcommands(PARSER)[name]
    argv = [name]
    for action in data.draw(st.permutations(
            [a for a in sub._actions if not isinstance(a, argparse._HelpAction)])):
        if action.required or data.draw(st.booleans()):
            flag = action.option_strings[0]
            argv.append(flag)
            if FLAGS[name][flag] is not None:
                argv.append(data.draw(st.sampled_from(FLAGS[name][flag])))
    assert fields(cli._parse_canonical(argv)) == argparse_outcome(argv) is not None


def test_every_action_of_the_parser_is_in_the_table():
    table = cli._table_of(PARSER)
    assert set(table) == set(FLAGS)
    for name, flags in FLAGS.items():
        assert set(table[name][0]) == set(flags)


def test_an_action_the_table_does_not_model_sends_its_subcommand_to_argparse():
    class Echo(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            setattr(namespace, self.dest, values)

    parser = build_parser()
    sub = subcommands(parser)
    sub["solve"].add_argument("--tag", action="append")
    sub["verify"].add_argument("--loud", action="count")
    sub["dynamic-check"].add_argument("--pair", nargs=2)
    sub["mdp-solve"].add_argument("--echo", action=Echo)
    sub["value-iterate"].add_argument("name")
    sub["sddp-solve"].add_argument("-q", action="store_true")
    sub["validate"].add_argument("--vers", action="store_true")  # abbreviates --version
    assert set(cli._table_of(parser)) == {"demo-interchange"}
    parser.add_argument("--top", action="store_true")
    assert cli._table_of(parser) == {}


class TestCanonicalTraffic:
    """The lines perfbench runs never reach argparse, and mean what they meant."""

    @pytest.fixture
    def lines(self, tmp_path):
        fx = recourse_fixture()
        files = {
            "bundle": bundle_to_json(ProblemBundle(tree=fx["tree"], cost=fx["cost"],
                                                   cls=fx["cls"])),
            "policy": policy_to_json(fx["perturbed_policy"]),
            "mdp": mdp_to_json(constant_cost_mdp(gamma=0.5)),
            "sddp": random_sddp(rng_from_seed(8), horizon=2).payload,
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

    def test_argparse_is_never_called(self, lines, capsys, monkeypatch):
        calls = []
        parse_args = argparse.ArgumentParser.parse_args
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda self, *a, **kw: calls.append(a) or parse_args(self, *a, **kw))
        self.outcomes(lines, capsys)
        assert calls == []
        assert {line[0] for line in lines} == set(FLAGS)

    def test_argparse_prints_the_same(self, lines, capsys, monkeypatch):
        table = self.outcomes(lines, capsys)
        monkeypatch.setattr(cli, "_parse_canonical", lambda argv: None)
        assert self.outcomes(lines, capsys) == table
        assert {code for code, _, _ in table} == {0, 1}


def test_the_entry_point_reads_sys_argv_either_way(tmp_path, monkeypatch, capsys):
    fx = recourse_fixture()
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(bundle_to_json(
        ProblemBundle(tree=fx["tree"], cost=fx["cost"], cls=fx["cls"]))))
    monkeypatch.setattr(cli, "_parse_canonical", lambda argv: None)
    assert main(["solve", "--input", str(bundle), "--json"]) == 0
    expected = capsys.readouterr()
    for flags in (["--input", str(bundle)], ["--inp", str(bundle)], [f"--input={bundle}"]):
        result = subprocess.run([sys.executable, "-m", "multistage", "solve", *flags, "--json"],
                                capture_output=True, text=True, check=False)
        assert (result.returncode, result.stdout, result.stderr) == (0, expected.out, "")
