"""The direct reader of the command line against argparse.

cli._read_argv reads well-formed command lines without argparse: whatever
it accepts, argparse (cli._build_parser) must accept with equal values,
and it must accept every well-formed argv.  Everything else goes to
argparse, the help and error cases pinned in test_usage_golden among it.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from coxring import cli
from test_usage_golden import PINNED


FLAGS = list(cli.OPTIONS)
PREFIXES = ["--b", "--bo", "--p", "--pow", "--power", "--power-", "--l",
            "--lam", "--f", "--form", "-", "--", "-h", "--h", "--help"]
VALUES = [" 3", "+3", "\u0663", "3_0", "-1", "", "0", "7", "-0", "x",
          "canonical", "full", "json", "text", "nope"]
NAMES = ["plain_line.json", "a b.json", "curve"]  # files the reader takes
FILES = NAMES + ["-", "--", "-x"]
TOKENS = (list(cli.MODES) + FLAGS + PREFIXES + VALUES + FILES
          + [flag + "=" + value for flag in FLAGS + PREFIXES[:10]
             for value in VALUES])

PARSER = cli._build_parser()


def argparse_values(argv):
    """vars() of argparse's namespace for argv, or None when it exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(PARSER.parse_args(argv))
    except SystemExit:
        return None


COUNTS = [" 3", "+3", "\u0663", "3_0", "0"]  # int() reads all of them


def _option_tokens(draw, flag, near):
    """flag and a good value, as one token or two; when near, the flag may
    be abbreviated and the value any of VALUES."""
    _, _, choices = cli.OPTIONS[flag]
    values = (st.sampled_from(choices) if choices
              else st.sampled_from(COUNTS) | st.integers(0, 10 ** 30).map(str))
    if near:
        flag = draw(st.just(flag) | st.sampled_from(
            [p for p in PREFIXES if flag.startswith(p)]))
        values = values | st.sampled_from(VALUES)
    value = draw(values)
    return [flag + "=" + value] if draw(st.booleans()) else [flag, value]


@st.composite
def well_formed(draw, near=False):
    """MODE, then options with good values and one FILE in any order."""
    units = [_option_tokens(draw, flag, near)
             for flag in draw(st.lists(st.sampled_from(FLAGS), max_size=5))]
    units.insert(draw(st.integers(0, len(units))),
                 [draw(st.sampled_from(NAMES))])
    return [draw(st.sampled_from(cli.MODES))] + sum(units, [])


@st.composite
def near_misses(draw):
    """A well-formed argv with options abbreviated, values from VALUES,
    and up to two tokens replaced, inserted or deleted."""
    argv = draw(well_formed(near=True))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        token = draw(st.sampled_from(TOKENS))
        if edit == "insert":
            argv.insert(at, token)
        else:
            argv[at:at + 1] = [token] if edit == "replace" else []
    return argv


@settings(max_examples=1500, deadline=None)
@given(near_misses() | st.lists(st.sampled_from(TOKENS), max_size=6))
def test_reader_declines_or_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert read == argparse_values(argv)
        # only exact option strings: abbreviations are argparse's to read
        assert all(token.partition("=")[0] in cli.OPTIONS
                   for token in argv[1:] if token.startswith("-"))


@settings(max_examples=300, deadline=None)
@given(well_formed())
def test_reader_reads_every_well_formed_argv(argv):
    read = cli._read_argv(argv)
    assert read is not None
    assert read == argparse_values(argv)


@pytest.mark.parametrize("argv", PINNED)
def test_pinned_argv_go_to_argparse(argv):
    # help, errors and the forms outside the plain grammar: abbreviations,
    # `--` and `-` as the file
    assert cli._read_argv(argv) is None


def test_last_repeated_option_wins():
    argv = ["verify", "--box", "3", "f.json", "--box=1", "--format", "text",
            "--lambda=full", "--format=json", "--power-bound", "+8"]
    assert cli._read_argv(argv) == argparse_values(argv) == {
        "mode": "verify", "file": "f.json", "box": 1, "power_bound": 8,
        "lambda_mode": "full", "format": "json"}
