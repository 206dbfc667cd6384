"""The help, usage and error text of the command line, byte for byte with
the exit code, pinned in tests/usage_golden.json.

argparse prints all of that text (cli._build_parser).  Each pinned case
runs `python3 -m coxring.cli ARGV` in a fresh process from the fixture
directory, so file names in messages are relative, with COLUMNS and LINES
fixed so help text wraps the same on every terminal.  After a deliberate
change to that text, regenerate the file with

    PYTHONPATH=src python3 tests/test_usage_golden.py

and record the change in CHANGES.md.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from coxring import cli

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
USAGE_GOLDEN = HERE / "usage_golden.json"

# help, usage errors, bad values, and the forms argparse accepts that are
# not the plain `MODE [--opt value]... FILE`: `--`, `-` as the file, and an
# abbreviated option
PINNED = [
    [],
    ["--help"],
    ["curve", "--help"],
    ["curve"],
    ["curve", "plain_line.json", "doubled_line.json"],
    ["curve", "plain_line.json", "--box", "-1"],
    ["curve", "plain_line.json", "--box", "x"],
    ["curve", "plain_line.json", "--box="],
    ["curve", "plain_line.json", "--lambda", "nope"],
    ["curve", "plain_line.json", "--format", "xml"],
    ["curve", "plain_line.json", "--stats"],
    ["toric", "--box", "1", "--", "plane_fan.json"],
    ["curve", "-"],
    ["toric", "plane_fan.json", "--box", "1", "--pow", "3"],
]


def run_argv(argv):
    """(exit code, stdout, stderr) of the CLI on argv, in a fresh process."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="80", LINES="24")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.run([sys.executable, "-m", "coxring.cli", *argv],
                           cwd=FIXTURES, env=env, capture_output=True,
                           text=True, timeout=60)
    return {"argv": argv, "code": child.returncode, "stdout": child.stdout,
            "stderr": child.stderr}


def _golden():
    return json.loads(USAGE_GOLDEN.read_text(encoding="utf-8"))


def test_golden_pins_every_case():
    assert [case["argv"] for case in _golden()] == PINNED


@pytest.mark.parametrize("index", range(len(PINNED)),
                         ids=[" ".join(a) or "(none)" for a in PINNED])
def test_argv_matches_golden(index):
    assert run_argv(PINNED[index]) == _golden()[index]


if __name__ == "__main__":
    USAGE_GOLDEN.write_text(
        json.dumps([run_argv(argv) for argv in PINNED], indent=1) + "\n",
        encoding="utf-8")
