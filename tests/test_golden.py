"""Byte-for-byte comparison of CLI reports with the committed golden files.

Every fixture is reported at box radius 1 in both formats: curves with
`coxring curve`, fans with `coxring toric`; every fixture also with
`coxring verify`, and the curves with `coxring crosscheck`.  After a
deliberate change to the reports, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib

import pytest

from coxring import cli

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
FORMATS = {"json": "json", "text": "txt"}


def _cases():
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        curve = "special" in data
        runs = [("curve" if curve else "toric", ""), ("verify", "verify.")]
        if curve:
            runs.append(("crosscheck", "crosscheck."))
        for mode, tag in runs:
            for fmt, ext in FORMATS.items():
                name = "%s.%sbox1.%s" % (path.stem, tag, ext)
                yield path, mode, fmt, GOLDEN / name


CASES = list(_cases())


def _report(path, mode, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([mode, str(path), "--box", "1", "--format", fmt])
    assert code == 0
    return out.getvalue()


@pytest.mark.parametrize("path, mode, fmt, golden", CASES,
                         ids=[c[3].name for c in CASES])
def test_report_matches_golden(path, mode, fmt, golden):
    assert _report(path, mode, fmt) == golden.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path, mode, fmt, golden in CASES:
        golden.write_text(_report(path, mode, fmt), encoding="utf-8")
