"""Byte-for-byte comparison of CLI reports with the committed golden files.

Every fixture is reported in both formats at box radii 1 and 2: curves
with `coxring curve`, fans with `coxring toric`. At box radius 1 every
fixture is also reported with `coxring verify`, and the curves with
`coxring crosscheck`, with `coxring verify --power-bound 8`, with
`coxring curve --lambda full` and with `coxring verify --lambda full`.
One more curve, {2,2,2,2}, is written inline and reported with
`coxring verify --power-bound 8` in JSON only.
After a deliberate change to the reports, regenerate the files with

    PYTHONPATH=src python3 tests/test_golden.py

and record the change in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from coxring import cli
from report_oracles import dict_report

HERE = pathlib.Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"
FORMATS = {"json": "json", "text": "txt"}


def _cases():
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        curve = "special" in data
        present = "curve" if curve else "toric"
        runs = [(present, "box1", ()), (present, "box2", ("--box", "2")),
                ("verify", "verify.box1", ())]
        if curve:
            runs.append(("crosscheck", "crosscheck.box1", ()))
            runs.append(("verify", "verify.box1.pb8", ("--power-bound", "8")))
            runs.append(("curve", "box1.full", ("--lambda", "full")))
            runs.append(("verify", "verify.box1.full", ("--lambda", "full")))
        for mode, tag, extra in runs:
            for fmt, ext in FORMATS.items():
                name = "%s.%s.%s" % (path.stem, tag, ext)
                yield path, [mode, *extra], fmt, GOLDEN / name


CASES = list(_cases())

# {2,2,2,2} at power bound 8, one report; the input is kept out of
# tests/fixtures, whose every curve is reported in seven runs above
QUADRUPLED_LINE = {"special": [{"point": p, "multiplicity": 2}
                               for p in ("0", "1", "-1", "inf")]}
QUADRUPLED_GOLDEN = GOLDEN / "quadrupled_line.verify.box1.pb8.json"


def _report(path, args, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([args[0], str(path), "--box", "1", "--format", fmt,
                         *args[1:]])
    assert code == 0
    return out.getvalue()


def _quadrupled_report(directory):
    path = pathlib.Path(directory) / "quadrupled_line.json"
    path.write_text(json.dumps(QUADRUPLED_LINE), encoding="utf-8")
    return _report(path, ["verify", "--power-bound", "8"], "json")


@pytest.mark.parametrize("path, args, fmt, golden", CASES,
                         ids=[c[3].name for c in CASES])
def test_report_matches_golden(path, args, fmt, golden):
    assert _report(path, args, fmt) == golden.read_text(encoding="utf-8")


def test_quadrupled_line_matches_golden(tmp_path):
    assert (_quadrupled_report(tmp_path)
            == QUADRUPLED_GOLDEN.read_text(encoding="utf-8"))


JSON_CASES = [case for case in CASES if case[2] == "json"]


@pytest.mark.parametrize("path, args, fmt, golden", JSON_CASES,
                         ids=[c[3].name for c in JSON_CASES])
def test_writer_matches_indented_json_dumps(path, args, fmt, golden):
    # the goldens were written by json.dumps(report, indent=2,
    # sort_keys=True) with certificate rows as dicts; render's own writer
    # must give the same text on the live report, tuples, row templates
    # and all
    options = cli._build_parser().parse_args(
        [args[0], str(path), "--box", "1", *args[1:]])
    report, _ = cli.run(options.mode, options.file, box_radius=options.box,
                        power_bound=options.power_bound,
                        lambda_mode=options.lambda_mode)
    text = cli.render(report, "json")
    assert text == json.dumps(dict_report(report), indent=2, sort_keys=True)
    assert text + "\n" == golden.read_text(encoding="utf-8")


def test_writer_matches_on_the_quadrupled_line(tmp_path):
    path = tmp_path / "quadrupled_line.json"
    path.write_text(json.dumps(QUADRUPLED_LINE), encoding="utf-8")
    report, _ = cli.run("verify", str(path), box_radius=1, power_bound=8)
    assert (cli.render(report, "json")
            == json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path, args, fmt, golden in CASES:
        golden.write_text(_report(path, args, fmt), encoding="utf-8")
    with tempfile.TemporaryDirectory() as directory:
        QUADRUPLED_GOLDEN.write_text(_quadrupled_report(directory),
                                     encoding="utf-8")
