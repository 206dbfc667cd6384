"""Command line front end: curve and fan reports with deterministic output.

Subcommands: curve (presentation of a glued curve), toric (polynomial ring
of a fan), verify (the verification checks on either input), crosscheck
(agreement of the two lattice pipelines).  Reports are emitted as JSON with
sorted keys or as flat text, and repeated runs on the same input produce
identical bytes.

Exit codes: 0 when nothing failed (nonseparatedness and inconclusive checks
are findings, reported with a flag), 2 when a verification check failed,
1 for unreadable or malformed input, for a box too small to answer or
too large to list, for too many irrelevant elements to build and when
stdout is closed while the report is written, 3 when an internal
consistency check failed.
"""

import itertools
import json
import math
import os
import sys

from .coxalg import (
    BoxTooSmall,
    Certificate,
    GeneratorsIncomplete,
    NonPointedMonoid,
    build_presentation,
    candidate_points,
    curve_algebra,
    default_box,
    freely_graded_check,
    irrelevant_sections,
    is_pointed,
    lattice_box,
    sections_as_polynomials,
    separatedness_check,
    uniqueness_crosscheck,
    weight_monoid_check,
)
from .grading import (MAX_CURVE_COPIES, MAX_IRRELEVANT_ELEMENTS, BoxTooLarge,
                      box_vector_count, within_limit)
from .ratcurve import InternalInconsistency, curve_from_json, picard_rank
from .toric import (
    MalformedFan,
    class_group,
    cox_presentation,
    fan_from_json,
    toric_cox_data,
)


class InputError(Exception):
    """The input file cannot be read or fails schema validation."""


def _plain(value):
    """Recursively convert report values to JSON-serializable ones."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def _verdict_entry(verdict, **context):
    return dict(_plain(verdict.to_json()), **context)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from exc


def _parse_curve(path, data):
    try:
        return curve_from_json(data)
    except ValueError as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def _parse_fan(path, data):
    try:
        return fan_from_json(data)
    except MalformedFan as exc:
        raise InputError("%s: %s" % (path, exc)) from exc


def _refuse_large_curve(X, radius):
    """Raise BoxTooLarge before any lattice is built: for a box that lists
    too many classes over the basis of the canonical lattice, one divisor
    per class coordinate (canonical_lambda), so over picard_rank
    generators, or else for more than MAX_CURVE_COPIES copies of special
    points, which even a box of radius 0 would build lattices over."""
    box_vector_count(picard_rank(X), radius)
    within_limit(sum(m for _, m in X.special), MAX_CURVE_COPIES,
                 "the curve has %s copies of special points")


def _refuse_many_irrelevant(X):
    """The irrelevant elements verify builds on X (irrelevant_sections):
    the sum over special points t of the product of the other
    multiplicities, or 1 + m with one special point.  Raises BoxTooLarge
    beyond MAX_IRRELEVANT_ELEMENTS, before any lattice is built."""
    mults = [m for _, m in X.special]
    product = math.prod(mults)
    count = (1 + product if len(mults) == 1
             else sum(product // m for m in mults))
    return within_limit(count, MAX_IRRELEVANT_ELEMENTS,
                        "verify would build %s irrelevant elements")


def _curve_pipeline(X, box_radius, lambda_mode):
    _refuse_large_curve(X, box_radius)
    A = curve_algebra(X, mode=lambda_mode)
    # the box is always that of the canonical lattice
    if lambda_mode == "canonical":
        box = lattice_box(A.lattice, box_radius)
    else:
        box = default_box(X, box_radius)
    P = build_presentation(A, box)
    return A, box, P


def _run_curve(path, options):
    X = _parse_curve(path, _load(path))
    A, _, P = _curve_pipeline(X, options["box_radius"],
                              options["lambda"])
    report = {
        "mode": "curve",
        "options": options,
        "picard": A.pic.describe(),
        "lattice_rank": A.lattice.rank,
        "presentation": P.to_json(),
    }
    return report, 0


def _run_toric(path, options):
    fan = _parse_fan(path, _load(path))
    data = toric_cox_data(fan)
    P = cox_presentation(fan, options["box_radius"])
    report = {
        "mode": "toric",
        "options": options,
        "class_group": data.class_group.describe(),
        "ray_degrees": [list(d) for d in data.degree_of_ray],
        "presentation": P.to_json(),
        "irrelevant_monomials": [list(e)
                                 for e in data.irrelevant_monomials],
        "irrelevant_polynomials": [str(p)
                                   for p in data.irrelevant_polynomials()],
    }
    return report, 0


def _run_verify(path, options):
    data = _load(path)
    checks = {}
    if isinstance(data, dict) and "special" in data:
        kind = "curve"
        X = _parse_curve(path, data)
        _refuse_many_irrelevant(X)
        if options["box_radius"] == 0:
            raise BoxTooSmall(
                "verify on a curve needs --box 1 or more: a radius-0 box "
                "holds only the zero class, and every irrelevant element "
                "has a nonzero class")
        A, box, P = _curve_pipeline(X, options["box_radius"],
                                    options["lambda"])
        checks["weight_monoid"] = _verdict_entry(
            weight_monoid_check(A.pic, [d for d, _ in P.generators]))
        checks["pointed"] = _verdict_entry(is_pointed(A, box))
        elems = irrelevant_sections(A)
        checks["separatedness"] = _verdict_entry(
            separatedness_check(A, elems, levels=2), levels=2)
        polys = sections_as_polynomials(A, P, elems)
        checks["freely_graded"] = _verdict_entry(
            freely_graded_check(P, polys, options["power_bound"],
                                candidate_points(A, P)),
            power_bound=options["power_bound"])
    elif isinstance(data, dict) and "rays" in data:
        kind = "toric"
        fan = _parse_fan(path, data)
        group, degrees = class_group(fan)
        P = cox_presentation(fan, options["box_radius"])
        checks["weight_monoid"] = _verdict_entry(
            weight_monoid_check(group, degrees))
        irr = toric_cox_data(fan).irrelevant_polynomials()
        checks["freely_graded"] = _verdict_entry(
            freely_graded_check(P, irr, options["power_bound"]),
            power_bound=options["power_bound"])
    else:
        raise InputError(
            "%s: neither a curve (needs 'special') nor a fan "
            "(needs 'rays')" % path)
    failed = any(entry["verdict"] == "fail" for entry in checks.values())
    findings = {
        "not_separated": any(entry["verdict"] == "not_separated"
                             for entry in checks.values()),
        "inconclusive": sorted(name for name, entry in checks.items()
                               if entry["verdict"] == "inconclusive"),
    }
    report = {
        "mode": "verify",
        "input_kind": kind,
        "options": options,
        "checks": checks,
        "findings": findings,
        "all_passed": not failed,
    }
    return report, (2 if failed else 0)


def _run_crosscheck(path, options):
    X = _parse_curve(path, _load(path))
    _refuse_large_curve(X, options["box_radius"])
    verdict = uniqueness_crosscheck(X, radius=options["box_radius"])
    agreed = verdict.verdict == "pass"
    report = {
        "mode": "crosscheck",
        "options": options,
        "result": dict(verdict.fields),
        "agreed": agreed,
    }
    return report, (0 if agreed else 2)


_RUNNERS = {
    "curve": _run_curve,
    "toric": _run_toric,
    "verify": _run_verify,
    "crosscheck": _run_crosscheck,
}
MODES = tuple(_RUNNERS)
# the options of every mode: flag -> (namespace name, default, choices);
# choices None means a count, an int >= 0
OPTIONS = {
    "--box": ("box", 2, None),
    "--power-bound": ("power_bound", 4, None),
    "--lambda": ("lambda_mode", "canonical", ("canonical", "full")),
    "--format": ("format", "json", ("json", "text")),
}


def run(mode, path, box_radius=OPTIONS["--box"][1],
        power_bound=OPTIONS["--power-bound"][1],
        lambda_mode=OPTIONS["--lambda"][1]):
    """Produce the report dict and exit code for one invocation."""
    options = {"box_radius": box_radius, "power_bound": power_bound,
               "lambda": lambda_mode}
    return _RUNNERS[mode](path, options)


def _certificate_rows(certificate, fmt, where):
    """The text of each row of a nonempty certificate from one str.format
    template for its rank, filled by (index, *row): a row of markers as the
    writer gives it (in JSON at indentation where, in text under prefix
    where), each marker made a field."""
    rank = len(certificate.degrees[0])
    mark = 10 ** 40  # markers mark + k: one length, none inside another
    row = dict(zip(Certificate.FIELDS, [[mark + k + 1 for k in range(rank)]]
                   + [mark + rank + k for k in range(1, 5)]))
    text = "".join(_json_parts(row, where) if fmt == "json" else
                   _text_lines("%s[%d]" % (where, mark), row))
    text = text.replace("{", "{{").replace("}", "}}")
    for k in range(rank + 5):
        text = text.replace(str(mark + k), "{%d}" % k)
    fill, rows, zero = text.format, certificate.rows, (None, 0, 0, 0, 0)
    for i, degree in enumerate(certificate.degrees):
        yield fill(i, *degree, *rows.get(i, zero)[1:])


def _text_lines(prefix, value):
    if isinstance(value, dict):
        if not value:
            yield "%s: (empty)\n" % prefix
        for k in sorted(value):
            sub = "%s.%s" % (prefix, k) if prefix else str(k)
            yield from _text_lines(sub, value[k])
    elif isinstance(value, Certificate) and value:
        yield from _certificate_rows(value, "text", prefix)
    elif isinstance(value, (list, Certificate)):
        if not value:
            yield "%s: (none)\n" % prefix
        elif all(not isinstance(x, (dict, list)) for x in value):
            yield "%s: %s\n" % (prefix, " ".join(str(x) for x in value))
        else:
            for i, x in enumerate(value):
                yield from _text_lines("%s[%d]" % (prefix, i), x)
    else:
        yield "%s: %s\n" % (prefix, value)


_encode_string = json.encoder.encode_basestring_ascii


def _json_parts(value, indent):
    """The pieces of json.dumps(value, indent=2, sort_keys=True), at the
    given indentation: the same bytes without the encoder's pure-Python
    path, which indent selects.  Values are dicts with string keys, lists
    and tuples, Certificates (_certificate_rows), strings, ints, bools and
    None; anything else raises TypeError."""
    if isinstance(value, str):
        yield _encode_string(value)
    elif value is None:
        yield "null"
    elif value is True:
        yield "true"
    elif value is False:
        yield "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, (list, tuple, dict, Certificate)):
        if not value:
            yield "{}" if isinstance(value, dict) else "[]"
            return
        inner = indent + "  "
        if isinstance(value, dict):
            sep = "{\n" + inner
            for key in sorted(value):
                yield sep + _encode_string(key) + ": "
                yield from _json_parts(value[key], inner)
                sep = ",\n" + inner
            yield "\n" + indent + "}"
        elif isinstance(value, Certificate):
            rows = _certificate_rows(value, "json", inner)
            yield "[\n" + inner + next(rows)
            yield from (",\n" + inner + row for row in rows)
            yield "\n" + indent + "]"
        else:
            sep = "[\n" + inner
            for item in value:
                yield sep
                yield from _json_parts(item, inner)
                sep = ",\n" + inner
            yield "\n" + indent + "]"
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def render(report, fmt, out=None):
    """The report in the given format, as one string without its last
    newline; or, given a stream out, written to it piece by piece."""
    parts = (itertools.chain(_json_parts(report, ""), "\n") if fmt == "json"
             else _text_lines("", report))
    if out is None:
        return "".join(parts)[:-1]
    out.writelines(parts)


def _count(text):
    """int(text) when that is >= 0, else None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 else None


def _read_argv(argv):
    """The namespace of a well-formed command line as a dict, or None to
    leave argv to argparse (_build_parser), which prints help, usage and
    every error.

    Accepted: MODE followed by one FILE and options in any order, each
    option one of OPTIONS, exactly, as `--opt value` or `--opt=value`, its
    value a count (_count) or one of its choices; the last of a repeated
    option wins.  No value and no FILE starts with "-".

    Every argv accepted here argparse accepts with equal values.  The main
    parser has one subcommand per MODES, and its only option is -h/--help,
    of which no option of OPTIONS is a prefix; so it reads MODE as the
    subcommand and hands every later token to that subparser.  There no
    value or FILE starts with "-", so each is a positional token (not an
    option, nor "--"); each option token is an exact option string of the
    subparser, or one joined to its value by "=", split at the first "="
    as here.  A bare option takes the next token as its value, FILE takes
    the one remaining positional token, and nothing is left over.  argparse
    applies the same int() and >= 0 test (_nonnegative) or the same
    membership in choices to each value, and the later of two values of
    one option overwrites the earlier.  Its namespace holds mode, file and
    the names of OPTIONS with their defaults, as here: both paths read
    them from OPTIONS.
    """
    if not argv or argv[0] not in MODES:
        return None
    values = {dest: default for dest, default, _ in OPTIONS.values()}
    values["mode"] = argv[0]
    files = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        flag, joined, text = token.partition("=")
        if flag not in OPTIONS:
            return None
        if not joined:
            text = next(tokens, "-")  # a missing value is declined below
        dest, _, choices = OPTIONS[flag]
        if text.startswith("-"):
            return None
        value = (_count(text) if choices is None
                 else text if text in choices else None)
        if value is None:
            return None
        values[dest] = value
    if len(files) != 1:
        return None
    values["file"] = files[0]
    return values


def _build_parser():
    """The argparse parser of the command line: the reference for
    _read_argv, and what reads every argv it leaves."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Argument parser whose usage errors exit with the input-error
        code."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, "%s: error: %s\n" % (self.prog, message))

    def _nonnegative(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not an integer" % text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be nonnegative")
        return value

    shared = _Parser(add_help=False)

    def option(flag, **kwargs):
        dest, default, choices = OPTIONS[flag]
        shared.add_argument(flag, dest=dest, default=default,
                            choices=choices, **kwargs,
                            type=_nonnegative if choices is None else None)

    option("--box", metavar="RADIUS",
           help="degree box radius (default %(default)s)")
    option("--power-bound", metavar="N",
           help="power search bound for the freely graded check (default "
                "%(default)s); a pair certified by a rational point is "
                "decided exactly at once, the bound truncates only the "
                "others")
    option("--lambda", help="lattice pipeline (default %(default)s)")
    option("--format", help="report format (default %(default)s)")
    parser = _Parser(prog="coxring",
                     description="Homogeneous coordinate rings of glued "
                                 "curves and toric varieties, exactly.")
    sub = parser.add_subparsers(dest="mode", required=True)
    helps = {
        "curve": ("presentation of a glued curve", "curve JSON file"),
        "toric": ("polynomial ring of a fan", "fan JSON file"),
        "verify": ("verification checks on a curve or fan",
                   "curve or fan JSON file"),
        "crosscheck": ("agreement of the two lattice pipelines",
                       "curve JSON file"),
    }
    for mode in MODES:
        mode_help, file_help = helps[mode]
        sub.add_parser(mode, parents=[shared], help=mode_help)\
           .add_argument("file", help=file_help)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = vars(_build_parser().parse_args(argv))
    try:
        report, code = run(args["mode"], args["file"], box_radius=args["box"],
                           power_bound=args["power_bound"],
                           lambda_mode=args["lambda_mode"])
    except (InputError, BoxTooSmall, BoxTooLarge, GeneratorsIncomplete,
            NonPointedMonoid) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print("error: internal inconsistency: %s" % exc, file=sys.stderr)
        return 3
    if sys.stdout is None:
        # fd 1 was closed before start-up: as a reader that has gone
        return 1
    try:
        render(report, args["format"], sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); point it at devnull so
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entry():
    """The program: main() on the command line, then stdout and stderr are
    flushed and the process ends at once with main's code.

    Both entry points call this: `python3 -m coxring.cli` and the
    `coxring` console script.  os._exit skips interpreter teardown.  A
    child on the benchmark inputs spends 42-44 ms in interpreter start-up,
    8.0-8.6 ms importing coxring.cli, 0.04 ms reading its command line
    (_read_argv; through argparse, 2.8-3.0 ms and 2.2 ms more of imports),
    4-21 ms in run, 0.1-2.7 ms in render and 0.9 ms in the exit, where
    teardown would take 10.0-10.5 ms, more than run in most of them
    (medians of 15 runs per input, one CPU of a 2-vCPU host, Python
    3.11.7).  Nothing is lost by skipping teardown: coxring registers no
    atexit handler, holds no file open for writing but stdio, and stdio is
    flushed here first.  An exception or an argparse SystemExit out of
    main() takes the normal exit path, so tracebacks and usage exits are
    unchanged.

    main(argv) itself returns its code and never ends the process: tests
    and the layer tracer call it in process.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
