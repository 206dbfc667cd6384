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

import argparse
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


def run(mode, path, box_radius=2, power_bound=4, lambda_mode="canonical"):
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


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

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


def _build_parser():
    shared = _Parser(add_help=False)
    shared.add_argument("--box", type=_nonnegative, default=2,
                        metavar="RADIUS",
                        help="degree box radius (default 2)")
    shared.add_argument("--power-bound", type=_nonnegative, default=4,
                        dest="power_bound", metavar="N",
                        help="power search bound for the freely graded "
                             "check (default 4); a pair certified by a "
                             "rational point is decided exactly at once, "
                             "the bound truncates only the others")
    shared.add_argument("--lambda", choices=("canonical", "full"),
                        default="canonical", dest="lambda_mode",
                        help="lattice pipeline (default canonical)")
    shared.add_argument("--format", choices=("json", "text"),
                        default="json",
                        help="report format (default json)")
    parser = _Parser(prog="coxring",
                     description="Homogeneous coordinate rings of glued "
                                 "curves and toric varieties, exactly.")
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("curve", parents=[shared],
                   help="presentation of a glued curve")\
       .add_argument("file", help="curve JSON file")
    sub.add_parser("toric", parents=[shared],
                   help="polynomial ring of a fan")\
       .add_argument("file", help="fan JSON file")
    sub.add_parser("verify", parents=[shared],
                   help="verification checks on a curve or fan")\
       .add_argument("file", help="curve or fan JSON file")
    sub.add_parser("crosscheck", parents=[shared],
                   help="agreement of the two lattice pipelines")\
       .add_argument("file", help="curve JSON file")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        report, code = run(args.mode, args.file, box_radius=args.box,
                           power_bound=args.power_bound,
                           lambda_mode=args.lambda_mode)
    except (InputError, BoxTooSmall, BoxTooLarge, GeneratorsIncomplete,
            NonPointedMonoid) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except InternalInconsistency as exc:
        print("error: internal inconsistency: %s" % exc, file=sys.stderr)
        return 3
    try:
        render(report, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); point it at devnull so
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
