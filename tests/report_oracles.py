"""The report path as it was before certificate rows became tuples, kept as
the oracle of the streamed report: the traversal of every distinct box
class, certificate rows as dicts, and the recursive JSON and text writers.
"""

import json
import operator

from coxring.coxalg import Certificate, _degree_weights


def traversal(A, box):
    """Distinct box classes, each with its first position in the box, in a
    linear extension of the effectivity order: every class, zero or not,
    keyed by class_key."""
    class_key = A.pic.class_key
    y = _degree_weights(A)
    classes = []
    seen = set()
    for i, vec in enumerate(box):
        key = class_key(vec)
        if key not in seen:
            seen.add(key)
            classes.append((sum(map(operator.mul, y, vec)), i, vec))
    classes.sort()
    return [(i, vec) for _, i, vec in classes]


def box_classes(A, box):
    """The first vector of each class of the box, in box order."""
    return [vec for _, vec in sorted(traversal(A, box))]


def dict_row(row):
    """A certificate row (degree, monomials, dim, kernel, ideal_span) as the
    dict the report writes."""
    degree, monomials, dim, kernel, ideal_span = row
    return {"degree": list(degree), "monomials": monomials, "dim": dim,
            "kernel": kernel, "ideal_span": ideal_span}


def dict_report(value):
    """The report with every Certificate replaced by its list of dict
    rows, as Presentation.to_json used to copy them."""
    if isinstance(value, Certificate):
        return [dict_row(row) for row in value]
    if isinstance(value, dict):
        return {k: dict_report(v) for k, v in value.items()}
    if isinstance(value, list):
        return [dict_report(v) for v in value]
    return value


_encode_string = json.encoder.encode_basestring_ascii


def json_parts(value, indent, parts):
    """Append the pieces of json.dumps(value, indent=2, sort_keys=True) to
    parts, recursively, a list of ints by one join."""
    if isinstance(value, str):
        parts.append(_encode_string(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = indent + "  "
        if isinstance(value, dict):
            sep = "{\n" + inner
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError("keys must be str, not %s"
                                    % type(key).__name__)
                parts.append(sep + _encode_string(key) + ": ")
                json_parts(value[key], inner, parts)
                sep = ",\n" + inner
            parts.append("\n" + indent + "}")
        elif all(type(x) is int for x in value):
            parts.append("[\n" + inner
                         + (",\n" + inner).join(map(int.__repr__, value))
                         + "\n" + indent + "]")
        else:
            sep = "[\n" + inner
            for item in value:
                parts.append(sep)
                json_parts(item, inner, parts)
                sep = ",\n" + inner
            parts.append("\n" + indent + "]")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)


def text_lines(prefix, value):
    """The lines of the text format, without newlines."""
    if isinstance(value, dict):
        if not value:
            yield "%s: (empty)" % prefix
        for k in sorted(value):
            sub = "%s.%s" % (prefix, k) if prefix else str(k)
            yield from text_lines(sub, value[k])
    elif isinstance(value, list):
        if not value:
            yield "%s: (none)" % prefix
        elif all(not isinstance(x, (dict, list)) for x in value):
            yield "%s: %s" % (prefix, " ".join(str(x) for x in value))
        else:
            for i, x in enumerate(value):
                yield from text_lines("%s[%d]" % (prefix, i), x)
    else:
        yield "%s: %s" % (prefix, value)


def render(report, fmt):
    """The report in the given format, rows as dicts, without the last
    newline."""
    report = dict_report(report)
    if fmt == "json":
        parts = []
        json_parts(report, "", parts)
        return "".join(parts)
    return "\n".join(text_lines("", report))
