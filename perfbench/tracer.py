"""Outside-in span tracer for the coxring layers.

The tracer wraps public functions and methods of the coxring modules from
outside the package: ``src/`` is never edited.  Each call becomes one span
(name, start, end, parent); spans are kept in memory in a flat integer array
and written once, when the traced process ends.  Names imported by value
into other modules (``from .exactmath import enumerate_monomials``) are
patched in every module namespace that holds them, so no call escapes.

Besides spans, two wrapped functions record exact counters:
``enumerate_monomials`` counts the monomials it returns and the calls with
a nonempty result, and ``positive_functional`` records each distinct
(degree map, relations) input it receives.
"""

import array
import functools
import importlib
import json
import time

# layer -> public functions and methods that are traced in that layer
TARGETS = {
    "cli": ("run", "render"),
    "coxalg": (
        "curve_algebra", "default_box", "build_presentation",
        "find_generators", "find_relations",
        "PicGradedAlgebra.effective_nonzero",
        "GradedSectionAlgebra.component",
        "weight_monoid_check", "is_pointed", "irrelevant_sections",
        "sections_as_polynomials", "separatedness_check",
        "freely_graded_check", "uniqueness_crosscheck",
    ),
    "exactmath": (
        "enumerate_monomials", "positive_functional", "feasible_point",
        "rank_kernel", "solve_in_span", "RationalFunction.__mul__",
        "UniPoly.__divmod__", "MultiPoly.__mul__",
    ),
    "grading": (
        "smith_normal_form", "FGAbelianGroup.__init__",
        "FGAbelianGroup.class_key",
    ),
    "ratcurve": (
        "is_principal", "PicardData.__init__", "section_space",
        "SectionSpace.coordinates_of", "principal_divisor", "min_degree",
    ),
    "toric": ("class_group", "toric_cox_data", "cox_presentation"),
}

FIELDS = 4  # name id, start ns, end ns, parent span index (-1 for a root)


def _int_rows(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


class Recorder:
    """Spans and exact counters of one traced process."""

    def __init__(self):
        self.names = []
        self.spans = array.array("q")
        self.stack = [-1]
        self.monomials = 0
        self.nonempty = 0
        self.functional_inputs = set()

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans) // FIELDS
            spans.extend((name_id, 0, 0, stack[-1]))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index * FIELDS + 1] = start
                spans[index * FIELDS + 2] = end

        return traced

    def _count_monomials(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.monomials += len(result)
            self.nonempty += bool(result)
            return result

        return counted

    def _record_functional_input(self, fn):
        @functools.wraps(fn)
        def recorded(degrees, orthogonal_to=()):
            self.functional_inputs.add(
                (_int_rows(degrees), _int_rows(orthogonal_to)))
            return fn(degrees, orthogonal_to)

        return recorded

    def install(self):
        """Wrap every target in every coxring module that binds it."""
        modules = {layer: importlib.import_module("coxring." + layer)
                   for layer in TARGETS}
        for layer, names in TARGETS.items():
            module = modules[layer]
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
                inner = original
                if qualname == "enumerate_monomials":
                    inner = self._count_monomials(inner)
                elif qualname == "positive_functional":
                    inner = self._record_functional_input(inner)
                wrapper = self._wrap(layer + "." + qualname, inner)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)

    def dump(self, path, invocation):
        """Write the spans and counters: a JSON header line, then the span
        array as raw native-endian 64-bit integers.  `invocation` identifies
        the process all the spans belong to."""
        header = {
            "invocation": invocation,
            "names": self.names,
            "counters": {
                "exactmath.enumerate_monomials.monomials": self.monomials,
                "exactmath.enumerate_monomials.nonempty": self.nonempty,
                "exactmath.positive_functional.distinct":
                    len(self.functional_inputs),
            },
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(handle)


def load(path):
    """Read a file written by Recorder.dump: (header, span array)."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = array.array("q")
        spans.frombytes(handle.read())
    return header, spans


def aggregate(header, spans, totals):
    """Add per-name calls, total time and self time (seconds) to totals.

    Self time is a span's duration minus the time its direct children
    cover; children always nest inside their parent, so this is the span
    stack's own bookkeeping replayed from the parent indices.
    """
    names = header["names"]
    count = len(spans) // FIELDS
    durations = [spans[i * FIELDS + 2] - spans[i * FIELDS + 1]
                 for i in range(count)]
    covered = [0] * count
    for i in range(count):
        parent = spans[i * FIELDS + 3]
        if parent >= 0:
            covered[parent] += durations[i]
    for i in range(count):
        entry = totals.setdefault(names[spans[i * FIELDS]],
                                  {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += durations[i] / 1e9
        entry["self_s"] += (durations[i] - covered[i]) / 1e9
    return totals


# Per-layer metrics reported by a traced run: span name -> reported stats.
# "calls" is a count, "s" total seconds, "self_s" seconds outside child
# spans.  Which end-to-end metric each should move is listed in NOTES.md.
SPAN_METRICS = {
    "cli.run": ("s",),
    "cli.render": ("s",),
    "coxalg.find_generators": ("self_s",),
    "coxalg.find_relations": ("self_s",),
    "coxalg.PicGradedAlgebra.effective_nonzero": ("calls",),
    "coxalg.GradedSectionAlgebra.component": ("calls",),
    "coxalg.freely_graded_check": ("s",),
    "coxalg.separatedness_check": ("s",),
    "coxalg.is_pointed": ("s",),
    "coxalg.irrelevant_sections": ("s",),
    "coxalg.sections_as_polynomials": ("s",),
    "coxalg.uniqueness_crosscheck": ("self_s",),
    "coxalg.curve_algebra": ("s",),
    "coxalg.default_box": ("s",),
    "exactmath.enumerate_monomials": ("calls", "self_s", "s"),
    "exactmath.positive_functional": ("calls", "s"),
    "exactmath.feasible_point": ("calls", "s"),
    "exactmath.rank_kernel": ("calls", "s"),
    "exactmath.solve_in_span": ("calls", "s"),
    "exactmath.RationalFunction.__mul__": ("calls", "s"),
    "exactmath.UniPoly.__divmod__": ("calls", "s"),
    "exactmath.MultiPoly.__mul__": ("calls", "s"),
    "grading.smith_normal_form": ("calls", "s"),
    "grading.FGAbelianGroup.__init__": ("calls", "s"),
    "grading.FGAbelianGroup.class_key": ("calls", "s"),
    "ratcurve.is_principal": ("calls", "s"),
    "ratcurve.PicardData.__init__": ("calls",),
    "ratcurve.section_space": ("calls", "s"),
    "ratcurve.SectionSpace.coordinates_of": ("calls", "s"),
    "ratcurve.principal_divisor": ("calls", "s"),
    "ratcurve.min_degree": ("calls", "s"),
    "toric.cox_presentation": ("self_s", "s"),
    "toric.class_group": ("calls", "s"),
}

# ratio metric -> (numerator, denominator), each a span's calls or a counter
RATIO_METRICS = {
    "coxalg.component.build_ratio": (
        "ratcurve.section_space", "coxalg.GradedSectionAlgebra.component"),
    "exactmath.enumerate_monomials.nonempty_ratio": (
        "exactmath.enumerate_monomials.nonempty",
        "exactmath.enumerate_monomials"),
    "exactmath.positive_functional.distinct_ratio": (
        "exactmath.positive_functional.distinct",
        "exactmath.positive_functional"),
    "ratcurve.picard_rebuild_ratio": (
        "ratcurve.PicardData.__init__", "ratcurve.is_principal"),
}

COUNTER_METRICS = ("exactmath.enumerate_monomials.monomials",)

UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def counts(totals, counters):
    """The exact part of a traced pass: calls per span name and counters."""
    out = {name: entry["calls"] for name, entry in totals.items()}
    out.update(counters)
    return out


def layer_metrics(totals, counters):
    """metric name -> (value, unit); a span never entered reads 0, and a
    ratio whose base is 0 reads 0."""
    exact = counts(totals, counters)
    out = {}
    for name, stats in SPAN_METRICS.items():
        entry = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for stat in stats:
            out[name + "." + stat] = (entry[stat], UNITS[stat])
    for name in COUNTER_METRICS:
        out[name] = (exact.get(name, 0), "count")
    for name, (num, den) in RATIO_METRICS.items():
        base = exact.get(den, 0)
        out[name] = (exact.get(num, 0) / base if base else 0.0, "ratio")
    return out
