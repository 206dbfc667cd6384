"""The traced benchmark (`perfbench/run.py --trace 1`) wraps the public
functions named in `TARGETS` of `perfbench/tracer.py`; a renamed or deleted
function must fail here rather than only when the benchmark runs.  The
tracer source is parsed, not imported, so nothing is written next to it."""

import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return ast.literal_eval(node.value)
    raise AssertionError("TARGETS not found in %s" % TRACER)


def test_every_traced_name_resolves():
    targets = _targets()
    assert sum(len(names) for names in targets.values()) == 36
    for layer, names in targets.items():
        module = importlib.import_module("coxring." + layer)
        for qualname in names:
            owner = module
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner), "%s.%s" % (layer, qualname)
