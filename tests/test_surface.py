"""Every function and class in `src/coxring` is reached from `src/coxring`.

A module-level function, class or method that nothing in the package names
is surface that no CLI mode or check can run; it belongs in `tests/`, as
the oracles of `conveniences.py` do.  The test reads the source with `ast`
and counts a definition as used when its name occurs in a `Name` or
`Attribute` node of some module outside the definition's own body.  So an
exception class counts as named when it is raised or caught.  Dunder
methods are called by the interpreter and are exempt, and so are the names
the traced benchmark wraps (`TARGETS` of `perfbench/tracer.py`), which must
resolve for the tracer to run.

A method counts only `Attribute` nodes of its name.  One whose receiver is
the name of a class of `src` counts for that class alone, so `UniPoly.zero()`
keeps no `zero` of another class in use.  Other receivers are matched
without their class: `f.is_zero()` keeps every `is_zero` in use, so a
method called only through instances while a method of the same name on
another class is used has to be found by making it raise and running the
tests.
"""

import ast
import pathlib
from collections import Counter

from test_perfbench import _targets

SRC = pathlib.Path(__file__).parent.parent / "src" / "coxring"


def _definitions(tree):
    """(qualname, node) of every module-level function, class and
    method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s" % (node.name, item.name), item


def _names(node, classes):
    """Counters of the uses under node: of each identifier in a Name or
    Attribute node, and of each (receiver, attribute) pair of an Attribute
    node, the receiver the name of one of classes or else None."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
            owner = sub.value
            owner = (owner.id if isinstance(owner, ast.Name)
                     and owner.id in classes else None)
            attributes[owner, sub.attr] += 1
    return names, attributes


def _uses(names, attributes, qualname):
    """The uses of a definition: of its name for a function or class, of
    a method's name through its class or a receiver that is no class."""
    owner, _, method = qualname.rpartition(".")
    if not owner:
        return names[method]
    return attributes[owner, method] + attributes[None, method]


def unreached(src=SRC, allowed=()):
    """Sorted "module.qualname" of the definitions under src that no use
    outside their own body refers to (_uses)."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    names, attributes = Counter(), Counter()
    for tree in trees.values():
        n, a = _names(tree, classes)
        names += n
        attributes += a
    found = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if "%s.%s" % (module, qualname) in allowed:
                continue
            if (_uses(names, attributes, qualname)
                    == _uses(*_names(node, classes), qualname)):
                found.append("%s.%s" % (module, qualname))
    return sorted(found)


def test_every_function_is_reached_from_the_package():
    traced = {"%s.%s" % (layer, qualname)
              for layer, names in _targets().items() for qualname in names}
    assert unreached(allowed=traced) == []


def test_an_uncalled_function_is_flagged(tmp_path):
    (tmp_path / "one.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def size(self):\n        return self.size\n\n"
        "    def unused(self):\n        return 0\n\n\n"
        "class Marker(tuple):\n"
        "    def __repr__(self):\n        return repr(Marker)\n\n\n"
        "class Raised(Exception):\n    pass\n\n\n"
        "class Caught(Exception):\n    pass\n\n\n"
        "def fail():\n    raise Raised\n\n\n"
        "def guard():\n    try:\n        fail()\n"
        "    except Caught:\n        pass\n\n\n"
        "class Left:\n    @staticmethod\n    def make():\n        return 0\n"
        "\n\n"
        "class Right:\n    @staticmethod\n    def make():\n        return 1\n",
        encoding="utf-8")
    (tmp_path / "two.py").write_text(
        "from one import used, Box, guard, Left, Right\nused()\nguard()\n"
        "Box()\nRight()\nLeft.make()\n",
        encoding="utf-8")
    # a name used only inside its own body does not count; an exception
    # class is named where it is raised or caught; a method called through
    # one class's name is not used on another class
    assert unreached(tmp_path) == ["one.Box.size", "one.Box.unused",
                                   "one.Marker", "one.Right.make",
                                   "one.recursive"]
    assert unreached(tmp_path, allowed={"one.recursive"}) == [
        "one.Box.size", "one.Box.unused", "one.Marker", "one.Right.make"]
