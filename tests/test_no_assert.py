"""Library invariants must not rely on ``assert``, which ``python -O`` strips."""

import ast
import os

import ovc


def library_trees():
    """(file name, parsed module) for every module of the package."""
    package = os.path.dirname(os.path.abspath(ovc.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path) as fh:
            yield name, ast.parse(fh.read(), filename=path)


def test_library_has_no_assert_statements():
    found = ["%s:%d" % (name, node.lineno) for name, tree in library_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the library: %s" % ", ".join(found)
