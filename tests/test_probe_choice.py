"""One place chooses the basis a numeric value is read on: in the library,
``probe_batch`` is named only in ``ovps``, and called only by
``ovps.basis_values``, the switch between the whole elementary basis and
the seeded probes that ``multimap_dev`` and ``ovc cumulants`` read."""

import ast

from test_no_assert import library_trees


def _names_probe_batch(node):
    if isinstance(node, ast.Name):
        return node.id == "probe_batch"
    if isinstance(node, ast.Attribute):
        return node.attr == "probe_batch"
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == "probe_batch" for alias in node.names)
    return False


def test_probe_batch_is_named_only_where_the_basis_is_chosen():
    found = sorted({
        (name, getattr(top, "name", "line %d" % top.lineno))
        for name, tree in library_trees()
        for top in tree.body
        for node in ast.walk(top)
        if _names_probe_batch(node)
    })
    assert found == [("ovps.py", "basis_values")], found
