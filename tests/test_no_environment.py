"""A run is fixed by its configuration and command line: the library reads
no environment variable."""

import ast

from test_no_assert import library_trees

_READERS = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node):
    if isinstance(node, ast.Attribute):
        return node.attr in _READERS
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in _READERS for alias in node.names)
    return False


def test_library_reads_no_environment_variable():
    found = ["%s:%d" % (name, node.lineno) for name, tree in library_trees()
             for node in ast.walk(tree) if _reads_environment(node)]
    assert not found, "environment reads in the library: %s" % ", ".join(found)
