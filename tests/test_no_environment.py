"""A run is fixed by its configuration and command line: the library reads
no environment variable, and its one write is the command line's BLAS
thread pin."""

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


_WRITERS = {"putenv", "unsetenv", "environ", "environb"}


def _touches_environment(node):
    if isinstance(node, ast.Attribute):
        return node.attr in _WRITERS
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(alias.name in _WRITERS for alias in node.names)
    return False


def test_the_only_environment_write_pins_blas_in_main():
    found = [(name, node) for name, tree in library_trees()
             for node in ast.walk(tree) if _touches_environment(node)]
    assert [(name, ast.unparse(node)) for name, node in found] == [("cli.py", "os.putenv")]
    cli_tree = dict(library_trees())["cli.py"]
    main = next(node for node in cli_tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert ast.unparse(main.body[0]) == "os.putenv('OPENBLAS_NUM_THREADS', '1')"
