"""No module of the package keeps run state in a module global.

A counter kept per run travels with the run (in its report, or in an
object the run owns), so runs in one process, or grid cells run side
by side, cannot mix their figures. A `global` or `nonlocal` statement
is how a function rebinds state outside its own call, so none may
appear anywhere in the package.
"""

import ast
from pathlib import Path

import ssht

PACKAGE = Path(ssht.__file__).parent


def test_no_module_rebinds_outer_state():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}: {type(node).__name__.lower()} "
             f"{', '.join(node.names)}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert found == []
