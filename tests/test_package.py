"""The installed package holds no test-only code: every private
module-level function of ``trpmbm`` has a caller inside the package."""

import ast
from pathlib import Path

import trpmbm

PACKAGE = Path(trpmbm.__file__).parent


def _uncalled_private_functions(package: Path) -> list[str]:
    """``module.name`` of each private module-level function in the modules
    of ``package`` whose name no code of the package names, outside the
    function's own body (a call, a reference or an import)."""
    defined, named = [], set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                own = stmt.name
                defined.append((path.stem, own))
            here = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute):
                    here.add(node.attr)
                elif isinstance(node, ast.alias):
                    here.add(node.name)
            named |= here - {own}
    return [f"{module}.{name}" for module, name in defined if name not in named]


def test_every_private_function_has_a_caller_in_the_package():
    # one that only tests call belongs under tests/
    assert _uncalled_private_functions(PACKAGE) == []
