"""Private names cross module boundaries only out of ``grids``.

``grids`` owns the shared kernels (seam transport, slot products, exact
integer matrix algebra) and is the one module whose private names its
siblings may import; any other private helper stays in its module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "coskit"


def private_imports():
    """(file, sibling module, name) for each private name imported from a sibling."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").startswith("coskit."):
                module = node.module.split(".", 1)[1]
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield path.name, module, alias.name


def test_private_imports_come_from_grids():
    found = list(private_imports())
    assert any(module == "grids" for _, module, _ in found)   # the walk sees imports
    assert [imp for imp in found if imp[1] != "grids"] == []
