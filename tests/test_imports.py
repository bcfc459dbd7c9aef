"""What the package holds and what crosses its module boundaries.

``grids`` owns the shared kernels (seam transport, slot products, exact
integer matrix algebra) and is the one module whose private names its
siblings may import; any other private helper stays in its module.  And
the package holds what a run calls: every public function and class has
a caller in the package or in the benchmark harness.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coskit"

# public names with no caller in src or bench, each kept for a reason
UNCALLED = {
    "polar_compatible_metric": "builds the compatible metrics outside the (u, r) family: "
                               "criterion 12 certifies one, and the critical metric's "
                               "energy is checked not to exceed theirs",
    "sol_to_mapping_torus": "criterion 11: the Sol chart pulls back to the mapping "
                            "torus exactly",
}


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


def names(tree, skip=None) -> set[str]:
    """Every Name and attribute in tree, outside the definitions named skip."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def uncalled_public_names():
    """Public module-level functions and classes of src/coskit, and the names
    coskit/__init__ exports, that no other src code and no bench/*.py names."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {node.name: module for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench = set()
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        bench |= names(tree)
        # the tracer names what it wraps in strings such as "CompatibleMetric.ginv"
        bench |= {part for node in ast.walk(tree) if isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value)
                  for part in node.value.split(".")}
    return sorted(name for name in set(defined) | exported if name not in bench
                  and not any(name in names(tree, name if defined.get(name) == module else None)
                              for module, tree in trees.items() if module != "__init__"))


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == sorted(UNCALLED)
