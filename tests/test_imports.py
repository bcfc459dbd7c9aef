"""What the package holds and what crosses its module boundaries.

``grids`` owns the shared kernels (seam transport, slot products, exact
integer matrix algebra) and is the one module whose private names its
siblings may import; any other private helper stays in its module.  And
the package holds what a run calls: every public function and class, and
every public method and property of a class, has a caller in the package
or in the benchmark harness.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coskit"

# public names with no caller in src or bench, each kept for a reason
CRITERION_11 = "criterion 11: the Sol chart pulls back to the mapping torus exactly"
UNCALLED = {
    "sol_to_mapping_torus": CRITERION_11,
    "SolMappingTorusMap.pullback_residuals": CRITERION_11,
    "SolMappingTorusMap.roundtrip_residual": CRITERION_11,
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


def attributes(tree) -> set[str]:
    """Every attribute read or written in tree."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def uncalled_public_names(strings=True):
    """Public module-level functions and classes of src/coskit, and the names
    coskit/__init__ exports, that no other src code and no bench/*.py names;
    and, as "Class.member", each public method and property of a src class
    that no src or bench code reads as an attribute.  A function or class
    that a bench file defines itself does not read the package's name; the
    tracer's strings do, unless strings is false."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {node.name: module for module, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    bench, read = set(), set().union(*map(attributes, trees.values()))
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        # the tracer names what it wraps in strings such as "CompatibleMetric.ginv"
        traced = {part for node in ast.walk(tree) if strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value)
                  for part in node.value.split(".")}
        own = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        bench |= (names(tree) - own) | traced
        read |= attributes(tree) | traced
    members = {f"{cls.name}.{node.name}" for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and node.name not in read}
    return sorted(members | {name for name in set(defined) | exported if name not in bench
                  and not any(name in names(tree, name if defined.get(name) == module else None)
                              for module, tree in trees.items() if module != "__init__")})


def test_every_public_name_has_a_caller():
    assert uncalled_public_names() == sorted(UNCALLED)


def test_traced_only_names():
    # the public names that only the tracer's strings keep: no src or bench
    # code calls them, and a benchmark change that drops them from TRACED
    # lets them go
    traced_only = set(uncalled_public_names(strings=False)) - set(uncalled_public_names())
    assert sorted(traced_only) == ["christoffel", "seam_transport", "shift", "sqrtm_spd"]
