"""Package layout rules that the code itself can check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hurwitz"


def test_modules_import_no_private_names():
    """A helper another module needs is public in its home module."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "hurwitz"
            ):
                offenders += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_permutation_and_ribbon_import_only_core():
    """The permutation and ribbon pipelines stay independent: neither imports
    anything from the package but ``core``."""
    offenders = []
    for name in ("permutation", "ribbon"):
        path = SRC / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [("hurwitz." if node.level else "") + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {module}"
                for module in modules
                if module.split(".")[0] == "hurwitz" and module != "hurwitz.core"
            ]
    assert offenders == []


def test_private_helpers_have_a_library_caller():
    """A module-level private function or class is used somewhere in the
    package outside its own definition; a helper only tests call belongs in
    tests/reference.py."""
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    uses = {}  # name -> ids of the nodes that use it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    offenders = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or not node.name.startswith("_"):
                continue
            inside = {id(sub) for sub in ast.walk(node)}
            if not uses.get(node.name, set()) - inside:
                offenders.append(f"{name}:{node.lineno} {node.name}")
    assert offenders == []
