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
