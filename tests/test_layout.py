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
