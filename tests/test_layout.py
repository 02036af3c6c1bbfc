"""Package layout rules that the code itself can check."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_pipelines_import_only_core():
    """The permutation, ribbon and tropical pipelines stay independent: none
    imports anything from the package but ``core``."""
    offenders = []
    for name in ("permutation", "ribbon", "tropical"):
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


def test_only_ribbon_builds_combinatorial_maps():
    """Every 4-valent map comes from ribbon's one medial construction: no
    other module calls CombinatorialMap(...)."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ribbon.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "CombinatorialMap":
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# Runs the CLI (or, with no arguments, only imports it) in a fresh
# interpreter and prints the package modules it loaded, one JSON line last.
_LOADED = """
import json, sys
from hurwitz import cli
argv = json.loads(sys.argv[1])
if argv:
    cli.main(argv)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "hurwitz")))
"""

_BASE = {"hurwitz", "hurwitz.core", "hurwitz.cli"}


@pytest.mark.parametrize(
    "argv, extra",
    [
        ([], set()),
        (["compute", "--method", "permutation", "--genus", "1", "--mu", "2", "--nu", "2"],
         {"permutation"}),
        (["compute", "--method", "ribbon", "--genus", "1", "--mu", "2", "--nu", "2"],
         {"ribbon"}),
        (["compute", "--method", "tropical", "--genus", "1", "--mu", "2", "--nu", "2"],
         {"tropical"}),
        (["compute", "--method", "all", "--genus", "2", "--mu", "3,3", "--nu", "3,3"],
         set()),
        (["verify", "--max-d", "2", "--max-r", "6"], set()),
        (["roundtrip", "--genus", "2", "--mu", "3,1", "--nu", "2,2"], set()),
        (["roundtrip", "--genus", "0", "--mu", "2", "--nu", "2"], set()),
        (["enumerate", "--kind", "skeletons", "--m", "1", "--n", "1", "--r", "6"],
         set()),
        (["enumerate", "--kind", "hrgs", "--genus", "0", "--mu", "2", "--nu", "2"],
         set()),
        (["enumerate", "--kind", "monodromy-graphs", "--genus", "0", "--mu", "2",
          "--nu", "2"], set()),
        (["chambers", "--genus", "0", "--m", "1", "--n", "2", "--dmax", "4"],
         {"permutation", "chambers"}),
    ],
)
def test_cli_loads_only_the_pipelines_a_command_runs(argv, extra):
    """A command imports the pipelines it runs and no other; a refusal
    (r = 0 for a graph method, r = 6 for the ribbon method) exits before
    any pipeline loads, whichever command makes it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    loaded = set(json.loads(proc.stdout.splitlines()[-1]))
    assert loaded == _BASE | {f"hurwitz.{name}" for name in extra}
