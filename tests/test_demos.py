"""The demos import only names that ilse still provides (checked without
running them)."""

import ast
import importlib
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_every_ilse_name_a_demo_imports_resolves():
    assert DEMOS
    missing = []
    for path in DEMOS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ilse":
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names if not hasattr(module, alias.name)
                ]
    assert not missing
