"""core._norm is the one norm of user data: the modules on the solve and
estimate paths call no other norm and catch no OverflowError, so a norm
that overflows where core._norm does not cannot come back. oracle and
properties are the references and are exempt. np.errstate(over="raise")
stays allowed: it turns an overflow into a typed error."""

import ast
from pathlib import Path

import pytest

import ilse

MODULES = ("core", "solver", "backward_error", "harness", "cli", "testgen")


def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _second_norms(source: str) -> list[str]:
    """Each call of numpy's or scipy's linalg.norm, import of a linalg norm,
    and handler of OverflowError in source, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _dotted(node.func).endswith("linalg.norm"):
            found.append(f"line {node.lineno}: call of {_dotted(node.func)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            if any(alias.name == "norm" for alias in node.names):
                found.append(f"line {node.lineno}: import of norm from {node.module}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(_dotted(t) == "OverflowError" for t in types):
                found.append(f"line {node.lineno}: except OverflowError")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_second_norm(module):
    path = Path(ilse.__file__).parent / f"{module}.py"
    assert _second_norms(path.read_text()) == []


def test_the_check_sees_each_form():
    source = (
        "import numpy as np\n"
        "from scipy.linalg import norm\n"
        "a = np.linalg.norm(x)\n"
        "b = numpy.linalg.norm(x, 2)\n"
        "try:\n    c = t**2\nexcept (ValueError, OverflowError):\n    pass\n"
        "with np.errstate(over='raise'):\n    d = x @ x\n"
    )
    lines = sorted(int(f.split(":")[0].split()[1]) for f in _second_norms(source))
    assert lines == [2, 3, 4, 7]
