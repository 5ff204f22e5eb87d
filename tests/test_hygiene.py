"""Source hygiene checks over the p1dyn package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import p1dyn

SRC = Path(p1dyn.__file__).resolve().parent


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            unused[path.name] = names
    assert unused == {}


def _modules_after_importing_the_cli(*flags: str) -> set[str]:
    """sys.modules of a fresh interpreter, started with ``flags``, once p1dyn.cli is imported."""
    probe = "import sys, p1dyn.cli; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "p1dyn.cli" in loaded
    return loaded


def test_importing_the_cli_loads_no_process_machinery():
    # only batch --jobs forks, and it needs none of these: the CLI starts without them
    loaded = _modules_after_importing_the_cli()
    assert loaded & {"concurrent", "multiprocessing", "subprocess", "socket", "pickle"} == set()


def test_importing_the_cli_loads_no_dataclasses_or_typing():
    # records are slotted classes, so nothing generates code at import; -S keeps
    # site and its .pth hooks, which may load typing themselves, out of the probe
    loaded = _modules_after_importing_the_cli("-S")
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} == set()


def _names_used(node) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def test_every_private_helper_is_referenced():
    # a private top-level function or class that only its own body names is dead
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    orphans = []
    for name, node in statements:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in _names_used(other)
                       for _, other in statements if other is not node):
                orphans.append(f"{name}: {node.name}")
    assert orphans == []


# the exact math functions, and math.inf, the sentinel behind INFINITE_DISTANCE
_EXACT_MATH = {"gcd", "lcm", "isqrt", "inf"}


def _float_arithmetic(tree: ast.Module) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r} (line {node.lineno})")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"true division (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"float() (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in _EXACT_MATH):
            found.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"math.{alias.name} (line {node.lineno})"
                         for alias in node.names if alias.name not in _EXACT_MATH)
    return found


def test_no_float_arithmetic():
    probe = "x = 1.0 / float(y)\nx /= math.log(2)\nfrom math import sqrt"
    assert len(_float_arithmetic(ast.parse(probe))) == 6
    found = {}
    for path in sorted(SRC.glob("*.py")):
        hits = _float_arithmetic(ast.parse(path.read_text(), filename=str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}
