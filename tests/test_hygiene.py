"""Source hygiene checks over the p1dyn package."""

import ast
import importlib
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


def _modules_after_importing_the_cli(*flags: str, then: str = "pass") -> set[str]:
    """sys.modules of a fresh interpreter, started with ``flags``, once p1dyn.cli is
    imported and the statement ``then`` has run after it."""
    probe = f"import sys, p1dyn.cli; {then}; print(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, *flags, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.splitlines()[-1].split())
    assert "p1dyn.cli" in loaded
    return loaded


def test_importing_the_cli_loads_no_process_machinery():
    # no command starts a process, so the CLI starts without any of these
    loaded = _modules_after_importing_the_cli()
    assert loaded & {"concurrent", "multiprocessing", "subprocess", "socket", "pickle"} == set()


def test_importing_the_cli_loads_no_dataclasses_or_typing():
    # records are slotted classes whose constructors Record writes itself; -S keeps
    # site and its .pth hooks, which may load typing themselves, out of the probe
    loaded = _modules_after_importing_the_cli("-S")
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"} == set()


def test_a_cli_call_loads_no_argparse_gettext_or_locale():
    # argv is read against the CLI's own command table, so no call pays for these
    loaded = _modules_after_importing_the_cli(
        then="p1dyn.cli.main(['bounds', '--d', '2', '--s', '1'])")
    assert loaded & {"argparse", "gettext", "locale"} == set()


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
    statements = [(path.name, node, _names_used(node)) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(), filename=str(path)).body]
    orphans = []
    for name, node, _ in statements:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in used for _, other, used in statements if other is not node):
                orphans.append(f"{name}: {node.name}")
    assert orphans == []


def _public_members(tree: ast.Module) -> list[str]:
    """Class.name of every public method or property defined in a class body."""
    return [f"{node.name}.{item.name}" for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def test_every_public_method_or_property_is_read():
    # a method or property that no code reads as an attribute is dead
    probe = "class A:\n    def m(self): pass\n    def _h(self): pass\n    def __eq__(self, o): pass"
    assert _public_members(ast.parse(probe)) == ["A.m"]
    root = SRC.parent.parent
    files = [*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "demos").glob("*.py")]
    read = set()
    for path in files:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, ast.Attribute))
    members = [m for path in sorted(SRC.glob("*.py"))
               for m in _public_members(ast.parse(path.read_text(), filename=str(path)))]
    assert members
    assert [m for m in members if m.split(".")[1] not in read] == []


def _store_only_inits(tree: ast.Module) -> list[str]:
    """Record subclasses whose __init__ only runs _set(self, "f", f) statements."""
    def stores_its_argument(stmt) -> bool:
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_set" and len(call.args) == 3
                and isinstance(call.args[1], ast.Constant) and isinstance(call.args[2], ast.Name)
                and call.args[2].id == call.args[1].value)

    return [f"{node.name} (line {item.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            and all(map(stores_its_argument, item.body))]


def test_no_record_writes_a_constructor_that_only_stores_its_arguments():
    # Record generates that constructor from __slots__ and _defaults
    probe = ("class A(Record):\n    def __init__(self, x, y=0):\n        _set(self, 'x', x)\n"
             "        _set(self, 'y', y)\n"
             "class B(Record):\n    def __init__(self, x):\n        _set(self, 'x', abs(x))\n"
             "class C:\n    def __init__(self, x):\n        _set(self, 'x', x)\n")
    assert [hit.split()[0] for hit in _store_only_inits(ast.parse(probe))] == ["A"]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        hits = _store_only_inits(ast.parse(path.read_text(), filename=str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


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


def _fraction_imports(tree: ast.Module) -> list[str]:
    """Lines that import the fractions module or a name from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append(f"from {node.module} (line {node.lineno})")
    return found


def test_the_map_building_path_imports_no_fractions():
    # maps are read, built, swept and walked from integer coefficients only
    probe = "import fractions\nfrom fractions import Fraction\nimport fractions as fr\nimport math"
    assert len(_fraction_imports(ast.parse(probe))) == 3
    found = {}
    for name in ("mapparse", "ratmap", "orbits", "cli"):
        path = SRC / f"{name}.py"
        hits = _fraction_imports(ast.parse(path.read_text(), filename=str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """Definitions decorated with functools.cache or with lru_cache(maxsize=None)."""
    found = []
    for node in ast.walk(tree):
        for dec in getattr(node, "decorator_list", ()):
            call = dec if isinstance(dec, ast.Call) else None
            func = call.func if call else dec
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            sizes = [*call.args[:1], *(kw.value for kw in call.keywords
                                       if kw.arg == "maxsize")] if call else []
            unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
            if name == "cache" or (name == "lru_cache" and unbounded):
                found.append(f"{node.name} (line {node.lineno})")
    return found


def test_every_cache_is_bounded():
    # a cache without a bound keeps every key it has seen for the life of the process
    probe = ("@functools.cache\ndef a(): pass\n@cache\ndef b(): pass\n"
             "@lru_cache(maxsize=None)\ndef c(): pass\n@functools.lru_cache(None)\n"
             "def d(): pass\n@lru_cache(maxsize=8)\ndef e(): pass\n@lru_cache\ndef f(): pass")
    assert [hit.split()[0] for hit in _unbounded_caches(ast.parse(probe))] == list("abcd")
    found = {}
    for path in sorted(SRC.glob("*.py")):
        hits = _unbounded_caches(ast.parse(path.read_text(), filename=str(path)))
        if hits:
            found[path.name] = hits
    assert found == {}


def test_every_name_the_benchmark_takes_from_p1dyn_exists():
    # perfbench/worker.py wraps TRACED_FUNCTIONS by name and imports the replay's
    # functions, but only a traced or replayed run executes either
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    tree = ast.parse(worker.read_text(), filename=str(worker))
    wanted = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and any(isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS"
                        for t in node.targets)):
            for key, names in zip(node.value.keys, node.value.values):
                wanted.update((f"p1dyn.{key.value}", n.value) for n in names.elts)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("p1dyn."):
            wanted.update((node.module, alias.name) for alias in node.names)
    assert ("p1dyn.bounds", "aggregate_bounds") in wanted
    missing = [f"{module}.{name}" for module, name in sorted(wanted)
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
