"""The README library block and the demos use only the public API, and run."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import p1dyn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _p1dyn_imports(source: str) -> set[str]:
    return {alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "p1dyn"
            for alias in node.names}


def test_readme_and_demos_import_only_public_names():
    readme = (ROOT / "README.md").read_text()
    sources = re.findall(r"```python\n(.*?)```", readme, re.S)
    sources += [path.read_text() for path in DEMOS]
    names = set().union(*map(_p1dyn_imports, sources))
    assert names and names <= set(p1dyn.__all__)


@pytest.mark.parametrize("demo", [p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
