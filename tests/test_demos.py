"""The README library block and the demos use only the public API, and run."""

import ast
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import p1dyn

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the sha256 of each demo's stdout: every demo is deterministic, so a change to
# any output the demos print shows here
STDOUT_SHA256 = {
    "01_distances.py": "dd3dca2b3953a8d4dd9c7899b6473f1d9d99456b99edde1c3e7153613378185e",
    "02_maps_and_reduction.py": "baa868b836a9a9180e455b48c2ce19e3766755de24ca7fc5548cb8c28a4df3ed",
    "03_preperiodic_inventory.py": "5f5fac7dc0a38d9c4e22390163c86f6c2d1f5a20e4f186fadcba7bae0686279e",
    "04_count_bounds.py": "5e203a91f37770d834c03c034d96f6627d93cb2bdd0317195ddda00db773f851",
    "05_verification.py": "0ab35c6d79769da9e6467c1847bc1add972551159b16a6d51559d4b64f99a05e",
    "06_quadratic_sweep.py": "77ffbbcda882808abf8b82835be4e0925bb6a647ec4a118e48ad4173e6ccf72b",
}


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
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo]
