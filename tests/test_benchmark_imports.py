"""The package names the benchmark uses, checked in the fast suite.

``benchmarks/training.py`` and ``benchmarks/projection.py`` import
``spherehead`` names at module level and read module attributes such as
``cli.main`` when they run. A rename that breaks either fails here
rather than only when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports each named benchmark module, then checks that every
# ``module.attr`` it reads on a spherehead module exists.
PROBE = """
import ast, importlib, sys, types
sys.path[:0] = sys.argv[1:3]
missing = []
for name in sys.argv[3:]:
    module = importlib.import_module(name)
    with open(module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if (isinstance(owner, types.ModuleType) and owner.__name__.startswith("spherehead")
                    and not hasattr(owner, node.attr)):
                missing.append(f"{name}: {owner.__name__}.{node.attr}")
print("\\n".join(missing))
sys.exit(1 if missing else 0)
"""


def test_benchmark_modules_import_and_find_their_names():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "src"), str(ROOT / "benchmarks"), "training", "projection"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
