"""Every third-party module imported under src/ is a declared dependency."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "dklattice"}


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
                for spec in project["dependencies"]}
    imported = _third_party_imports()
    assert {"numpy", "orjson"} <= imported
    assert imported <= declared


def test_cli_import_loads_no_exact_arithmetic_modules():
    # constant forms are dyadic float vectors, so no rational arithmetic is imported
    code = ("import sys, dklattice.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
