"""Packaging: every third-party module imported under src/ is a declared
dependency, and the package root binds what the README and perfbench use."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dklattice

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


def _loaded_by_verify_and_gen(tmp_path, names: set) -> str:
    """Which of names a fresh process has loaded after `verify all` at 2^4
    and `gen random`, as the printed sorted list."""
    code = ("import contextlib, io, sys; from dklattice.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', 'all', '--dims', '2,2,2,2', '--trials', '1']) == 0\n"
            "    assert main(['gen', 'random', '--dims', '2,2,2,2', '-o', 'r.json']) == 0\n"
            f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert (tmp_path / "r.json").exists()
    return out.stdout.strip()


def test_random_draws_load_no_numpy_random_or_openssl(tmp_path):
    # the random fields come from SplitMix64 on uint64 arrays, so neither
    # verify nor gen random imports numpy.random and its secrets and hashlib
    assert _loaded_by_verify_and_gen(tmp_path, {"numpy.random", "secrets", "_hashlib"}) == "[]"


def test_verify_and_gen_load_no_json_csv_or_signal(tmp_path):
    # json parses only fields off the orjson path, csv writes only the
    # spectrum and signal only kills a codec child on a failed save or load
    assert _loaded_by_verify_and_gen(tmp_path, {"json", "csv", "signal"}) == "[]"


ROOT_NAMES = {"LatticeDims", "EquationParams", "dk_residual", "eigen_solve", "plane_wave",
              "max_abs", "build_symbol", "load_field", "random_field"}
SUBMODULES = ("blades", "lattice", "fields", "algebra", "calculus", "spectral", "transfer",
              "verify")


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    eigenvalue, residual = capsys.readouterr().out.split()
    assert eigenvalue == "(2+0j)"
    assert float(residual) <= 1e-15


def test_package_root_binds_documented_names_and_submodules():
    from dklattice import (EquationParams, LatticeDims, dk_residual,  # noqa: F401
                           load_field, max_abs, random_field)
    for name in SUBMODULES:
        assert isinstance(getattr(dklattice, name), types.ModuleType), name
    public = {name for name, value in vars(dklattice).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    assert dklattice.__version__
