"""Acceptance gate: one test per required numerical guarantee.

Each test prints a single [acceptance] line and asserts the underlying
verification report, so a red line always comes with the measured values.
"""

import subprocess
import sys
import time

from dklattice.fields import load_field, random_field, save_field
from dklattice.lattice import LatticeDims
from dklattice.verify import (check_clifford, check_componentwise,
                              check_matrix_oracle, check_nilpotency,
                              check_prop1, check_prop2, check_prop3,
                              check_prop4, check_prop5, check_propagator,
                              check_spectral)

DIMS3 = LatticeDims(3, 3, 3, 3)
DIMS4 = LatticeDims(4, 4, 4, 4)


def _finish(number: int, report) -> None:
    verdict = "PASS" if report.passed else "FAIL"
    print(f"[acceptance] criterion {number:02d}: {verdict}")
    assert report.passed, "\n".join(report.lines())


def test_criterion_01_clifford_table_exact():
    # 256 products against the swap-count oracle, the three generating
    # rules, 16 anticommutators, 4096 associativity triples: zero deviation
    _finish(1, check_clifford())


def test_criterion_02_operator_equals_clifford_route():
    _finish(2, check_prop1(DIMS3, trials=100, seed=0))


def test_criterion_03_projector_identities():
    _finish(3, check_prop2())


def test_criterion_04_decomposition_reconstructs():
    _finish(4, check_prop3(DIMS3, trials=100, seed=0))


def test_criterion_05_nilpotency():
    _finish(5, check_nilpotency(DIMS3, trials=100, seed=0))


def test_criterion_06_matrix_oracle_dimension_256():
    report = check_matrix_oracle(vectors=20, seed=0)
    assert ("matrix_oracle_dimension", "256") in report.info
    _finish(6, report)


def test_criterion_07_eigen_plane_waves_solve_equation():
    _finish(7, check_spectral(DIMS4, seed=0))


def test_criterion_08_projector_parts_transfer():
    # every eigen solution at all 256 momenta, all four parts checked
    _finish(8, check_prop4(DIMS4))


def test_criterion_09_quadruple_real_even_exact():
    _finish(9, check_prop5(DIMS3, seed=0))


def test_criterion_09b_quadruple_real_mass_branch():
    # an even extent enables an eigenstate with real nonzero mass, which
    # strengthens the zero-mass constant check above
    report = check_prop5(DIMS4, seed=0)
    assert any(c.name.startswith("prop5_realmass") for c in report.checks)
    _finish(9, report)


def test_criterion_10_componentwise_difference_equations():
    _finish(10, check_componentwise(DIMS3, trials=100, seed=0))


def test_criterion_11_propagator_residual():
    _finish(11, check_propagator(DIMS3, sources=10, seed=0, mass=1.0 + 0.0j))


def test_criterion_12_cli_verify_all_under_budget(tmp_path, package_env):
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-m", "dklattice", "verify", "all",
         "--dims", "3,3,3,3", "--trials", "50"],
        capture_output=True, text=True, timeout=120, env=package_env)
    elapsed = time.monotonic() - start
    ok = result.returncode == 0 and elapsed < 60.0
    lines = result.stdout.splitlines()
    ok = ok and lines and lines[-1] == "status=pass"

    # field files survive a round trip byte for byte
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_field(random_field(DIMS3, seed=3), path_a)
    save_field(load_field(path_a), path_b)
    ok = ok and path_a.read_bytes() == path_b.read_bytes()

    print(f"[acceptance] criterion 12: {'PASS' if ok else 'FAIL'} "
          f"(exit={result.returncode}, {elapsed:.1f}s)")
    assert result.returncode == 0, result.stdout + result.stderr
    assert elapsed < 60.0, f"verify all took {elapsed:.1f}s"
    assert lines[-1] == "status=pass"
    assert path_a.read_bytes() == path_b.read_bytes()
