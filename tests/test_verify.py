"""The verification harness itself: report format and check behavior."""

import numpy as np
import pytest

from dklattice import blades, calculus
from dklattice.calculus import dk_apply
from dklattice.fields import random_field
from dklattice.lattice import LatticeDims
from dklattice.verify import (CHECK_NAMES, Verification, check_clifford,
                              check_componentwise, check_constants,
                              check_matrix_oracle, check_nilpotency,
                              check_prop1, check_prop2, check_prop3,
                              check_prop4, check_prop5, check_propagator,
                              check_spectral, dk_matrix_oracle, run_checks)

DIMS = LatticeDims(3, 3, 3, 3)


def test_verification_report_shape():
    ver = Verification()
    ver.add("alpha", 0.5, 1.0)
    ver.add("beta", 2.0, 1.0)
    ver.note("gamma", 7)
    assert not ver.passed
    lines = ver.lines()
    assert lines[0] == "alpha=0.5"
    assert lines[1] == "beta=2"
    assert lines[2] == "gamma=7"
    assert lines[-1] == "status=fail"


def test_verification_scaled_bounds():
    ver = Verification()
    ver.add("alpha", 2.0, 1.0)
    assert not ver.passed
    assert ver.scaled(3.0).passed
    assert not ver.scaled(0.5).passed


def test_verification_extend():
    a = Verification()
    a.add("x", 0.0, 1.0)
    b = Verification()
    b.add("y", 0.0, 1.0)
    b.note("n", "v")
    a.extend(b)
    assert [c.name for c in a.checks] == ["x", "y"]
    assert a.passed


def test_check_clifford_is_clean():
    ver = check_clifford()
    assert ver.passed
    assert all(c.value == 0 for c in ver.checks)
    names = {c.name for c in ver.checks}
    assert "clifford_oracle_mismatches" in names
    assert "clifford_associativity_violations" in names


def test_check_prop1():
    assert check_prop1(DIMS, trials=5).passed


def test_check_prop2():
    ver = check_prop2()
    assert ver.passed
    assert all(c.value == 0.0 for c in ver.checks)


def test_check_prop3():
    assert check_prop3(DIMS, trials=5).passed


def test_check_prop4():
    assert check_prop4(DIMS, momenta=3).passed


def test_check_prop5():
    ver = check_prop5(DIMS)
    assert ver.passed
    assert ("prop5_realmass", "skipped (no even spatial extent)") in ver.info


def test_check_prop5_real_mass_branch():
    ver = check_prop5(LatticeDims(2, 4, 2, 2))
    assert ver.passed
    assert any(k == "prop5_realmass_momentum" for k, _ in ver.info)


def test_check_nilpotency():
    assert check_nilpotency(DIMS, trials=5).passed


def test_check_componentwise():
    assert check_componentwise(DIMS, trials=5).passed


def test_check_matrix_oracle():
    ver = check_matrix_oracle(vectors=5)
    assert ver.passed
    assert ("matrix_oracle_dimension", "256") in ver.info


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 1, 4)])
def test_dk_matrix_oracle_matches_operator_without_the_table(shape, monkeypatch):
    dims = LatticeDims(*shape)
    f = random_field(dims, 4)
    expected = dk_apply(f).coeffs.ravel()
    for name in ("TABLE", "GEN_SIGN", "GEN_SRC"):
        monkeypatch.setattr(blades, name, None)
    matrix = dk_matrix_oracle(dims)
    assert np.max(np.abs(matrix @ f.coeffs.ravel() - expected)) <= 1e-14


def test_check_matrix_oracle_catches_a_flipped_stencil_sign(monkeypatch):
    real_stencil = calculus._stencil

    def flipped(coeffs, sign, src):
        sign = sign.copy()
        sign[2, 5] = -sign[2, 5]
        return real_stencil(coeffs, sign, src)

    monkeypatch.setattr(calculus, "_stencil", flipped)
    assert not check_matrix_oracle(vectors=2).passed


def test_check_spectral():
    assert check_spectral(DIMS, momenta=3).passed


def test_check_propagator():
    assert check_propagator(DIMS, sources=3).passed


def test_check_constants():
    assert check_constants(DIMS).passed


def test_run_checks_single():
    ver = run_checks("2", DIMS, trials=5)
    assert ver.passed
    assert ver.lines()[-1] == "status=pass"


def test_run_checks_rejects_unknown():
    with pytest.raises(ValueError):
        run_checks("bogus", DIMS)


def test_check_names_cover_run_table():
    for name in CHECK_NAMES:
        assert name != "all"
    assert set(CHECK_NAMES) == {"clifford", "1", "2", "3", "4", "5",
                                "nilpotency", "componentwise", "matrix",
                                "spectral", "propagator"}
