"""The verification harness itself: report format and check behavior."""

import itertools
import tracemalloc

import numpy as np
import pytest

from dklattice import blades, calculus, transfer, verify
from dklattice.algebra import ConstantForm, projector, right_mul_matrix
from dklattice.calculus import dk_apply
from dklattice.fields import Equation, FormField, random_field
from dklattice.lattice import LatticeDims, site_iter
from dklattice.spectral import (SingularBlockError, build_symbol, eigen_solve,
                                propagator_solve)
from dklattice.verify import (CHECK_NAMES, PROPAGATOR_MASS_GAP, Verification,
                              check_clifford,
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


def test_unbounded_entries_report_without_deciding():
    ver = Verification()
    ver.add("alpha", 0.5, 1.0)
    ver.add("size", 1 / 3)
    ver.add("beta", 0.25, 1.0)
    ver.add("worst", float("inf"))
    ver.note("gamma", 7)
    assert ver.passed
    assert ver.lines() == ["alpha=0.5", "size=0.333333333", "beta=0.25", "worst=inf",
                           "gamma=7", "status=pass"]
    crushed = ver.scaled(0.0)
    assert [c.bound for c in crushed.checks] == [0.0, None, 0.0, None]
    assert not crushed.passed
    assert [c.name for c in crushed.checks if not c.passed] == ["alpha", "beta"]


def test_verification_extend():
    a = Verification()
    a.add("x", 0.0, 1.0)
    b = Verification()
    b.add("y", 0.0, 1.0)
    b.note("n", "v")
    a.extend(b)
    assert [c.name for c in a.checks] == ["x", "y"]
    assert a.passed


def test_rel_error_over_a_zero_scale():
    assert verify.rel_error(0.0, 0.0) == 0.0
    assert verify.rel_error(1e-300, 0.0) == float("inf")
    ver = Verification()
    ver.add("x", verify.rel_error(1e-300, 0.0), 1e-12)
    assert not ver.passed
    assert ver.lines()[0] == "x=inf"


def test_check_clifford_is_clean():
    ver = check_clifford()
    assert ver.passed
    assert all(c.value == 0 for c in ver.checks)
    names = {c.name for c in ver.checks}
    assert "clifford_oracle_mismatches" in names
    assert "clifford_associativity_violations" in names


def _loop_oracle(a: int, b: int) -> tuple:
    """The scalar, loop spelling of blade_product_oracle."""
    swaps, rest = 0, a >> 1
    while rest:
        swaps += (rest & b).bit_count()
        rest >>= 1
    sign = -1 if swaps & 1 else 1
    for mu in blades.indices(a & b):
        sign *= blades.METRIC[mu]
    return sign, a ^ b


def _loop_clifford_counts(sign) -> dict:
    """check_clifford's counts, pair by pair and triple by triple, for the
    products blade(a) * blade(b) = sign[a, b] * blade(a ^ b)."""
    masks, gens = blades.ALL_MASKS, [1 << mu for mu in blades.AXES]

    def mul(a, b):
        return sign[a, b], a ^ b

    counts = {"oracle_mismatches": sum(_loop_oracle(a, b) != mul(a, b)
                                       for a in masks for b in masks),
              "rule1_violations": sum((mul(blades.X, m) != (1, m)) + (mul(m, blades.X) != (1, m))
                                      for m in masks)}
    rule2 = anticommutator = 0
    for mu, e_mu in enumerate(gens):
        for nu, e_nu in enumerate(gens):
            (s1, m1), (s2, m2) = mul(e_mu, e_nu), mul(e_nu, e_mu)
            if mu == nu:
                rule2 += (s1, m1) != (blades.METRIC[mu], blades.X)
            else:
                rule2 += m1 != m2 or s1 != -s2
            total = {blades.X: -2 * blades.METRIC[mu] if mu == nu else 0}
            for s, m in ((s1, m1), (s2, m2)):
                total[m] = total.get(m, 0) + s
            anticommutator += any(total.values())
    counts["rule2_violations"] = rule2
    counts["rule3_violations"] = sum(mul(m, e_mu) != (1, m | e_mu)
                                     for m in masks for e_mu in gens if m < e_mu)
    counts["anticommutator_violations"] = anticommutator
    associativity = 0
    for a in masks:
        for b in masks:
            for c in masks:
                (s_ab, m_ab), (s_bc, m_bc) = mul(a, b), mul(b, c)
                (s_l, m_l), (s_r, m_r) = mul(m_ab, c), mul(a, m_bc)
                associativity += (s_ab * s_l, m_l) != (s_bc * s_r, m_r)
    counts["associativity_violations"] = associativity
    return counts


def test_array_oracle_equals_the_loop_oracle():
    a, b = np.indices((16, 16))
    sign, mask = verify.blade_product_oracle(a, b)
    for i, j in np.ndindex(16, 16):
        assert (sign[i, j], mask[i, j]) == _loop_oracle(i, j)


@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (1, 2), (2, 4), (3, 12), (6, 6), (9, 7),
                                   (15, 15)])
def test_check_clifford_counts_equal_the_loops_on_broken_tables(entry, monkeypatch):
    flipped = blades.SIGN.copy()
    flipped[entry] = -flipped[entry]
    monkeypatch.setattr(blades, "SIGN", flipped)
    counts = {c.name.removeprefix("clifford_"): c.value for c in check_clifford().checks}
    assert counts == _loop_clifford_counts(flipped)


@pytest.mark.parametrize("entry", ["sign"])
def test_check_clifford_catches_every_single_table_entry(entry, monkeypatch):
    # each of the 256 sign entries flipped, one at a time
    for a, b in np.ndindex(blades.SIGN.shape):
        sign = blades.SIGN.copy()
        sign[a, b] = -sign[a, b]
        monkeypatch.setattr(blades, "SIGN", sign)
        assert not check_clifford().passed, (entry, a, b)


def test_check_prop1():
    assert check_prop1(DIMS, trials=5).passed


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 3, 3, 3), (2, 3, 1, 4)])
def test_integer_twins_are_exact(shape):
    dims = LatticeDims(*shape)
    checks = {c.name: c for ver in (check_prop1(dims, trials=1), check_prop3(dims, trials=1),
                                    check_prop5(dims))
              for c in ver.checks}
    for name in ("prop1_integer_max_abs", "prop3_integer_max_abs",
                 "prop5_integer_route_max_abs"):
        assert checks[name].value == 0.0 and checks[name].bound == 0.0, name


def test_prop1_integer_twin_catches_a_relative_perturbation(monkeypatch):
    # a relative 1e-15 change of the Clifford route fails the exact bound of
    # the integer twin, and the float key's bound of 0 as well
    real_route = verify.d_plus_delta_via_clifford
    monkeypatch.setattr(verify, "d_plus_delta_via_clifford",
                        lambda omega: real_route(omega) * (1 + 1e-15))
    checks = {c.name: c for c in check_prop1(DIMS, trials=5).checks}
    assert not checks["prop1_max_rel_dev"].passed
    assert not checks["prop1_integer_max_abs"].passed


def test_prop1_keeps_a_nan_of_a_later_trial(monkeypatch):
    real_route = verify.d_plus_delta_via_clifford
    calls = []

    def route(omega):
        calls.append(omega)
        coeffs = real_route(omega).coeffs.copy()
        if len(calls) == 2:  # the second of three random trials
            coeffs[0, 0, 0, 0, 0] = np.nan
        return FormField(omega.dims, coeffs)

    monkeypatch.setattr(verify, "d_plus_delta_via_clifford", route)
    ver = check_prop1(DIMS, trials=3)
    assert "prop1_max_rel_dev=nan" in ver.lines()
    assert not ver.passed


def test_check_prop2():
    ver = check_prop2()
    assert ver.passed
    assert all(c.value == 0.0 for c in ver.checks)


def test_check_prop3():
    assert check_prop3(DIMS, trials=5).passed


def test_check_prop4():
    ver = check_prop4(DIMS)
    assert ver.passed
    # 75 momenta with 16 eigen solutions, 6 light-cone momenta with 8
    assert ("prop4_solutions_checked", "1248") in ver.info


def test_check_prop4_catches_swapped_part_equations(monkeypatch):
    for tag in ("++", "--"):
        monkeypatch.setitem(transfer._PART_EQUATIONS, tag, Equation.HESTENES_FLIPPED)
    for tag in ("-+", "+-"):
        monkeypatch.setitem(transfer._PART_EQUATIONS, tag, Equation.HESTENES)
    ver = check_prop4(DIMS)
    assert not ver.passed
    failed = {c.name for c in ver.checks if not c.passed}
    assert failed == {"prop4_max_rel_hestenes", "prop4_max_rel_flipped"}


def _sweep_per_momentum(dims):
    """The momentum sweep as one 16 x 16 pass per momentum, from eigen_solve
    and build_symbol: (momenta, solutions, eigen, rel_dk, rel_hestenes,
    rel_flipped)."""
    parts = {tag: right_mul_matrix(projector(tag)) for tag in transfer.DECOMPOSITION_TAGS}
    e0 = right_mul_matrix(ConstantForm.e(0))
    e12 = right_mul_matrix(ConstantForm.e(1) * ConstantForm.e(2))
    momenta = solutions = 0
    eigen = rel_dk = 0.0
    worst = {Equation.HESTENES: 0.0, Equation.HESTENES_FLIPPED: 0.0}
    for p in site_iter(dims):
        lam, amps = eigen_solve(p, dims)
        lam = lam[:, None]
        scale = np.max(np.abs(amps), axis=1)
        s_t = build_symbol(p, dims).T
        dk = 1j * (amps @ s_t) - lam * amps
        eigen = max(eigen, float(np.max(np.linalg.norm(dk, axis=1))))
        rel_dk = max(rel_dk, float(np.max(np.max(np.abs(dk), axis=1) / scale)))
        for tag, matrix in parts.items():
            equation = transfer._PART_EQUATIONS[tag]
            sign = 1.0 if equation is Equation.HESTENES else -1.0
            part = amps @ matrix
            residual = -((part @ s_t) @ e12) - sign * lam * (part @ e0)
            worst[equation] = max(worst[equation],
                                  float(np.max(np.max(np.abs(residual), axis=1) / scale)))
        momenta += 1
        solutions += len(amps)
    return (momenta, solutions, eigen, rel_dk, worst[Equation.HESTENES],
            worst[Equation.HESTENES_FLIPPED])


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (4, 4, 4, 4), (2, 3, 1, 4),
                                   (1, 2, 3, 4), (6, 6, 6, 6)])
def test_momentum_sweep_matches_the_per_momentum_loop(shape):
    dims = LatticeDims(*shape)
    sweep = verify._momentum_sweep(dims)
    momenta, solutions, *maxima = _sweep_per_momentum(dims)
    assert (sweep["momenta"], sweep["solutions"]) == (momenta, solutions)
    got = (sweep["eigen_residual"], sweep["rel_dk"], sweep["rel_hestenes"],
           sweep["rel_flipped"])
    assert all(abs(a - b) <= 1e-16 for a, b in zip(got, maxima)), (got, maxima)


def test_run_checks_all_sweeps_the_momenta_once(monkeypatch):
    calls = []
    real_sweep = verify._momentum_sweep

    def counted(dims):
        calls.append(dims)
        return real_sweep(dims)

    monkeypatch.setattr(verify, "_momentum_sweep", counted)
    info = dict(run_checks("all", DIMS, trials=1).info)
    assert calls == [DIMS]
    assert info["prop4_solutions_checked"] == "1248" and info["spectral_momenta"] == "81"
    # alone, each family still sweeps for itself
    check_prop4(DIMS)
    check_spectral(DIMS)
    assert len(calls) == 3


def test_momentum_sweep_peak_memory_at_6_4():
    dims = LatticeDims(6, 6, 6, 6)
    verify._momentum_sweep(LatticeDims(2, 2, 2, 2))
    tracemalloc.start()
    try:
        verify._momentum_sweep(dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


def test_check_prop5():
    # an odd lattice still has real-mass solutions: p = (0,0,1,2), mass sqrt(3)
    ver = check_prop5(DIMS)
    assert ver.passed
    assert any(c.name == "prop5_realmass_max_rel_residual" for c in ver.checks)
    assert ("prop5_realmass_momentum", "0,0,1,2") in ver.info
    assert ("prop5_realmass_value", "1.73205081") in ver.info


def test_check_prop5_solves_one_block(monkeypatch):
    calls = []
    real_solve = verify.eigen_solve
    monkeypatch.setattr(verify, "eigen_solve",
                        lambda p, dims: calls.append(p) or real_solve(p, dims))
    check_prop5(DIMS)
    assert calls == [(0, 0, 1, 2)]


@pytest.mark.parametrize("shape", [(3, 1, 1, 1), (1, 1, 1, 1)])
def test_check_prop5_skips_without_a_real_mass(shape):
    ver = check_prop5(LatticeDims(*shape))
    assert ver.passed
    assert ("prop5_realmass", "skipped (no real nonzero eigenvalue)") in ver.info
    assert not any(c.name.startswith("prop5_realmass") for c in ver.checks)


def test_check_prop5_real_mass_branch():
    ver = check_prop5(LatticeDims(2, 4, 2, 2))
    assert ver.passed
    assert any(k == "prop5_realmass_momentum" for k, _ in ver.info)


def test_check_nilpotency():
    ver = check_nilpotency(DIMS, trials=5)
    assert ver.passed
    exact = {c.name: c for c in ver.checks if "_integer_" in c.name}
    assert set(exact) == {"nilpotency_dd_integer_max_abs",
                          "nilpotency_deltadelta_integer_max_abs"}
    assert all(c.value == 0.0 and c.bound == 0.0 for c in exact.values())


def test_check_componentwise():
    assert check_componentwise(DIMS, trials=5).passed


def test_check_matrix_oracle():
    ver = check_matrix_oracle()
    assert ver.passed
    assert ("matrix_oracle_dimension", "256") in ver.info


@pytest.mark.parametrize("shape", [(2, 2, 2, 2), (3, 2, 1, 4)])
def test_dk_matrix_oracle_matches_operator_without_the_table(shape, monkeypatch):
    dims = LatticeDims(*shape)
    f = random_field(dims, 4)
    expected = dk_apply(f).coeffs.ravel()
    for name in ("SIGN", "GEN_SIGN", "GEN_SRC"):
        monkeypatch.setattr(blades, name, None)
    matrix = dk_matrix_oracle(dims)
    assert np.max(np.abs(matrix @ f.coeffs.ravel() - expected)) <= 1e-14


def _flip_one_stencil_sign(monkeypatch):
    real_stencil = calculus._stencil

    def flipped(coeffs, sign, src):
        sign = sign.copy()
        sign[2, 5] = -sign[2, 5]
        return real_stencil(coeffs, sign, src)

    monkeypatch.setattr(calculus, "_stencil", flipped)


def test_check_matrix_oracle_catches_a_flipped_stencil_sign(monkeypatch):
    _flip_one_stencil_sign(monkeypatch)
    assert not check_matrix_oracle().passed


def test_check_spectral():
    ver = check_spectral(DIMS)
    assert ver.passed
    assert ("spectral_momenta", "81") in ver.info


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (2, 3, 2, 4)])
def test_check_spectral_catches_a_flipped_stencil_sign(shape, monkeypatch):
    _flip_one_stencil_sign(monkeypatch)
    ver = check_spectral(LatticeDims(*shape))
    assert [c.name for c in ver.checks if not c.passed] == ["spectral_max_rel_symbol_dev"]


def test_check_propagator():
    assert check_propagator(DIMS, sources=3).passed


@pytest.mark.parametrize("shape", [(n,) * 4 for n in range(1, 13)] + [
    (2, 3, 1, 4), (6, 1, 1, 1), (12, 1, 1, 1), (3, 4, 5, 6)])
def test_check_propagator_mass_choice(shape):
    # mass 1 is a block eigenvalue at 6^4 and 12^4, so 0.5 is used there
    dims = LatticeDims(*shape)
    singular = shape in ((6,) * 4, (12,) * 4)
    if singular:
        with pytest.raises(SingularBlockError):
            propagator_solve(random_field(dims, 0), 1.0)
    ver = check_propagator(dims, sources=1)
    info = dict(ver.info)
    assert ver.passed
    assert info["propagator_mass"] == ("0.5,0" if singular else "1,0")
    assert float(info["propagator_mass_distance"]) > PROPAGATOR_MASS_GAP


def test_check_propagator_honours_an_explicit_mass(monkeypatch):
    # a mass on the spectrum with no other to try: nothing is solved
    monkeypatch.setattr(verify, "PROPAGATOR_MASSES", (1.0,))
    ver = check_propagator(LatticeDims(6, 6, 6, 6), sources=1)
    assert not ver.passed and ver.checks[0].value == float("inf")
    assert ("propagator_sources", "0") in ver.info



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


# Axis 0 is the time axis of METRIC; axes 1-3 are interchangeable, so their
# extents are taken as a multiset: 4 x 20 = 80 shapes.
SMALL_SHAPES = [(n0,) + spatial for n0 in range(1, 5)
                for spatial in itertools.combinations_with_replacement(range(1, 5), 3)]


def test_every_small_shape_keeps_every_bound():
    assert len(SMALL_SHAPES) == 80
    over = {}
    for shape in SMALL_SHAPES:
        failed = [c.name for c in run_checks("all", LatticeDims(*shape), trials=2).checks
                  if not c.passed]
        if failed:
            over[shape] = failed
    assert not over
