"""Projector decomposition, companion fields, quadruple construction."""

import numpy as np
import pytest

from dklattice import algebra
from dklattice.algebra import ConstantForm, projector, right_mul
from dklattice.blades import ODD_BLADES
from dklattice.calculus import d_plus_delta, hestenes_residual
from dklattice.fields import (Equation, EquationParams, FormField, constant_field,
                              even_part, max_abs, plane_wave, random_field)
from dklattice.lattice import LatticeDims
from dklattice.spectral import eigen_solve
from dklattice.transfer import (DECOMPOSITION_TAGS, decompose,
                                hestenes_quadruple, omega_pm, sum_parts,
                                verify_prop4, verify_quadruple_independence)
from dklattice.verify import _integer_field

DIMS = LatticeDims(3, 3, 3, 3)
ZERO = FormField(DIMS, np.zeros(DIMS.shape + (16,)))
DIMS4 = LatticeDims(4, 4, 4, 4)


def test_decompose_unit_gives_projector_fields():
    result = decompose(ConstantForm.unit().as_field(DIMS))
    for tag, part in result.items():
        assert np.array_equal(part.coeffs, projector(tag).as_field(DIMS).coeffs), tag


def test_decompose_tags_and_order():
    assert DECOMPOSITION_TAGS == ("++", "-+", "+-", "--")
    result = decompose(random_field(DIMS, 0))
    assert list(result) == list(DECOMPOSITION_TAGS)


def test_decompose_reconstructs():
    f = random_field(DIMS, 1)
    assert max_abs(sum_parts(decompose(f)) - f) <= 1e-14 * max_abs(f)


def test_field_level_idempotence():
    f = random_field(DIMS, 2)
    for tag in DECOMPOSITION_TAGS:
        p = projector(tag)
        once = right_mul(f, p)
        twice = right_mul(once, p)
        assert max_abs(twice - once) <= 1e-14 * max_abs(f), tag


def test_operator_commutes_with_constant_right_factor():
    # the difference operators act on the position index, the constant
    # factor on the blade index, so the order cannot matter
    f = random_field(DIMS, 3)
    c = projector("++") + ConstantForm.e(3).scaled(2 - 1j)
    lhs = d_plus_delta(right_mul(f, c))
    rhs = right_mul(d_plus_delta(f), c)
    assert max_abs(lhs - rhs) <= 1e-13 * max_abs(f)


def test_omega_pm_is_real():
    f = random_field(DIMS, 4)
    plus = omega_pm(f, "+")
    minus = omega_pm(f, "-")
    assert np.max(np.abs(plus.coeffs.imag)) == 0.0
    assert np.array_equal(minus.coeffs, (-plus).coeffs)


def test_omega_pm_validates_sign():
    with pytest.raises(ValueError):
        omega_pm(ZERO, "x")


def test_omega_pm_of_real_field():
    f = FormField(DIMS, random_field(DIMS, 5).coeffs.real.astype(np.complex128))
    plus = omega_pm(f, "+")
    assert np.array_equal(plus.coeffs, right_mul(f, ConstantForm.e(0)).coeffs)


def test_projector_parts_factor_through_companions():
    # omega P++ equals omega_plus P++, and omega P-- equals omega_minus P--
    f = random_field(DIMS, 6)
    scale = max_abs(f)
    lhs = right_mul(f, projector("++"))
    rhs = right_mul(omega_pm(f, "+"), projector("++"))
    assert max_abs(lhs - rhs) <= 1e-14 * scale
    lhs = right_mul(f, projector("--"))
    rhs = right_mul(omega_pm(f, "-"), projector("--"))
    assert max_abs(lhs - rhs) <= 1e-14 * scale


def test_quadruple_members_real_and_even():
    members, _ = hestenes_quadruple(random_field(DIMS, 7))
    for q in members:
        assert np.max(np.abs(q.coeffs.imag)) <= 0.0
        assert np.max(np.abs(q.coeffs[..., list(ODD_BLADES)])) <= 0.0


def test_quadruple_of_real_even_field():
    f = even_part(FormField(DIMS, random_field(DIMS, 8).coeffs.real.astype(np.complex128)))
    (omega1, omega2, _, _), _ = hestenes_quadruple(f)
    assert max_abs(omega1) == 0.0
    assert np.array_equal(omega2.coeffs, f.coeffs)


def test_quadruple_routes_agree():
    _, route_deviation = hestenes_quadruple(random_field(DIMS, 9))
    assert route_deviation <= 1e-14 * max_abs(random_field(DIMS, 9))


def test_quadruple_route_tolerance_enforced():
    f = random_field(DIMS, 10)
    # both constructions use only exact sign flips and halvings, so they
    # agree bit for bit
    assert hestenes_quadruple(f)[1] == 0.0


def test_quadruple_constant_mass_zero():
    rng = np.random.default_rng(12)
    amp = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
    omega = constant_field(DIMS, amp)
    members, _ = hestenes_quadruple(omega)
    params = EquationParams(0.0, Equation.HESTENES)
    for q in members:
        assert np.max(np.abs(q.coeffs.imag)) <= 0.0
        assert np.max(np.abs(q.coeffs[..., list(ODD_BLADES)])) <= 0.0
        # constants are annihilated by the difference operators
        assert max_abs(hestenes_residual(q, params)) == 0.0
    rank, _, _ = verify_quadruple_independence(members)
    assert rank == 4


def test_quadruple_solves_hestenes_at_real_mass():
    # eigen solution at p = (0,2,0,0) has real mass 2; all four members
    # must then solve the Hestenes equation individually
    values, amps = eigen_solve((0, 2, 0, 0), DIMS4)
    assert abs(values[15] - 2.0) < 1e-12
    omega = plane_wave(DIMS4, (0, 2, 0, 0), amps[15])
    members, _ = hestenes_quadruple(omega)
    params = EquationParams(2.0, Equation.HESTENES)
    scale = max_abs(omega)
    for q in members:
        assert max_abs(hestenes_residual(q, params)) <= 1e-12 * scale


def test_verify_prop4_on_eigen_solution():
    values, amps = eigen_solve((1, 2, 0, 3), DIMS)
    omega, mass = plane_wave(DIMS, (1, 2, 0, 3), amps[3]), values[3]
    residuals = verify_prop4(omega, mass)
    scale = max_abs(omega)
    assert list(residuals) == ["dk", *DECOMPOSITION_TAGS]
    for key, value in residuals.items():
        assert value <= 1e-12 * scale, key


def test_verify_prop4_flags_non_solution():
    omega = random_field(DIMS, 11)
    assert verify_prop4(omega, 1.0)["dk"] > 1e-12 * max_abs(omega)


def test_projector_parts_solve_their_equations():
    values, amps = eigen_solve((2, 1, 1, 0), DIMS)
    omega, mass = plane_wave(DIMS, (2, 1, 1, 0), amps[5]), values[5]
    scale = max_abs(omega)
    parts = decompose(omega)
    for tag, equation in (("++", Equation.HESTENES), ("--", Equation.HESTENES),
                          ("-+", Equation.HESTENES_FLIPPED),
                          ("+-", Equation.HESTENES_FLIPPED)):
        res = hestenes_residual(parts[tag], EquationParams(mass, equation))
        assert max_abs(res) <= 1e-12 * scale, tag


def test_independence_rank_zero_for_zero_field():
    members, _ = hestenes_quadruple(ZERO)
    rank, singular_values, threshold = verify_quadruple_independence(members)
    assert rank == 0
    assert singular_values == (0.0, 0.0, 0.0, 0.0)
    assert threshold == 0.0


def test_independence_detects_collapse():
    # a real even field gives omega1 = 0, so at most three independent rows
    f = even_part(FormField(DIMS, random_field(DIMS, 13).coeffs.real.astype(np.complex128)))
    rank, _, _ = verify_quadruple_independence(hestenes_quadruple(f)[0])
    assert rank <= 3


def test_import_time_blade_constants_equal_their_products():
    # built from blades.SIGN at import, bit-equal to the Clifford products
    e0, e1, e2 = (ConstantForm.e(mu) for mu in (0, 1, 2))
    for constant, product in ((algebra.E12, e1 * e2), (algebra.E012, e0 * (e1 * e2)),
                              (algebra.E0, e0)):
        assert constant.vector.tobytes() == product.vector.tobytes()


def _omega_pm_definition(omega: FormField, sign: str) -> FormField:
    """The oracle: s/2 (omega + conj omega) e0 + s i/2 (omega - conj omega) e1 e2,
    with e1 e2 as the product of the generators."""
    s = 1.0 if sign == "+" else -1.0
    e0, e1e2 = ConstantForm.e(0), ConstantForm.e(1) * ConstantForm.e(2)
    conj = FormField(omega.dims, np.conj(omega.coeffs))
    term0 = 0.5 * right_mul(omega + conj, e0)
    term12 = 0.5j * right_mul(omega - conj, e1e2)
    return s * (term0 + term12)


def _definition_inputs():
    dims = LatticeDims(6, 5, 4, 3)
    amplitude = np.arange(16) * (0.25 - 0.5j) - 1.5
    yield "random", random_field(dims, 2)
    yield "gaussian-integer", _integer_field(DIMS4, 3)
    yield "plane-wave", plane_wave(dims, (1, 2, 0, 1), amplitude)
    eigen = eigen_solve((0, 2, 0, 0), DIMS4)[1][15]  # real mass 2
    yield "eigen-plane-wave", plane_wave(DIMS4, (0, 2, 0, 0), eigen)
    yield "constant", constant_field(DIMS, amplitude)
    yield "negative-zero", constant_field(DIMS, np.full(16, complex(-0.0, -0.0)))


@pytest.mark.parametrize("name, omega", list(_definition_inputs()))
def test_companion_and_quadruple_bit_equal_to_definition(name, omega):
    # zero signs included: the files the quadruple writes keep their bytes
    plus = _omega_pm_definition(omega, "+")
    for sign in "+-":
        assert omega_pm(omega, sign).coeffs.tobytes() == \
            _omega_pm_definition(omega, sign).coeffs.tobytes(), sign
    e0, e1e2 = ConstantForm.e(0), ConstantForm.e(1) * ConstantForm.e(2)
    members = (even_part(plus),) + tuple(even_part(right_mul(plus, c))
                                         for c in (e0, e1e2, e0 * e1e2))
    quad, route_deviation = hestenes_quadruple(omega)
    assert len(quad) == 4
    for i, (member, expected) in enumerate(zip(quad, members), start=1):
        assert member.coeffs.tobytes() == expected.coeffs.tobytes(), f"q{i}"
    if name == "gaussian-integer":
        assert route_deviation == 0.0
