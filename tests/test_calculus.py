"""Difference operators, equation residuals, componentwise equations."""

import tracemalloc

import numpy as np
import pytest

from dklattice import calculus
from dklattice.algebra import ConstantForm, right_mul
from dklattice.blades import (E0, E01, E012, E0123, E02, E03, E1, E12, E123,
                              E13, E2, E23, E3, GEN_SIGN, GEN_SRC, GRADES, ODD_BLADES, X)
from dklattice.calculus import (D_SIGN, DELTA_SIGN, HESTENES_EQUATION_BLADES,
                                HESTENES_SIGN, HESTENES_SRC, d_c, d_plus_delta,
                                d_plus_delta_via_clifford, delta_c, dk_apply,
                                dk_residual, hestenes_apply, hestenes_residual,
                                hestenes_residual_componentwise)
from dklattice.fields import (Equation, EquationParams, FormField, _adopt,
                              even_part, max_abs, plane_wave, random_field)
from dklattice.lattice import LatticeDims, shift

DIMS = LatticeDims(3, 3, 3, 3)
ZERO = FormField(DIMS, np.zeros(DIMS.shape + (16,)))


def test_d_raises_grade_by_one():
    f = random_field(DIMS, 0)
    for r in range(5):
        out = d_c(FormField(DIMS, f.coeffs * (GRADES == r)))
        support = np.unique(GRADES[np.any(out.coeffs != 0, axis=(0, 1, 2, 3))])
        if r < 4:
            assert set(support) <= {r + 1}
        else:
            assert support.size == 0


def test_delta_lowers_grade_by_one():
    f = random_field(DIMS, 1)
    for r in range(5):
        out = delta_c(FormField(DIMS, f.coeffs * (GRADES == r)))
        support = np.unique(GRADES[np.any(out.coeffs != 0, axis=(0, 1, 2, 3))])
        if r > 0:
            assert set(support) <= {r - 1}
        else:
            assert support.size == 0


def test_d_squared_vanishes():
    f = random_field(DIMS, 2)
    assert max_abs(d_c(d_c(f))) <= 1e-13 * max_abs(f)


def test_delta_squared_vanishes():
    f = random_field(DIMS, 3)
    assert max_abs(delta_c(delta_c(f))) <= 1e-13 * max_abs(f)


def test_d_on_scalar_plane_wave_frozen_factors():
    # Delta_mu turns exp(2 pi i p.k/N) into z_mu times the wave, with
    # z_mu = exp(2 pi i p_mu / N_mu) - 1; frozen here for p = (1,2,0,3) on 4^4.
    dims = LatticeDims(4, 4, 4, 4)
    amp = np.zeros(16, dtype=np.complex128)
    amp[X] = 1.0
    wave = plane_wave(dims, (1, 2, 0, 3), amp)
    out = d_c(wave)
    z = (complex(-1, 1), complex(-2, 0), complex(0, 0), complex(-1, -1))
    scalar = wave.coeffs[..., X]
    for mask, z_mu in zip((E0, E1, E2, E3), z):
        assert np.max(np.abs(out.coeffs[..., mask] - z_mu * scalar)) < 1e-13


def test_linearity():
    a = random_field(DIMS, 4)
    b = random_field(DIMS, 5)
    alpha = 1.5 - 0.5j
    for op in (d_c, delta_c, d_plus_delta):
        lhs = op(alpha * a + b)
        rhs = alpha * op(a) + op(b)
        assert max_abs(lhs - rhs) <= 1e-13 * (abs(alpha) * max_abs(a) + max_abs(b))


def test_stencils_match_clifford_route():
    for seed in range(20):
        f = random_field(DIMS, seed)
        dev = max_abs(d_plus_delta(f) - d_plus_delta_via_clifford(f))
        assert dev <= 1e-13 * max_abs(f)


def test_dk_apply_is_i_times_gradient():
    f = random_field(DIMS, 6)
    assert np.array_equal(dk_apply(f).coeffs, (1j * d_plus_delta(f)).coeffs)


def test_dk_residual_on_zero_mass_zero_field():
    assert max_abs(dk_residual(ZERO, EquationParams(0.0))) == 0.0


def test_dk_residual_rejects_wrong_equation():
    with pytest.raises(ValueError):
        dk_residual(ZERO, EquationParams(0.0, Equation.HESTENES))
    with pytest.raises(ValueError):
        hestenes_residual(ZERO, EquationParams(0.0))


def test_hestenes_apply_matches_right_factors():
    f = random_field(DIMS, 8)
    e1e2 = ConstantForm.e(1) * ConstantForm.e(2)
    expected = -right_mul(d_plus_delta(f), e1e2)
    assert max_abs(hestenes_apply(f) - expected) <= 1e-14 * max_abs(f)


def test_hestenes_residual_flip_sign_only_in_mass_term():
    f = even_part(random_field(DIMS, 9))
    m = 0.6 + 0.1j
    straight = hestenes_residual(f, EquationParams(m, Equation.HESTENES))
    flipped = hestenes_residual(f, EquationParams(m, Equation.HESTENES_FLIPPED))
    mass_term = 2.0 * m * right_mul(f, ConstantForm.e(0))
    assert max_abs(flipped - straight - mass_term) <= 1e-14 * max_abs(f)


def test_hestenes_residual_mass_zero_equals_flipped():
    f = even_part(random_field(DIMS, 10))
    straight = hestenes_residual(f, EquationParams(0.0, Equation.HESTENES))
    flipped = hestenes_residual(f, EquationParams(0.0, Equation.HESTENES_FLIPPED))
    assert np.array_equal(straight.coeffs, flipped.coeffs)


@pytest.mark.parametrize("equation", [Equation.HESTENES, Equation.HESTENES_FLIPPED])
def test_componentwise_packing_identity(equation):
    # the eight scalar residuals, each on its right-hand blade, equal the
    # operator-form residual right-multiplied by e0
    f = even_part(random_field(DIMS, 11))
    params = EquationParams(0.9 - 1.3j, equation)
    componentwise = hestenes_residual_componentwise(f, params)
    reference = right_mul(hestenes_residual(f, params), ConstantForm.e(0))
    assert max_abs(componentwise - reference) <= 1e-14 * max_abs(f) * 2.0


def test_componentwise_rhs_blades():
    assert HESTENES_EQUATION_BLADES == (X, E01, E02, E03, E12, E13, E23, E0123)


def test_componentwise_equation_five_by_hand():
    # Equation with right-hand blade e1 e2: the four difference terms are
    # -Delta_0 of the scalar and -Delta_j of the e0j components.
    f = even_part(random_field(DIMS, 12))
    m = 0.4 + 0.2j
    res = hestenes_residual_componentwise(f, EquationParams(m, Equation.HESTENES))
    k = (1, 2, 0, 1)
    c = f.coeffs

    def dmu(mask, mu):
        return c[shift(k, mu, DIMS)][mask] - c[k][mask]

    by_hand = (-dmu(X, 0) - dmu(E01, 1) - dmu(E02, 2) - dmu(E03, 3)
               - m * c[k][E12])
    assert abs(res.coeffs[k][E12] - by_hand) < 1e-13


def test_componentwise_warns_on_odd_content():
    f = random_field(DIMS, 13)  # generic field has odd-grade content
    with pytest.warns(UserWarning):
        hestenes_residual_componentwise(f, EquationParams(0.0, Equation.HESTENES))


def test_componentwise_is_a_field_with_plus_zero_odd_blades():
    f = even_part(random_field(DIMS, 14))
    res = hestenes_residual_componentwise(f, EquationParams(0.0, Equation.HESTENES))
    assert res.dims == DIMS and res.coeffs.shape == DIMS.shape + (16,)
    odd = res.coeffs[..., list(ODD_BLADES)]
    assert odd.tobytes() == np.zeros_like(odd).tobytes()  # +0, not -0
    assert np.all(res.coeffs[..., list(HESTENES_EQUATION_BLADES)] != 0)


def _roll_stencil(coeffs, sign, src):
    """The whole-field formula: sum over mu of sign[mu] * (t(k + e_mu) - t(k)),
    with t = coeffs[..., src[mu]] and the neighbour taken by np.roll."""
    out = np.zeros(coeffs.shape[:-1] + sign.shape[1:], dtype=np.complex128)
    for mu in range(4):
        t = coeffs[..., src[mu]]
        diff = np.roll(t, -1, axis=mu) - t
        diff *= sign[mu]
        out += diff
    return out


@pytest.mark.parametrize("shape", [(2, 3, 1, 4), (5, 4, 3, 2), (1, 4, 3, 2), (8, 8, 8, 8)])
@pytest.mark.parametrize("rows", [1, 2, 3, None])
def test_slab_stencil_equals_whole_field_formula(shape, rows, monkeypatch):
    dims = LatticeDims(*shape)
    coeffs = random_field(dims, 31).coeffs.copy()
    # exact zeros of both signs, so that the sign of a zero result counts too
    coeffs.real[..., ::3] = -0.0
    coeffs.imag[..., 1::3] = 0.0
    f = FormField(dims, coeffs)
    if rows is not None:  # else the module's own slab size
        monkeypatch.setattr(calculus, "SLAB_BYTES", rows * coeffs[0].nbytes)
        assert len(calculus.site_slabs(coeffs)) == -(-shape[0] // rows)
    for op, sign in ((d_c, D_SIGN), (delta_c, DELTA_SIGN), (d_plus_delta, GEN_SIGN)):
        assert op(f).coeffs.tobytes() == _roll_stencil(coeffs, sign, GEN_SRC).tobytes()
    even = even_part(f)
    params = EquationParams(0.75 - 0.5j, Equation.HESTENES)
    rhs = even.coeffs[..., list(HESTENES_EQUATION_BLADES)]
    lhs = _roll_stencil(even.coeffs, HESTENES_SIGN, HESTENES_SRC)
    expected = np.zeros_like(coeffs)
    expected[..., list(HESTENES_EQUATION_BLADES)] = lhs - (1.0 * params.mass) * rhs
    assert hestenes_residual_componentwise(even, params).coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 1, 4), (5, 4, 3, 2), (1, 4, 3, 2)])
@pytest.mark.parametrize("rows", [1, 2, None])
def test_d_plus_delta_written_back_in_place(shape, rows, monkeypatch):
    dims = LatticeDims(*shape)
    coeffs = random_field(dims, 34).coeffs.copy()
    coeffs.real[..., ::3] = -0.0
    expected = _roll_stencil(coeffs, GEN_SIGN, GEN_SRC)
    if rows is not None:  # else the module's own slab size
        monkeypatch.setattr(calculus, "SLAB_BYTES", rows * coeffs[0].nbytes)
    seen = []

    def store(slab, grad, spare):
        seen.append(slab)
        coeffs[slab] = grad  # over the rows the stencil has just read

    assert d_plus_delta(_adopt(dims, coeffs.view()), out=store) is None
    assert seen == calculus.site_slabs(coeffs)
    assert coeffs.tobytes() == expected.tobytes()


@pytest.mark.parametrize("slab_bytes", [None, 1])
def test_dk_residual_equals_whole_field_composition(slab_bytes, monkeypatch):
    f = random_field(LatticeDims(5, 4, 3, 2), 33)
    params = EquationParams(0.75 - 0.25j)
    expected = dk_apply(f) - params.mass * f
    if slab_bytes is not None:  # one site row per slab
        monkeypatch.setattr(calculus, "SLAB_BYTES", slab_bytes)
    assert dk_residual(f, params).coeffs.tobytes() == expected.coeffs.tobytes()


def test_d_plus_delta_peak_memory_at_8_4():
    f = random_field(LatticeDims(8, 8, 8, 8), 32)
    d_plus_delta(f)
    tracemalloc.start()
    try:
        d_plus_delta(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * f.coeffs.nbytes
