"""The paper's hand-written stencil rows, pinned as an oracle.

The package derives every operator from the blade table.  The rows below
are written out by hand, independently of that table; the derived signed
gathers must reproduce them exactly, and property tests over small
lattices check the operators against a plain loop over these rows.
"""

import cmath

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklattice.blades import (ALL_MASKS, AXES, E0, E01, E012, E0123, E013,
                              E02, E023, E03, E1, E12, E123, E13, E2, E23, E3,
                              GEN_SRC, X)
from dklattice.calculus import (D_SIGN, DELTA_SIGN, HESTENES_EQUATION_BLADES,
                                HESTENES_SIGN, HESTENES_SRC, d_c, d_plus_delta,
                                delta_c, hestenes_residual_componentwise)
from dklattice.fields import (Equation, EquationParams, even_part, max_abs,
                              plane_wave, random_field)
from dklattice.lattice import LatticeDims, delta_mu, site_iter
from dklattice.spectral import _symbol_block, build_symbol

# Rows (out_blade, sign, axis, in_blade): out[out_blade] += sign * delta_axis(in[in_blade]).
# Stencil of d_c, grouped by input grade.
D_TERMS = (
    # grade 0 -> 1
    (E0, +1, 0, X),
    (E1, +1, 1, X),
    (E2, +1, 2, X),
    (E3, +1, 3, X),
    # grade 1 -> 2
    (E01, +1, 0, E1), (E01, -1, 1, E0),
    (E02, +1, 0, E2), (E02, -1, 2, E0),
    (E03, +1, 0, E3), (E03, -1, 3, E0),
    (E12, +1, 1, E2), (E12, -1, 2, E1),
    (E13, +1, 1, E3), (E13, -1, 3, E1),
    (E23, +1, 2, E3), (E23, -1, 3, E2),
    # grade 2 -> 3
    (E012, +1, 0, E12), (E012, -1, 1, E02), (E012, +1, 2, E01),
    (E013, +1, 0, E13), (E013, -1, 1, E03), (E013, +1, 3, E01),
    (E023, +1, 0, E23), (E023, -1, 2, E03), (E023, +1, 3, E02),
    (E123, +1, 1, E23), (E123, -1, 2, E13), (E123, +1, 3, E12),
    # grade 3 -> 4; grade 4 input contributes nothing
    (E0123, +1, 0, E123), (E0123, -1, 1, E023),
    (E0123, +1, 2, E013), (E0123, -1, 3, E012),
)

# Stencil of delta_c, grouped by input grade; grade 0 input contributes nothing.
DELTA_TERMS = (
    # grade 1 -> 0
    (X, +1, 0, E0), (X, -1, 1, E1), (X, -1, 2, E2), (X, -1, 3, E3),
    # grade 2 -> 1
    (E0, +1, 1, E01), (E0, +1, 2, E02), (E0, +1, 3, E03),
    (E1, +1, 0, E01), (E1, +1, 2, E12), (E1, +1, 3, E13),
    (E2, +1, 0, E02), (E2, -1, 1, E12), (E2, +1, 3, E23),
    (E3, +1, 0, E03), (E3, -1, 1, E13), (E3, -1, 2, E23),
    # grade 3 -> 2
    (E01, -1, 2, E012), (E01, -1, 3, E013),
    (E02, +1, 1, E012), (E02, -1, 3, E023),
    (E03, +1, 1, E013), (E03, +1, 2, E023),
    (E12, +1, 0, E012), (E12, -1, 3, E123),
    (E13, +1, 0, E013), (E13, +1, 2, E123),
    (E23, +1, 0, E023), (E23, -1, 1, E123),
    # grade 4 -> 3
    (E012, +1, 3, E0123), (E013, -1, 2, E0123),
    (E023, +1, 1, E0123), (E123, +1, 0, E0123),
)

# The eight componentwise Hestenes equations for an even-grade field, one
# tuple of (sign, axis, in_blade) terms per right-hand blade
# x, e01, e02, e03, e12, e13, e23, e0123.
HESTENES_EQ_TERMS = (
    ((+1, 0, E12), (-1, 1, E02), (+1, 2, E01), (+1, 3, E0123)),
    ((+1, 2, X), (+1, 0, E02), (-1, 1, E12), (+1, 3, E23)),
    ((-1, 1, X), (-1, 0, E01), (-1, 2, E12), (-1, 3, E13)),
    ((-1, 1, E23), (+1, 2, E13), (-1, 3, E12), (-1, 0, E0123)),
    ((-1, 0, X), (-1, 1, E01), (-1, 2, E02), (-1, 3, E03)),
    ((-1, 0, E23), (+1, 2, E03), (-1, 3, E02), (-1, 1, E0123)),
    ((+1, 0, E13), (-1, 1, E03), (+1, 3, E01), (-1, 2, E0123)),
    ((+1, 3, X), (+1, 0, E03), (-1, 1, E13), (-1, 2, E23)),
)

HESTENES_ROWS = tuple((rhs, sign, axis, in_b)
                      for rhs, terms in zip(HESTENES_EQUATION_BLADES, HESTENES_EQ_TERMS)
                      for sign, axis, in_b in terms)


def _derived_rows(sign, src, out_blades):
    return [(out_blades[j], int(sign[mu, j]), mu, int(src[mu, j]))
            for mu in AXES for j in range(len(out_blades)) if sign[mu, j] != 0]


def _apply_rows(rows, coeffs, out_blades):
    out = np.zeros(coeffs.shape[:-1] + (len(out_blades),), dtype=np.complex128)
    for out_b, sign, axis, in_b in rows:
        out[..., out_blades.index(out_b)] += sign * delta_mu(coeffs[..., in_b], axis)
    return out


def test_oracle_rows_are_distinct():
    for rows in (D_TERMS, DELTA_TERMS, HESTENES_ROWS):
        assert len(set(rows)) == len(rows)
    assert (len(D_TERMS), len(DELTA_TERMS), len(HESTENES_ROWS)) == (32, 32, 32)


def test_derived_d_rows_equal_oracle():
    assert set(_derived_rows(D_SIGN, GEN_SRC, ALL_MASKS)) == set(D_TERMS)
    assert len(_derived_rows(D_SIGN, GEN_SRC, ALL_MASKS)) == len(D_TERMS)


def test_derived_delta_rows_equal_oracle():
    assert set(_derived_rows(DELTA_SIGN, GEN_SRC, ALL_MASKS)) == set(DELTA_TERMS)
    assert len(_derived_rows(DELTA_SIGN, GEN_SRC, ALL_MASKS)) == len(DELTA_TERMS)


def test_derived_hestenes_rows_equal_oracle():
    rows = _derived_rows(HESTENES_SIGN, HESTENES_SRC, HESTENES_EQUATION_BLADES)
    assert set(rows) == set(HESTENES_ROWS)
    assert len(rows) == len(HESTENES_ROWS)


def test_symbol_block_equals_oracle_assembly():
    rng = np.random.default_rng(0)
    z = tuple(complex(*rng.uniform(-2, 2, size=2)) for _ in AXES)
    expected = np.zeros((16, 16), dtype=np.complex128)
    for out_b, sign, axis, in_b in D_TERMS + DELTA_TERMS:
        expected[out_b, in_b] += sign * z[axis]
    assert np.array_equal(_symbol_block(z), expected)


EXTENTS = st.tuples(*(st.integers(1, 4) for _ in AXES))
SEEDS = st.integers(0, 2**32 - 1)
PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(EXTENTS, SEEDS)
@example((1, 1, 1, 1), 0)
@example((2, 2, 2, 2), 1)
@example((1, 2, 3, 4), 2)
def test_operators_match_oracle_stencils(extents, seed):
    dims = LatticeDims(*extents)
    f = random_field(dims, seed)
    # same differences summed in the same order, so equal to the last bit
    assert np.array_equal(d_c(f).coeffs, _apply_rows(D_TERMS, f.coeffs, ALL_MASKS))
    assert np.array_equal(delta_c(f).coeffs, _apply_rows(DELTA_TERMS, f.coeffs, ALL_MASKS))

    even = even_part(f)
    mass = 0.7 - 0.4j
    by_rows = _apply_rows(HESTENES_ROWS, even.coeffs, HESTENES_EQUATION_BLADES)
    by_rows -= mass * even.coeffs[..., list(HESTENES_EQUATION_BLADES)]
    derived = hestenes_residual_componentwise(even, EquationParams(mass, Equation.HESTENES))
    derived = derived.coeffs[..., list(HESTENES_EQUATION_BLADES)]
    assert np.max(np.abs(derived - by_rows)) <= 1e-14 * max_abs(f) * 2.0


@PROPERTY_SETTINGS
@given(EXTENTS, SEEDS)
@example((1, 1, 1, 1), 0)
@example((2, 1, 2, 1), 1)
@example((3, 4, 3, 4), 2)
def test_d_and_delta_are_nilpotent(extents, seed):
    f = random_field(LatticeDims(*extents), seed)
    assert max_abs(d_c(d_c(f))) <= 1e-13 * max_abs(f)
    assert max_abs(delta_c(delta_c(f))) <= 1e-13 * max_abs(f)


@PROPERTY_SETTINGS
@given(EXTENTS, st.tuples(*(st.integers(0, 3) for _ in AXES)), SEEDS)
@example((2, 2, 2, 2), (1, 1, 0, 0), 0)
@example((1, 3, 2, 4), (0, 2, 1, 3), 1)
def test_plane_wave_is_symbol_times_amplitude(extents, momentum, seed):
    dims = LatticeDims(*extents)
    p = tuple(c % n for c, n in zip(momentum, extents))
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-1, 1, size=16) + 1j * rng.uniform(-1, 1, size=16)
    wave = plane_wave(dims, p, amp)
    expected = plane_wave(dims, p, build_symbol(p, dims) @ amp)
    assert max_abs(d_plus_delta(wave) - expected) <= 1e-13 * max_abs(wave)


@PROPERTY_SETTINGS
@given(EXTENTS)
@example((1, 1, 1, 1))
@example((4, 4, 4, 4))
@example((2, 3, 1, 4))
def test_symbol_squares_to_scalar_at_every_momentum(extents):
    # S(p)^2 = s(p) 1 with s = z0^2 - z1^2 - z2^2 - z3^2, the identity the
    # closed-form propagator rests on
    dims = LatticeDims(*extents)
    for p in site_iter(dims):
        z = [cmath.exp(2j * cmath.pi * c / n) - 1 for c, n in zip(p, extents)]
        s = z[0] ** 2 - z[1] ** 2 - z[2] ** 2 - z[3] ** 2
        sym = build_symbol(p, dims)
        assert np.max(np.abs(sym @ sym - s * np.eye(16))) <= 1e-14
