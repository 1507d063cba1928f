"""Blade product table, constant forms, projectors, field-level products."""

from fractions import Fraction

import numpy as np
import pytest

from dklattice import blades
from dklattice.algebra import (DYADIC_BITS, ConstantForm, PROJECTOR_TAGS, clifford_mul,
                               is_constant, left_mul, projector, right_mul)
from dklattice.blades import (ALL_MASKS, TABLE, E0, E01, E012, E0123, E02,
                              E03, E1, E12, E123, E13, E2, E23, E3, X,
                              blade_name, grade, reduce_product)
from dklattice.fields import FormField, constant_field, max_abs, random_field
from dklattice.lattice import LatticeDims
from dklattice.verify import blade_product_oracle

DIMS = LatticeDims(3, 3, 3, 3)

# Hand-derived anchor products.  Signs follow from moving generators past
# each other (one flip per transposition) and contracting e_mu e_mu to
# g_mu_mu, with metric +,-,-,-.
HAND_PRODUCTS = [
    (X, X, 1, X),
    (X, E13, 1, E13),
    (E0, E0, 1, X),
    (E1, E1, -1, X),
    (E2, E2, -1, X),
    (E3, E3, -1, X),
    (E1, E2, 1, E12),
    (E2, E1, -1, E12),
    (E0, E12, 1, E012),
    (E12, E0, 1, E012),
    (E12, E12, -1, X),      # e1 e2 e1 e2 = -e1 e1 e2 e2 = -(-1)(-1)
    (E01, E01, 1, X),       # e0 e1 e0 e1 = -e0 e0 e1 e1 = -(+1)(-1)
    (E0123, E0123, -1, X),
    (E012, E3, 1, E0123),
    (E3, E012, -1, E0123),
    (E123, E123, 1, X),
    (E01, E23, 1, E0123),
]


@pytest.mark.parametrize("a, b, sign, result", HAND_PRODUCTS)
def test_hand_products(a, b, sign, result):
    assert TABLE.mul_masks(a, b) == (sign, result)


@pytest.mark.parametrize("a, b, sign, result", HAND_PRODUCTS)
def test_oracle_matches_hand_products(a, b, sign, result):
    assert blade_product_oracle(a, b) == (sign, result)


def test_table_matches_oracle_exhaustively():
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            assert TABLE.mul_masks(a, b) == blade_product_oracle(a, b)


def test_field_products_match_oracle_exhaustively():
    # every product route on fields, for all 256 blade pairs, against the
    # transposition-counting oracle: a signed permutation with no rounding
    dims = LatticeDims(2, 1, 1, 1)
    for a in ALL_MASKS:
        field_a = ConstantForm.blade(a).as_field(dims)
        for b in ALL_MASKS:
            field_b = ConstantForm.blade(b).as_field(dims)
            sign, mask = blade_product_oracle(a, b)
            expected = np.zeros(dims.shape + (16,), dtype=np.complex128)
            expected[..., mask] = sign
            for product in (right_mul(field_a, ConstantForm.blade(b)),
                            left_mul(ConstantForm.blade(a), field_b),
                            clifford_mul(field_a, field_b)):
                assert np.array_equal(product.coeffs, expected), (a, b)


def test_associativity_exhaustive():
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            s_ab, m_ab = TABLE.mul_masks(a, b)
            for c in ALL_MASKS:
                s_l, m_l = TABLE.mul_masks(m_ab, c)
                s_bc, m_bc = TABLE.mul_masks(b, c)
                s_r, m_r = TABLE.mul_masks(a, m_bc)
                assert (s_ab * s_l, m_l) == (s_bc * s_r, m_r)


def test_reduce_product_examples():
    assert reduce_product(()) == (1, ())
    assert reduce_product((2, 1)) == (-1, (1, 2))
    assert reduce_product((0, 0)) == (1, ())
    assert reduce_product((1, 1)) == (-1, ())
    assert reduce_product((1, 2, 1, 2)) == (-1, ())
    assert reduce_product((3, 2, 1, 0)) == (1, (0, 1, 2, 3))  # 6 swaps


def test_blade_names():
    assert blade_name(X) == "x"
    assert blade_name(E0) == "e0"
    assert blade_name(E13) == "e13"
    assert blade_name(E0123) == "e0123"


def test_grades():
    assert [grade(m) for m in (X, E2, E03, E123, E0123)] == [0, 1, 2, 3, 4]


def test_product_grade_support():
    # |r - s| and r + s bound the grades a blade product can reach
    for a in ALL_MASKS:
        for b in ALL_MASKS:
            _, m = TABLE.mul_masks(a, b)
            lo, hi = abs(grade(a) - grade(b)), grade(a) + grade(b)
            assert lo <= grade(m) <= min(hi, 4)
            assert grade(m) % 2 == (grade(a) + grade(b)) % 2


def test_worked_one_form_product():
    # u = 2 e0 + 3 e1 + 5 e2 + 7 e3 against v = 11 e0 + 13 e1 + 17 e2 + 19 e3:
    # scalar part u.v uses the metric, bivector part is antisymmetric
    u = np.zeros(16, dtype=np.complex128)
    v = np.zeros(16, dtype=np.complex128)
    u[[E0, E1, E2, E3]] = (2, 3, 5, 7)
    v[[E0, E1, E2, E3]] = (11, 13, 17, 19)
    expected = np.zeros(16, dtype=np.complex128)
    expected[X] = -235
    expected[[E01, E02, E03]] = (-7, -21, -39)
    expected[[E12, E13, E23]] = (-14, -34, -24)

    product = clifford_mul(constant_field(DIMS, u), constant_field(DIMS, v))
    assert np.max(np.abs(product.coeffs - expected)) < 1e-12

    zero = ConstantForm(np.zeros(16))
    uf = sum((ConstantForm.e(mu).scaled(c) for mu, c in enumerate((2, 3, 5, 7))), zero)
    vf = sum((ConstantForm.e(mu).scaled(c) for mu, c in enumerate((11, 13, 17, 19))), zero)
    assert np.array_equal((uf * vf).vector, expected)


def test_clifford_mul_random_associative():
    a = random_field(DIMS, 1)
    b = random_field(DIMS, 2)
    c = random_field(DIMS, 3)
    lhs = clifford_mul(clifford_mul(a, b), c)
    rhs = clifford_mul(a, clifford_mul(b, c))
    scale = max_abs(a) * max_abs(b) * max_abs(c)
    assert max_abs(lhs - rhs) <= 1e-13 * scale


def test_clifford_mul_unit_identity():
    a = random_field(DIMS, 4)
    one = ConstantForm.unit().as_field(DIMS)
    assert max_abs(clifford_mul(one, a) - a) == 0.0
    assert max_abs(clifford_mul(a, one) - a) == 0.0


def test_clifford_mul_conjugate_distributes():
    from dklattice.fields import conjugate
    a = random_field(DIMS, 5)
    b = random_field(DIMS, 6)
    lhs = conjugate(clifford_mul(a, b))
    rhs = clifford_mul(conjugate(a), conjugate(b))
    assert max_abs(lhs - rhs) <= 1e-13 * max_abs(a) * max_abs(b)


def test_clifford_mul_rejects_dim_mismatch():
    a = random_field(DIMS, 7)
    b = random_field(LatticeDims(2, 2, 2, 2), 7)
    with pytest.raises(ValueError):
        clifford_mul(a, b)


def test_right_and_left_mul_match_field_product():
    a = random_field(DIMS, 8)
    c = (ConstantForm.e(0) + ConstantForm.e(1) * ConstantForm.e(2)).scaled(0.5 + 0.25j)
    cf = c.as_field(DIMS)
    assert max_abs(right_mul(a, c) - clifford_mul(a, cf)) <= 1e-13 * max_abs(a)
    assert max_abs(left_mul(c, a) - clifford_mul(cf, a)) <= 1e-13 * max_abs(a)


def test_constant_form_arithmetic_exact():
    e0, e1 = ConstantForm.e(0), ConstantForm.e(1)
    assert (e0 * e0 - ConstantForm.unit()).is_zero()
    assert (e1 * e1 + ConstantForm.unit()).is_zero()
    assert ((e0 + e1) - e0 - e1).is_zero()
    assert (-e0 + e0).is_zero()
    with pytest.raises(ValueError):
        ConstantForm.unit().scaled(1 / 3)
    with pytest.raises(ValueError):  # 3 * (1/3 rounded) rounds back to 1
        ConstantForm.unit().scaled(3).scaled(1 / 3)


def test_projector_idempotent_exact():
    for tag in PROJECTOR_TAGS:
        p = projector(tag)
        assert (p * p - p).is_zero(), tag


def test_projector_pair_commutes_exact():
    for s0 in "+-":
        for s12 in "+-":
            a, b = projector(s0 + "0"), projector(s12 + "12")
            assert (a * b - b * a).is_zero()


def test_projector_frozen_vectors():
    half = 0.5
    p0 = projector("+0").vector
    expected0 = np.zeros(16, dtype=np.complex128)
    expected0[[X, E0]] = half
    assert np.array_equal(p0, expected0)

    p12 = projector("+12").vector
    expected12 = np.zeros(16, dtype=np.complex128)
    expected12[X] = half
    expected12[E12] = 0.5j
    assert np.array_equal(p12, expected12)

    ppp = projector("++").vector
    expected = np.zeros(16, dtype=np.complex128)
    expected[[X, E0]] = 0.25
    expected[[E12, E012]] = 0.25j
    assert np.array_equal(ppp, expected)


def test_projector_four_part_sum_is_unit():
    total = ConstantForm(np.zeros(16))
    for tag in ("++", "+-", "-+", "--"):
        total = total + projector(tag)
    assert (total - ConstantForm.unit()).is_zero()


def test_projector_absorption_exact():
    e0 = ConstantForm.e(0)
    ie12 = (ConstantForm.e(1) * ConstantForm.e(2)).scaled(1j)
    for sign, val in (("+", 1), ("-", -1)):
        p = projector(sign + "0")
        assert ((p * e0) - p.scaled(val)).is_zero()
        q = projector(sign + "12")
        assert ((q * ie12) - q.scaled(val)).is_zero()


def test_projector_rejects_bad_tag():
    with pytest.raises(ValueError):
        projector("+3")


def test_unit_and_generator_fields():
    one = ConstantForm.unit().as_field(DIMS)
    assert np.all(one.coeffs[..., X] == 1.0)
    assert np.all(one.coeffs[..., 1:] == 0.0)
    for mu, mask in enumerate((E0, E1, E2, E3)):
        f = ConstantForm.e(mu).as_field(DIMS)
        assert np.all(f.coeffs[..., mask] == 1.0)

    pf = projector("++").as_field(DIMS)
    assert is_constant(pf)
    assert np.array_equal(pf.coeffs[0, 0, 0, 0], projector("++").vector)


def test_is_constant():
    assert is_constant(ConstantForm.unit().as_field(DIMS))
    assert not is_constant(random_field(DIMS, 9))


def test_constant_form_conjugate():
    # the blade table is real, so conjugating coefficients distributes over products
    c = ConstantForm.blade(E12, 0.5 - 0.75j)
    cc = ConstantForm(c.vector.conj())
    assert cc.vector[E12] == complex(0.5, 0.75)
    for tag in PROJECTOR_TAGS:
        p = projector(tag)
        pc = ConstantForm(p.vector.conj())
        assert np.array_equal((pc * cc).vector, (p * c).vector.conj()), tag


# The 14 constant forms the package builds: the four generators, e1 e2,
# e0 e1 e2 and the eight projectors.
def _package_forms() -> list:
    e = [ConstantForm.e(mu) for mu in range(4)]
    return e + [e[1] * e[2], e[0] * e[1] * e[2]] + [projector(tag) for tag in PROJECTOR_TAGS]


def _exact_product(a: ConstantForm, b: ConstantForm) -> list:
    """a * b in exact rationals, one (re, im) pair per blade, through the oracle."""
    def exact(v):
        return [(Fraction(z.real), Fraction(z.imag)) for z in v.vector.tolist()]

    out = [[Fraction(0), Fraction(0)] for _ in ALL_MASKS]
    for i, (ar, ai) in enumerate(exact(a)):
        for j, (br, bi) in enumerate(exact(b)):
            sign, mask = (int(v) for v in blade_product_oracle(i, j))
            out[mask][0] += sign * (ar * br - ai * bi)
            out[mask][1] += sign * (ar * bi + ai * br)
    return out


def test_constant_form_products_equal_exact_rationals():
    forms = _package_forms()
    assert len(forms) == 14
    for a in forms:
        for b in forms:
            product = (a * b).vector
            parts = product.view(np.float64)
            assert not np.any(np.signbit(parts) & (parts == 0.0))
            assert [(Fraction(z.real), Fraction(z.imag)) for z in product.tolist()] \
                == [tuple(pair) for pair in _exact_product(a, b)]


@pytest.mark.parametrize("value", [1 / 3, 1j / 3, float("nan"), float("inf"), -float("inf"),
                                   2.0 ** -(DYADIC_BITS + 1), 2.0 ** DYADIC_BITS,
                                   -(2.0 ** 53), 1e308j])
def test_constant_form_rejects_non_dyadic(value):
    with pytest.raises(ValueError):
        ConstantForm.blade(E3, value)


def test_constant_form_bounds_and_shape():
    largest = 2.0 ** DYADIC_BITS - 2.0 ** -DYADIC_BITS
    assert ConstantForm.blade(E3, largest + 1j * 2.0 ** -DYADIC_BITS).vector[E3] \
        == complex(largest, 2.0 ** -DYADIC_BITS)
    with pytest.raises(ValueError):
        ConstantForm(np.zeros(15))
    with pytest.raises(ValueError):
        ConstantForm(np.zeros((4, 4)))


def test_constant_form_clears_negative_zeros_and_is_read_only():
    vector = np.zeros(16, dtype=np.complex128)
    vector[E0] = complex(-0.0, -0.0)
    form = ConstantForm(vector)
    assert not np.any(np.signbit(form.vector.view(np.float64)))
    assert not np.any(np.signbit((-ConstantForm.unit().scaled(0)).vector.view(np.float64)))
    with pytest.raises(ValueError):
        form.vector[E0] = 1.0
