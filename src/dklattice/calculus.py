"""Grade-shifting difference operators and equation residuals.

Left multiplication by a generator e_mu is a signed permutation of the 16
blades (blades.GEN_SIGN, blades.GEN_SRC), and the lattice operator is

    (d_c + delta_c) omega = sum_mu e_mu delta_mu(omega),

so output blade o collects sign * delta_mu(omega[src]) from every axis.
d_c keeps the terms that raise the grade of the input blade and delta_c
the terms that lower it.  The same signed gather, with delta_mu replaced by
a complex scalar, gives the momentum-space symbol.  A second, independent
route to d_c + delta_c multiplies the per-axis differences by the constant
forms e_mu through algebra.left_mul; the two routes agreeing on random
fields is the main transcription check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import blades
from .algebra import E0, E12, ConstantForm, left_mul, right_mul_matrix, site_slabs
from .fields import (Equation, EquationParams, FormField, _adopt, max_abs, worst)
from .lattice import delta_mu

# Signs of the d_c and delta_c stencils, shape (4, 16) like blades.GEN_SIGN:
# the generator gather split by whether it raises or lowers the grade.
_RAISES = blades.GRADES[blades.GEN_SRC] < blades.GRADES
D_SIGN = np.where(_RAISES, blades.GEN_SIGN, 0)
DELTA_SIGN = np.where(_RAISES, 0, blades.GEN_SIGN)


def _stencil(coeffs: np.ndarray, sign: np.ndarray, src: np.ndarray, out=None):
    """Sum over axes mu of sign[mu] * delta_mu(coeffs[..., src[mu]]).

    Works one site slab at a time (site_slabs).  For each axis the blades
    are gathered into a slab buffer t and turned into their difference in
    place: one subtraction over the flat slab, shifted by the stride of axis
    mu, which reads ahead of where it writes (so numpy copies nothing),
    after which the sites on the far edge of the axis get their periodic
    neighbours.  Along axis 0 the difference goes straight into the slab's
    sum, and the neighbour row lies across the slab edge.  Every element is
    still
    (((0 + s_0 d_0) + s_1 d_1) + s_2 d_2) + s_3 d_3 with d_mu = t[k + e_mu] - t[k],
    so the result does not depend on the slabs.

    Without out the slabs fill a new array, which is returned.  With out,
    each finished slab goes to out(rows, grad, spare) instead and None is
    returned: grad holds the sum at site rows `rows`, spare is a free buffer
    of its shape, and both are reused for the next slab.  out may overwrite
    those rows of the array behind coeffs, since later slabs read only later
    rows and row 0 is read from a copy.
    """
    n0 = coeffs.shape[0]
    slabs = site_slabs(coeffs)
    shape = coeffs.shape[:-1] + sign.shape[1:]
    t_buf = np.empty((slabs[0].stop,) + shape[1:], dtype=np.complex128)
    if out is None:
        result, row0 = np.empty(shape, dtype=np.complex128), coeffs[0]
    else:
        result, row0, acc_buf = None, coeffs[0].copy(), np.empty_like(t_buf)
    # complex, as numpy would cast it on every product, but once
    sign = sign.astype(np.complex128)
    with np.errstate():
        # numpy copies a broadcast operand such as sign[mu] into a buffer of
        # np.getbufsize() elements, 128 KiB of complex and a slab at 8^4
        np.setbufsize(1 << 10)
        for slab in slabs:
            n = slab.stop - slab.start
            t = t_buf[:n]
            acc = result[slab] if out is None else acc_buf[:n]
            flat_t, flat_acc = t.reshape(-1), acc.reshape(-1)
            for mu in blades.AXES:
                np.take(coeffs[slab], src[mu], axis=-1, out=t, mode="clip")
                step = math.prod(t.shape[mu + 1:])  # flat distance to k + e_mu
                if mu == 0:
                    np.subtract(flat_t[step:], flat_t[:-step], out=flat_acc[:-step])
                    neighbour = coeffs[slab.stop] if slab.stop < n0 else row0
                    np.take(neighbour, src[mu], axis=-1, out=acc[-1], mode="clip")
                    acc[-1] -= t[-1]
                    acc *= sign[mu]
                    acc += 0  # as 0 + s_0 d_0 would: a -0 becomes +0
                else:
                    edge = (slice(None),) * mu + (slice(-1, None),)
                    first = (slice(None),) * mu + (slice(None, 1),)
                    wrap = t[first] - t[edge]
                    np.subtract(flat_t[step:], flat_t[:-step], out=flat_t[:-step])
                    t[edge] = wrap
                    t *= sign[mu]
                    acc += t
            if out is not None:
                out(slab, acc, t)
    return result


def d_c(omega: FormField) -> FormField:
    """Grade-raising difference operator."""
    return _adopt(omega.dims, _stencil(omega.coeffs, D_SIGN, blades.GEN_SRC))


def delta_c(omega: FormField) -> FormField:
    """Grade-lowering difference operator."""
    return _adopt(omega.dims, _stencil(omega.coeffs, DELTA_SIGN, blades.GEN_SRC))


def d_plus_delta(omega: FormField, out=None) -> FormField | None:
    """(d_c + delta_c) applied as one signed gather per axis.

    With out, the result is not a new field but goes one site slab at a
    time to out(rows, grad, spare), which may overwrite those rows of the
    array behind omega (see _stencil), and None is returned.
    """
    if out is None:
        return _adopt(omega.dims, _stencil(omega.coeffs, blades.GEN_SIGN, blades.GEN_SRC))
    return _stencil(omega.coeffs, blades.GEN_SIGN, blades.GEN_SRC, out)


_E_CONST = tuple(ConstantForm.e(mu) for mu in blades.AXES)


def d_plus_delta_via_clifford(omega: FormField) -> FormField:
    """Cross-check route: sum over axes of e_mu times the forward difference.

    Goes through the product matrix of algebra.left_mul rather than the
    generator gather; agreement with d_plus_delta on arbitrary fields
    validates every stencil sign at once.
    """
    total = None
    for mu in blades.AXES:
        diff = _adopt(omega.dims, delta_mu(omega.coeffs, mu))
        term = left_mul(_E_CONST[mu], diff)
        total = term if total is None else total + term
    return total


def dk_apply(omega: FormField) -> FormField:
    """Left side of the lattice Dirac-Kahler equation: i (d_c + delta_c),
    written a site slab at a time into one new array."""
    out = np.empty_like(omega.coeffs)

    def store(rows, grad, spare):
        np.multiply(grad, 1j, out=out[rows])

    d_plus_delta(omega, out=store)
    return _adopt(omega.dims, out)


def dk_residual(omega: FormField, params: EquationParams) -> FormField:
    """i (d_c + delta_c) omega - m omega, written a site slab at a time into
    one new array, with no whole (d_c + delta_c) omega."""
    if params.equation is not Equation.DIRAC_KAHLER:
        raise ValueError(f"expected Dirac-Kahler equation params, got {params.equation}")
    out = np.empty_like(omega.coeffs)

    def store(rows, grad, spare):
        grad *= 1j
        np.multiply(omega.coeffs[rows], params.mass, out=spare)
        np.subtract(grad, spare, out=out[rows])

    d_plus_delta(omega, out=store)
    return _adopt(omega.dims, out)


def solve_residual(solution: FormField, mass: complex, source: FormField) -> float:
    """max_abs(dk_residual(solution, m) - source), NaN if any slab holds NaN,
    one site slab at a time, so that besides the two fields only slab-sized
    buffers are made."""
    slab_maxima = []

    def reduce(rows, grad, spare):
        grad *= 1j
        grad -= np.multiply(solution.coeffs[rows], mass, out=spare)
        grad -= source.coeffs[rows]
        slab_maxima.append(np.max(np.abs(grad, out=spare.real)))

    d_plus_delta(solution, out=reduce)
    return worst(slab_maxima)


def _hestenes_left(omega: FormField, factor: complex | None) -> FormField:
    """-(d_c + delta_c) omega e1 e2, minus factor * (omega e0) unless factor
    is None, written a site slab at a time into one new array.  Each slab
    takes the ufuncs and product matrices of right_mul and the FormField
    operators, and a row of a matmul does not depend on the rows beside it,
    so the result is the whole-field composition's, bit for bit."""
    right_e12, right_e0 = right_mul_matrix(E12), right_mul_matrix(E0)
    out = np.empty_like(omega.coeffs)

    def store(rows, grad, spare):
        lhs = out[rows].reshape(-1, blades.NUM_BLADES)
        np.matmul(grad.reshape(-1, blades.NUM_BLADES), right_e12, out=lhs)
        np.negative(lhs, out=lhs)
        if factor is not None:
            rhs = spare.reshape(-1, blades.NUM_BLADES)
            np.matmul(omega.coeffs[rows].reshape(-1, blades.NUM_BLADES), right_e0, out=rhs)
            rhs *= factor
            lhs -= rhs

    d_plus_delta(omega, out=store)
    return _adopt(omega.dims, out)


def hestenes_apply(omega: FormField) -> FormField:
    """Left side of the lattice Hestenes equation: -(d_c + delta_c) omega e1 e2."""
    return _hestenes_left(omega, None)


def _hestenes_sign(equation: Equation) -> float:
    if equation is Equation.HESTENES:
        return 1.0
    if equation is Equation.HESTENES_FLIPPED:
        return -1.0
    raise ValueError(f"expected a Hestenes equation, got {equation}")


def hestenes_residual(omega: FormField, params: EquationParams) -> FormField:
    """-(d_c + delta_c) omega e1 e2 - s m omega e0, with s = -1 when flipped."""
    return _hestenes_left(omega, _hestenes_sign(params.equation) * params.mass)


# The eight componentwise Hestenes equations for an even-grade field.
# Equation j states: sum of its difference terms = s * m * omega[rhs blade].
# Ordered by grade, then generator indices: x, e01, e02, e03, e12, e13, e23, e0123.
HESTENES_EQUATION_BLADES = tuple(sorted(blades.EVEN_BLADES,
                                        key=lambda m: (blades.grade(m), blades.indices(m))))


def _hestenes_gather() -> tuple[np.ndarray, np.ndarray]:
    """Signed gather of the componentwise Hestenes terms, each of shape (4, 8).

    Equation B is component B of -((d_c + delta_c) omega) e1 e2 e0 - s m omega,
    because e0 e0 = 1: the generator gather followed by right multiplication
    with the single blade e1 e2 e0.
    """
    sign_120 = blades.SIGN[blades.E1, blades.E2] * blades.SIGN[blades.E12, blades.E0]
    # blade of (d_c + delta_c) omega that e1 e2 e0 = sign_120 e012 carries onto each rhs blade
    pre = np.array(HESTENES_EQUATION_BLADES) ^ blades.E012
    sign = -sign_120 * blades.SIGN[pre, blades.E012] * blades.GEN_SIGN[:, pre]
    return sign, blades.GEN_SRC[:, pre]


HESTENES_SIGN, HESTENES_SRC = _hestenes_gather()

# Odd-grade content above this fraction of max(max_abs(omega), 1) warns.
ODD_WARN_RATIO = 1e-12


def hestenes_residual_componentwise(omega: FormField, params: EquationParams) -> FormField:
    """Evaluate the eight scalar Hestenes equations directly.

    Blade B of the result holds left minus right of the equation whose
    right-hand blade is B (HESTENES_EQUATION_BLADES), at every site, and
    every odd blade holds +0.  For even input this equals the operator-form
    residual right-multiplied by e0, which is the agreement check between the
    two Hestenes routes.  Only even-grade input blades enter the equations; a
    warning is issued when the odd part of omega exceeds ODD_WARN_RATIO
    relative to its scale.
    """
    s = _hestenes_sign(params.equation)
    coeffs = omega.coeffs
    odd = np.max(np.abs(coeffs[..., list(blades.ODD_BLADES)]))
    if odd > ODD_WARN_RATIO * max_abs(omega):
        warnings.warn(f"odd-grade content of size {odd:.3e} is ignored by the "
                      "componentwise Hestenes equations", stacklevel=2)
    rhs_blades = list(HESTENES_EQUATION_BLADES)
    lhs = _stencil(coeffs, HESTENES_SIGN, HESTENES_SRC)
    out = np.zeros_like(coeffs)
    out[..., rhs_blades] = lhs - (s * params.mass) * coeffs[..., rhs_blades]
    return _adopt(omega.dims, out)
