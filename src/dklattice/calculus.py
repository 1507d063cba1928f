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

import warnings

import numpy as np

from . import blades
from .algebra import ConstantForm, left_mul, right_mul
from .fields import (Equation, EquationParams, FormField, max_abs)
from .lattice import delta_mu

# Signs of the d_c and delta_c stencils, shape (4, 16) like blades.GEN_SIGN:
# the generator gather split by whether it raises or lowers the grade.
_RAISES = blades.GRADES[blades.GEN_SRC] < blades.GRADES
D_SIGN = np.where(_RAISES, blades.GEN_SIGN, 0)
DELTA_SIGN = np.where(_RAISES, 0, blades.GEN_SIGN)


def _stencil(coeffs: np.ndarray, sign: np.ndarray, src: np.ndarray) -> np.ndarray:
    """Sum over axes mu of sign[mu] * delta_mu(coeffs[..., src[mu]])."""
    out = np.zeros(coeffs.shape[:-1] + sign.shape[1:], dtype=np.complex128)
    for mu in blades.AXES:
        diff = delta_mu(np.take(coeffs, src[mu], axis=-1), mu)
        diff *= sign[mu]
        out += diff
    return out


def d_c(omega: FormField) -> FormField:
    """Grade-raising difference operator."""
    return FormField(omega.dims, _stencil(omega.coeffs, D_SIGN, blades.GEN_SRC))


def delta_c(omega: FormField) -> FormField:
    """Grade-lowering difference operator."""
    return FormField(omega.dims, _stencil(omega.coeffs, DELTA_SIGN, blades.GEN_SRC))


def d_plus_delta(omega: FormField) -> FormField:
    """(d_c + delta_c) applied as one signed gather per axis."""
    return FormField(omega.dims, _stencil(omega.coeffs, blades.GEN_SIGN, blades.GEN_SRC))


_E_CONST = tuple(ConstantForm.e(mu) for mu in blades.AXES)
_E12_CONST = _E_CONST[1] * _E_CONST[2]


def d_plus_delta_via_clifford(omega: FormField) -> FormField:
    """Cross-check route: sum over axes of e_mu times the forward difference.

    Goes through the product matrix of algebra.left_mul rather than the
    generator gather; agreement with d_plus_delta on arbitrary fields
    validates every stencil sign at once.
    """
    total = None
    for mu in blades.AXES:
        diff = FormField(omega.dims, delta_mu(omega.coeffs, mu))
        term = left_mul(_E_CONST[mu], diff)
        total = term if total is None else total + term
    return total


def dk_apply(omega: FormField) -> FormField:
    """Left side of the lattice Dirac-Kahler equation: i (d_c + delta_c)."""
    return 1j * d_plus_delta(omega)


def dk_residual(omega: FormField, params: EquationParams) -> FormField:
    """i (d_c + delta_c) omega - m omega."""
    if params.equation is not Equation.DIRAC_KAHLER:
        raise ValueError(f"expected Dirac-Kahler equation params, got {params.equation}")
    return dk_apply(omega) - params.mass * omega


def hestenes_apply(omega: FormField) -> FormField:
    """Left side of the lattice Hestenes equation: -(d_c + delta_c) omega e1 e2."""
    grad = d_plus_delta(omega)
    return -right_mul(grad, _E12_CONST)


def _hestenes_sign(params: EquationParams) -> float:
    if params.equation is Equation.HESTENES:
        return 1.0
    if params.equation is Equation.HESTENES_FLIPPED:
        return -1.0
    raise ValueError(f"expected Hestenes equation params, got {params.equation}")


def hestenes_residual(omega: FormField, params: EquationParams) -> FormField:
    """-(d_c + delta_c) omega e1 e2 - s m omega e0, with s = -1 when flipped."""
    s = _hestenes_sign(params)
    rhs = right_mul(omega, _E_CONST[0])
    return hestenes_apply(omega) - (s * params.mass) * rhs


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
    s12, m12 = blades.TABLE.mul_masks(1 << 1, 1 << 2)
    s120, m120 = blades.TABLE.mul_masks(m12, 1 << 0)
    # blade of (d_c + delta_c) omega that e1 e2 e0 carries onto each rhs blade
    pre = np.array(HESTENES_EQUATION_BLADES) ^ m120
    sign = -s12 * s120 * blades.TABLE.sign[pre, m120] * blades.GEN_SIGN[:, pre]
    return sign, blades.GEN_SRC[:, pre]


HESTENES_SIGN, HESTENES_SRC = _hestenes_gather()

# Odd-grade content above this fraction of max(max_abs(omega), 1) warns.
ODD_WARN_RATIO = 1e-12


def hestenes_residual_componentwise(omega: FormField, params: EquationParams) -> np.ndarray:
    """Evaluate the eight scalar Hestenes equations directly.

    Returns an array of shape (8, N0, N1, N2, N3) holding left minus right
    of each equation at every site, ordered as HESTENES_EQUATION_BLADES.
    Only even-grade input blades enter the equations; a warning is issued
    when the odd part of omega exceeds ODD_WARN_RATIO relative to its scale.
    """
    s = _hestenes_sign(params)
    coeffs = omega.coeffs
    odd = np.max(np.abs(coeffs[..., list(blades.ODD_BLADES)]))
    if odd > ODD_WARN_RATIO * max(max_abs(omega), 1.0):
        warnings.warn(f"odd-grade content of size {odd:.3e} is ignored by the "
                      "componentwise Hestenes equations", stacklevel=2)
    lhs = _stencil(coeffs, HESTENES_SIGN, HESTENES_SRC)
    rhs = coeffs[..., list(HESTENES_EQUATION_BLADES)]
    return np.moveaxis(lhs - (s * params.mass) * rhs, -1, 0)


def pack_hestenes_components(residuals: np.ndarray, dims) -> FormField:
    """Lay the eight componentwise residuals onto their right-hand blades.

    For even input the packed field equals the operator-form residual
    right-multiplied by e0, which is the agreement check between the two
    Hestenes routes.
    """
    if residuals.shape != (8,) + dims.shape:
        raise ValueError(f"expected residual array of shape {(8,) + dims.shape}, "
                         f"got {residuals.shape}")
    coeffs = np.zeros(dims.shape + (blades.NUM_BLADES,), dtype=np.complex128)
    for j, mask in enumerate(HESTENES_EQUATION_BLADES):
        coeffs[..., mask] = residuals[j]
    return FormField(dims, coeffs)
