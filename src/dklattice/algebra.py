"""Site algebra on fields: Clifford products, constant forms, projectors.

The product of two fields is strictly local: the 16-vectors at each site
multiply through the blade table, with no coupling between sites.  Every
product is a signed gather over blades.TABLE: blade a times blade b puts
sign[a, b] times the coefficient product onto blade result[a, b].  Constant
forms (site-independent 16-vectors) are kept in exact rational arithmetic
so the projector identities can be checked with zero rounding; each is
converted to floating point once, when first used on a lattice.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import blades
from .blades import TABLE
from .fields import FormField, _adopt, constant_field
from .lattice import LatticeDims

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient must be int or Fraction, got {value!r}")


@dataclass(frozen=True)
class ConstantForm:
    """Site-independent form with exact rational blade coefficients.

    re[B] + i * im[B] is the coefficient of blade mask B.  All arithmetic
    (sums, scalings, Clifford products, conjugation) stays in Fractions.
    """

    re: tuple
    im: tuple

    def __post_init__(self):
        for field in ("re", "im"):
            values = tuple(_as_fraction(v) for v in getattr(self, field))
            if len(values) != blades.NUM_BLADES:
                raise ValueError(f"{field} must have 16 entries, got {len(values)}")
            object.__setattr__(self, field, values)

    @classmethod
    def zero(cls) -> "ConstantForm":
        return cls((_ZERO,) * 16, (_ZERO,) * 16)

    @classmethod
    def blade(cls, mask: int, re=_ONE, im=_ZERO) -> "ConstantForm":
        """A single blade with exact coefficient re + i*im."""
        if mask not in blades.ALL_MASKS:
            raise ValueError(f"blade mask must be 0..15, got {mask}")
        res = [_ZERO] * 16
        ims = [_ZERO] * 16
        res[mask] = _as_fraction(re)
        ims[mask] = _as_fraction(im)
        return cls(tuple(res), tuple(ims))

    @classmethod
    def unit(cls) -> "ConstantForm":
        return cls.blade(blades.X)

    @classmethod
    def e(cls, mu: int) -> "ConstantForm":
        if mu not in blades.AXES:
            raise ValueError(f"generator index must be 0..3, got {mu}")
        return cls.blade(1 << mu)

    def __add__(self, other: "ConstantForm") -> "ConstantForm":
        return ConstantForm(tuple(a + b for a, b in zip(self.re, other.re)),
                            tuple(a + b for a, b in zip(self.im, other.im)))

    def __sub__(self, other: "ConstantForm") -> "ConstantForm":
        return ConstantForm(tuple(a - b for a, b in zip(self.re, other.re)),
                            tuple(a - b for a, b in zip(self.im, other.im)))

    def __neg__(self) -> "ConstantForm":
        return ConstantForm(tuple(-a for a in self.re), tuple(-a for a in self.im))

    def scaled(self, re, im=_ZERO) -> "ConstantForm":
        """Multiply by the exact scalar re + i*im."""
        sr, si = _as_fraction(re), _as_fraction(im)
        return ConstantForm(tuple(sr * a - si * b for a, b in zip(self.re, self.im)),
                            tuple(sr * b + si * a for a, b in zip(self.re, self.im)))

    def __mul__(self, other: "ConstantForm") -> "ConstantForm":
        """Exact Clifford product through the blade table."""
        if not isinstance(other, ConstantForm):
            return NotImplemented
        out_re = [_ZERO] * 16
        out_im = [_ZERO] * 16
        for a in blades.ALL_MASKS:
            ar, ai = self.re[a], self.im[a]
            if ar == 0 and ai == 0:
                continue
            for b in blades.ALL_MASKS:
                br, bi = other.re[b], other.im[b]
                if br == 0 and bi == 0:
                    continue
                sign, mask = TABLE.mul_masks(a, b)
                out_re[mask] += sign * (ar * br - ai * bi)
                out_im[mask] += sign * (ar * bi + ai * br)
        return ConstantForm(tuple(out_re), tuple(out_im))

    def conjugate(self) -> "ConstantForm":
        return ConstantForm(self.re, tuple(-b for b in self.im))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.re) and all(v == 0 for v in self.im)

    @functools.cached_property
    def _vector(self) -> np.ndarray:
        vec = np.array([float(a) + 1j * float(b) for a, b in zip(self.re, self.im)],
                       dtype=np.complex128)
        vec.setflags(write=False)
        return vec

    def as_vector(self) -> np.ndarray:
        """Read-only floating-point 16-vector of blade coefficients, built once."""
        return self._vector

    def as_field(self, dims: LatticeDims) -> FormField:
        """Materialize onto a lattice as a constant FormField."""
        return constant_field(dims, self.as_vector())


PROJECTOR_TAGS = ("+0", "-0", "+12", "-12", "++", "+-", "-+", "--")


@functools.cache
def projector(tag: str) -> ConstantForm:
    """One of the eight idempotent constant forms, selected by tag.

    "+0" and "-0" give (x +- e0)/2; "+12" and "-12" give (x +- i e1 e2)/2.
    A two-sign tag "ss'" gives the product of the "s0" and "s'12" factors,
    for example "+-" is the "+0" factor times the "-12" factor.  Each tag is
    built once; the frozen result is shared between callers.
    """
    if tag in ("+0", "-0"):
        s = _ONE if tag[0] == "+" else -_ONE
        return (ConstantForm.unit() + ConstantForm.e(0).scaled(s)).scaled(_HALF)
    if tag in ("+12", "-12"):
        s = _ONE if tag[0] == "+" else -_ONE
        e1e2 = ConstantForm.e(1) * ConstantForm.e(2)
        return (ConstantForm.unit() + e1e2.scaled(_ZERO, s)).scaled(_HALF)
    if tag in ("++", "+-", "-+", "--"):
        return projector(tag[0] + "0") * projector(tag[1] + "12")
    raise ValueError(f"unknown projector tag {tag!r}, expected one of {PROJECTOR_TAGS}")


def clifford_mul(a: FormField, b: FormField) -> FormField:
    """Per-site Clifford product of two fields on the same lattice.

    One signed gather per blade m of a: blade result[m, o] of b lands on o.
    """
    if a.dims != b.dims:
        raise ValueError(f"lattice dimension mismatch: {a.dims.shape} vs {b.dims.shape}")
    out = np.zeros_like(a.coeffs)
    for m in blades.ALL_MASKS:
        src = TABLE.result[m]
        out += a.coeffs[..., m, None] * (b.coeffs[..., src] * TABLE.sign[m, src])
    return _adopt(a.dims, out)


# Row and column index of every entry of the 16 x 16 sign/result tables.
_A, _B = np.indices(TABLE.sign.shape)


def _gather_matrix(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The 16 x 16 matrix with entry [rows, result] = sign * values."""
    matrix = np.zeros((blades.NUM_BLADES, blades.NUM_BLADES), dtype=np.complex128)
    matrix[rows, TABLE.result] = TABLE.sign * values
    return matrix


def _gather_mul(a: FormField, matrix: np.ndarray) -> FormField:
    """a times a 16 x 16 product matrix at every site, as one matmul."""
    flat = a.coeffs.reshape(-1, blades.NUM_BLADES) @ matrix
    return _adopt(a.dims, flat.reshape(a.coeffs.shape))


def right_mul_matrix(c: ConstantForm) -> np.ndarray:
    """The matrix M with a * c = a @ M for any row 16-vector a.

    Row a holds sign[a, b] * c[b] at column result[a, b].
    """
    return _gather_matrix(_A, c.as_vector()[_B])


def right_mul(a: FormField, c: ConstantForm) -> FormField:
    """Clifford product a * c with a constant right factor.

    One (V, 16) @ (16, 16) matmul with right_mul_matrix(c).  Multiplication
    by a single blade is a signed permutation of components with no rounding.
    """
    return _gather_mul(a, right_mul_matrix(c))


def left_mul(c: ConstantForm, a: FormField) -> FormField:
    """Clifford product c * a with a constant left factor, as one matmul."""
    return _gather_mul(a, _gather_matrix(_B, c.as_vector()[_A]))


def is_constant(omega: FormField) -> bool:
    """True when the 16-vector is exactly the same at every site."""
    return bool(np.all(omega.coeffs == omega.coeffs[0, 0, 0, 0]))
