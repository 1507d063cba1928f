"""Site algebra on fields: Clifford products, constant forms, projectors.

The product of two fields is strictly local: the 16-vectors at each site
multiply through the blade table, with no coupling between sites.  Every
product is a signed gather over blades.SIGN: blade a times blade b puts
SIGN[a, b] times the coefficient product onto blade a ^ b.  A constant
form (one site-independent 16-vector) multiplies as a row times
right_mul_matrix, with zero rounding, as its coefficients are small dyadics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import blades
from .blades import SIGN
from .fields import FormField, _adopt, constant_field
from .lattice import LatticeDims

# Field kernels work in site slabs along axis 0 of about this many bytes, so
# their temporaries stay in cache instead of growing with the field.  At 8^4
# a slab is one site row: 1 MiB slabs there held the whole field and took
# twice as long, and from 16^4 up a slab is one row either way.
SLAB_BYTES = 1 << 17


def site_slabs(coeffs: np.ndarray):
    """Slices of axis 0 that cut coeffs into slabs of about SLAB_BYTES,
    at least one site row each."""
    n0 = coeffs.shape[0]
    rows = max(1, SLAB_BYTES // coeffs[0].nbytes)
    return [slice(start, min(start + rows, n0)) for start in range(0, n0, rows)]


# Parts of constant forms are k / 2^DYADIC_BITS with integer |k| < 4^DYADIC_BITS:
# a blade coefficient of their product sums 32 terms of 48 bits, exact in float64.
DYADIC_BITS = 12


@dataclass(frozen=True, eq=False)
class ConstantForm:
    """Site-independent form: one read-only complex128 16-vector.

    vector[B] is the coefficient of blade mask B.  Negative zeros are cleared
    and a part outside the DYADIC_BITS bound raises ValueError, so every sum,
    scaling and Clifford product of forms is exact in float64 or refused.
    """

    vector: np.ndarray

    def __post_init__(self):
        vector = np.asarray(self.vector, dtype=np.complex128) + 0.0
        if vector.shape != (blades.NUM_BLADES,):
            raise ValueError(f"a constant form has 16 coefficients, got shape {vector.shape}")
        parts = vector.view(np.float64)  # nan and inf fail the bound, before any scaling
        if not (np.abs(parts).max() < 2.0 ** DYADIC_BITS
                and not np.modf(parts * 2.0 ** DYADIC_BITS)[0].any()):
            raise ValueError(f"coefficients must be k / 2^{DYADIC_BITS} with "
                             f"|k| < 4^{DYADIC_BITS}, got {vector}")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)

    @classmethod
    def blade(cls, mask: int, coefficient: complex = 1.0) -> "ConstantForm":
        """A single blade with the given coefficient."""
        if mask not in blades.ALL_MASKS:
            raise ValueError(f"blade mask must be 0..15, got {mask}")
        vector = np.zeros(blades.NUM_BLADES, dtype=np.complex128)
        vector[mask] = coefficient
        return cls(vector)

    @classmethod
    def unit(cls) -> "ConstantForm":
        return cls.blade(blades.X)

    @classmethod
    def e(cls, mu: int) -> "ConstantForm":
        if mu not in blades.AXES:
            raise ValueError(f"generator index must be 0..3, got {mu}")
        return cls.blade(1 << mu)

    def __add__(self, other: "ConstantForm") -> "ConstantForm":
        return ConstantForm(self.vector + other.vector)

    def __sub__(self, other: "ConstantForm") -> "ConstantForm":
        return ConstantForm(self.vector - other.vector)

    def __neg__(self) -> "ConstantForm":
        return ConstantForm(-self.vector)

    def scaled(self, factor: complex) -> "ConstantForm":
        """Product with the scalar form factor x, so factor too must be dyadic."""
        return self * ConstantForm.blade(blades.X, factor)

    def __mul__(self, other: "ConstantForm") -> "ConstantForm":
        """Clifford product through the blade table, as fields multiply."""
        if not isinstance(other, ConstantForm):
            return NotImplemented
        return ConstantForm(self.vector @ right_mul_matrix(other))

    def is_zero(self) -> bool:
        return not self.vector.any()

    def as_field(self, dims: LatticeDims) -> FormField:
        """Materialize onto a lattice as a constant FormField."""
        return constant_field(dims, self.vector)


# e0, e1 e2 and e0 e1 e2, signs read off the blade table: a product here
# would be a matmul at import, and OpenBLAS allocates its buffers on the
# first one (0.25 MiB of peak RSS)
E0 = ConstantForm.e(0)
E12 = ConstantForm.blade(blades.E12, SIGN[blades.E1, blades.E2])
E012 = ConstantForm.blade(blades.E012, SIGN[blades.E0, blades.E12])

PROJECTOR_TAGS = ("+0", "-0", "+12", "-12", "++", "+-", "-+", "--")


@functools.cache
def projector(tag: str) -> ConstantForm:
    """One of the eight idempotent constant forms, selected by tag.

    "+0" and "-0" give (x +- e0)/2; "+12" and "-12" give (x +- i e1 e2)/2.
    A two-sign tag "ss'" gives the product of the "s0" and "s'12" factors,
    for example "+-" is the "+0" factor times the "-12" factor.  Each tag is
    built once; the frozen result is shared between callers.
    """
    s = 1 if tag[:1] == "+" else -1
    if tag in ("+0", "-0"):
        return (ConstantForm.unit() + E0.scaled(s)).scaled(0.5)
    if tag in ("+12", "-12"):
        return (ConstantForm.unit() + E12.scaled(1j * s)).scaled(0.5)
    if tag in ("++", "+-", "-+", "--"):
        return projector(tag[0] + "0") * projector(tag[1] + "12")
    raise ValueError(f"unknown projector tag {tag!r}, expected one of {PROJECTOR_TAGS}")


def clifford_mul(a: FormField, b: FormField) -> FormField:
    """Per-site Clifford product of two fields on the same lattice.

    One signed gather per blade m of a: blade m ^ o of b lands on o.
    """
    if a.dims != b.dims:
        raise ValueError(f"lattice dimension mismatch: {a.dims.shape} vs {b.dims.shape}")
    out = np.zeros_like(a.coeffs)
    masks = np.arange(blades.NUM_BLADES)
    for m in blades.ALL_MASKS:
        src = m ^ masks
        out += a.coeffs[..., m, None] * (np.take(b.coeffs, src, axis=-1) * SIGN[m, src])
    return _adopt(a.dims, out)


# Row and column index of every entry of the 16 x 16 sign table.
_A, _B = np.indices(SIGN.shape)


def _gather_matrix(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The 16 x 16 matrix with entry [rows, a ^ b] = SIGN[a, b] * values."""
    matrix = np.zeros((blades.NUM_BLADES, blades.NUM_BLADES), dtype=np.complex128)
    matrix[rows, _A ^ _B] = SIGN * values
    return matrix


def _gather_mul(a: FormField, matrix: np.ndarray) -> FormField:
    """a times a 16 x 16 product matrix at every site, one matmul per site slab,
    which OpenBLAS runs on one thread; rows do not interact, so the bits match."""
    out = np.empty_like(a.coeffs)
    for rows in site_slabs(a.coeffs):
        np.matmul(a.coeffs[rows].reshape(-1, blades.NUM_BLADES), matrix,
                  out=out[rows].reshape(-1, blades.NUM_BLADES))
    return _adopt(a.dims, out)


def right_mul_matrix(c: ConstantForm) -> np.ndarray:
    """The matrix M with a * c = a @ M for any row 16-vector a.

    Row a holds SIGN[a, b] * c[b] at column a ^ b.
    """
    return _gather_matrix(_A, c.vector[_B])


def right_mul(a: FormField, c: ConstantForm) -> FormField:
    """Clifford product a * c with a constant right factor.

    A (V, 16) @ (16, 16) matmul by right_mul_matrix(c), in site slabs.
    Multiplication by a single blade is a signed permutation, with no rounding.
    """
    return _gather_mul(a, right_mul_matrix(c))


def left_mul(c: ConstantForm, a: FormField) -> FormField:
    """Clifford product c * a with a constant left factor, as a matmul."""
    return _gather_mul(a, _gather_matrix(_B, c.vector[_A]))


def is_constant(omega: FormField) -> bool:
    """True when the 16-vector is exactly the same at every site."""
    return bool(np.all(omega.coeffs == omega.coeffs[0, 0, 0, 0]))
