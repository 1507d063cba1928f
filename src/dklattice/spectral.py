"""Momentum-space symbols, plane-wave eigensolutions, and the propagator.

On a periodic lattice every plane wave exp(2 pi i p.k/N) is an eigenvector
of the forward differences, with delta_mu acting as multiplication by
z_mu = exp(2 pi i p_mu/N_mu) - 1.  The operator sum_mu e_mu delta_mu then
becomes S(p) = sum_mu z_mu L(e_mu), with L(e_mu) the signed permutation
matrix of left multiplication by the generator: an independent 16 x 16 block
per momentum, whose eigenpairs give exact plane-wave solutions.  As the
generators anticommute, S(p)^2 = s(p) 1 with s(p) = sum_mu g_mumu z_mu^2, so
the massive equation with a source is solved by one scalar divide per
momentum, without forming any block.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import blades
from .calculus import dk_apply
from .fields import FormField, plane_wave
from .lattice import LatticeDims


def _symbol_block(z) -> np.ndarray:
    """Assemble the 16 x 16 symbol of d_c + delta_c from four per-axis multipliers."""
    out = np.zeros((blades.NUM_BLADES, blades.NUM_BLADES), dtype=np.complex128)
    rows = np.arange(blades.NUM_BLADES)
    # e_mu maps blade GEN_SRC[mu, o] onto o, and the four generators fill
    # disjoint entries, so each one is written straight into the block.
    for mu in blades.AXES:
        out[rows, blades.GEN_SRC[mu]] = blades.GEN_SIGN[mu] * z[mu]
    return out


def _z(p, dims: LatticeDims) -> tuple:
    """Per-axis exp(2 pi i p_mu/N_mu) - 1, for integer or broadcastable array p_mu."""
    return tuple(np.exp(2j * np.pi * p[mu] / dims.extent(mu)) - 1.0 for mu in blades.AXES)


@dataclass(frozen=True)
class SymbolMatrix:
    """16 x 16 momentum-space block of d_c + delta_c at one momentum."""

    p: tuple
    dims: LatticeDims
    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128, copy=True)
        if arr.shape != (16, 16):
            raise ValueError(f"symbol must be 16 x 16, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def build_symbol(p, dims: LatticeDims) -> SymbolMatrix:
    """Symbol of d_c + delta_c at integer momentum p."""
    if len(p) != 4:
        raise ValueError(f"momentum must have four components, got {p!r}")
    p = tuple(int(c) % n for c, n in zip(p, dims.shape))
    return SymbolMatrix(p=p, dims=dims, matrix=_symbol_block(_z(p, dims)))


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and unit-norm amplitude of i times a symbol block."""

    eigenvalue: complex
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitude, dtype=np.complex128, copy=True)
        if amp.shape != (16,):
            raise ValueError(f"amplitude must have shape (16,), got {amp.shape}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)
        object.__setattr__(self, "eigenvalue", complex(self.eigenvalue))


class EigenSolveError(RuntimeError):
    """Raised when the dense eigensolver fails to converge at a momentum."""


def eigen_solve(symbol: SymbolMatrix) -> list[EigenPair]:
    """All 16 eigenpairs of i * symbol, sorted by (re, im) of the eigenvalue.

    Each eigenpair yields an exact plane-wave solution of the massive
    equation with the eigenvalue as its (generally complex) mass.
    """
    try:
        values, vectors = np.linalg.eig(1j * symbol.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolveError(f"eigensolver failed at momentum {symbol.p}") from exc
    order = np.lexsort((values.imag, values.real))
    return [EigenPair(eigenvalue=values[i],
                      amplitude=vectors[:, i] / np.linalg.norm(vectors[:, i]))
            for i in order]


def build_dk_solution(p, pair: EigenPair, dims: LatticeDims):
    """Plane-wave solution field for an eigenpair; returns (field, mass)."""
    return plane_wave(dims, p, pair.amplitude), pair.eigenvalue


class SingularBlockError(ValueError):
    """Mass coincides with an eigenvalue of some momentum block."""

    def __init__(self, momentum, eigenvalue, mass):
        self.momentum = tuple(int(c) for c in momentum)
        self.eigenvalue = complex(eigenvalue)
        self.mass = complex(mass)
        super().__init__(
            f"mass {format_complex(mass)} matches eigenvalue "
            f"{format_complex(eigenvalue)} of the momentum block p={self.momentum}")


def format_complex(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def propagator_solve(source: FormField, mass: complex) -> FormField:
    """Solve (i (d_c + delta_c) - m) omega = source in closed form.

    S(p)^2 = s(p) 1 gives (i S - m)^-1 = (i S + m) / (-s - m^2): the source
    is transformed, divided by that scalar momentum by momentum, transformed
    back, and i (d_c + delta_c) + m is applied in real space.  The block
    eigenvalues are +-i sqrt(s(p)); SingularBlockError is raised when the
    nearer one lies within 1e-12 max(1, |m|) of m.
    """
    mass = complex(mass)
    dims = source.dims
    z = _z(np.ix_(*(np.arange(n) for n in dims.shape)), dims)
    s = sum(g * z_mu ** 2 for g, z_mu in zip(blades.METRIC, z))
    root = 1j * np.sqrt(s)
    eigenvalues = np.where(np.abs(root - mass) <= np.abs(root + mass), root, -root)
    distances = np.abs(eigenvalues - mass)
    if distances.min() <= 1e-12 * max(1.0, abs(mass)):
        p = np.unravel_index(int(np.argmin(distances)), distances.shape)
        raise SingularBlockError(momentum=p, eigenvalue=eigenvalues[p], mass=mass)
    transformed = np.fft.fftn(source.coeffs, axes=(0, 1, 2, 3))
    transformed /= (-s - mass * mass)[..., None]
    g = FormField(dims, np.fft.ifftn(transformed, axes=(0, 1, 2, 3)))
    return dk_apply(g) + mass * g


def spectrum_rows(dims: LatticeDims, momenta):
    """Eigenvalue rows (p0, p1, p2, p3, re_lambda, im_lambda), 16 per momentum."""
    for p in momenta:
        symbol = build_symbol(p, dims)
        for pair in eigen_solve(symbol):
            yield symbol.p + (pair.eigenvalue.real, pair.eigenvalue.imag)


def write_spectrum_csv(fh, dims: LatticeDims, momenta) -> None:
    """Write the spectrum as CSV with a header row."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["p0", "p1", "p2", "p3", "re_lambda", "im_lambda"])
    for p0, p1, p2, p3, re_l, im_l in spectrum_rows(dims, momenta):
        writer.writerow([p0, p1, p2, p3, format(re_l, ".17g"), format(im_l, ".17g")])
