"""Momentum-space symbols, plane-wave eigensolutions, and the propagator.

On a periodic lattice every plane wave exp(2 pi i p.k/N) is an eigenvector
of the forward differences, with delta_mu acting as multiplication by
z_mu = exp(2 pi i p_mu/N_mu) - 1.  The operator sum_mu e_mu delta_mu then
becomes S(p) = sum_mu z_mu L(e_mu), with L(e_mu) the signed permutation
matrix of left multiplication by the generator: an independent 16 x 16 block
per momentum.  As the generators anticommute, S(p)^2 = s(p) 1 with
s(p) = sum_mu g_mumu z_mu^2, and that one scalar decides each block: the
eigenvalues of i S(p) are -+i sqrt(s(p)), 8 of each, with eigenvectors in
closed form, and the massive equation with a source is solved by one scalar
divide per momentum.  On the light cone, s(p) = 0 but S(p) != 0, the block is
defective: S^2 = 0 with rank 8, so the eigenvalue 0 has only 8 eigenvectors,
which are 8 columns S e_B of S itself.  No eigensolver is used.
"""

from __future__ import annotations

import math

import numpy as np

from . import blades
from .calculus import d_plus_delta
from .fields import FormField, _adopt
from .lattice import LatticeDims

# On the light cone |s(p)| <= LIGHT_CONE_TOL sum_mu |z_mu|^2: rounding leaves
# the ratio near 1e-16 there, and >= 1e-3 off it for all extents up to 6.
LIGHT_CONE_TOL = 1e-12

# A part of a root i sqrt(s(p)) with |part| <= IMAGINARY_ULPS eps |root| is noise: on every
# n^4 up to 16^4 noise is <= 20.4 eps |root| and a genuine part >= 1.7e-4 |root|.
IMAGINARY_ULPS = 64

# For each axis nu, the 8 blades without e_nu in blade order.
_WITHOUT_AXIS = np.array([[b for b in blades.ALL_MASKS if not b >> nu & 1] for nu in blades.AXES])


def _symbol_block(z) -> np.ndarray:
    """The 16 x 16 symbols of d_c + delta_c from four per-axis multipliers, stacked
    along the shape that the z_mu share."""
    z = np.moveaxis(np.asarray(z), 0, -1)
    out = np.zeros(z.shape[:-1] + (blades.NUM_BLADES, blades.NUM_BLADES), dtype=np.complex128)
    # e_mu maps blade GEN_SRC[mu, o] onto o, and the four generators fill
    # disjoint entries, so all of them are written straight into the block.
    out[..., np.arange(blades.NUM_BLADES), blades.GEN_SRC] = blades.GEN_SIGN * z[..., :, None]
    return out


def _z(p, dims: LatticeDims) -> tuple:
    """Per-axis exp(2 pi i p_mu/N_mu) - 1, for broadcastable integer arrays p_mu.

    Arrays also for one momentum: numpy's scalar arithmetic rounds unlike
    its array loops, and a momentum must give the grid's bits.
    """
    return tuple(np.exp(2j * np.pi * p[mu] / dims.extent(mu)) - 1.0 for mu in blades.AXES)


def _roots(z):
    """s(p) and the eigenvalue root i sqrt(s(p)): 0 on the light cone, noise parts +0."""
    s = sum(g * (z_mu * z_mu) for g, z_mu in zip(blades.METRIC, z))
    cone = np.abs(s) <= LIGHT_CONE_TOL * sum(abs(z_mu) ** 2 for z_mu in z)
    root = np.where(cone, 0j, 1j * np.sqrt(s))
    noise = IMAGINARY_ULPS * np.finfo(float).eps * np.abs(root)
    for part in (root.real, root.imag):
        part[np.abs(part) <= noise] = 0.0
    return s, root


def _grid_z(dims: LatticeDims) -> tuple:
    """z_mu at every momentum of the lattice, as arrays that broadcast together."""
    return _z(np.ix_(*(np.arange(n) for n in dims.shape)), dims)


def _eigenvalue_pair(root) -> tuple:
    """The eigenvalues (lo, hi) = 0 -+ root of i S(p), ordered by (re, im).

    0 -+ root has no -0 part, so the light cone reads 0,0 for both.
    """
    a, b = 0j - root, 0j + root
    a_first = (a.real < b.real) | ((a.real == b.real) & (a.imag <= b.imag))
    return np.where(a_first, a, b), np.where(a_first, b, a)


def _nearest_eigenvalue(root, mass: complex) -> tuple:
    """Distance from mass to the nearest block eigenvalue +-root, its momentum
    and that eigenvalue; root is the grid of i sqrt(s(p)) from _roots."""
    eigenvalues = np.where(np.abs(root - mass) <= np.abs(root + mass), root, -root)
    distances = np.abs(eigenvalues - mass)
    p = np.unravel_index(int(np.argmin(distances)), distances.shape)
    return float(distances[p]), p, 0j + eigenvalues[p]  # 0j + turns a -0 part into 0


def _eigen_stack(momenta: np.ndarray, dims: LatticeDims) -> list:
    """The eigenpairs of eigen_solve, and the symbols, of an (M, 4) stack of momenta.

    Three groups, for the momenta off the light cone (k = 16), on it with
    S != 0 (k = 8) and with S = 0 (k = 16), each a tuple (eigenvalues,
    amplitudes, symbols) of shapes (m, k), (m, k, 16) and (m, 16, 16) in
    stack order.  The rows of the first two come from one gather of the
    symbol columns S e_B, 8 blades B per momentum.  A momentum's rows depend
    on it alone, so they carry the bits eigen_solve gives it.
    """
    z = _z(momenta.T, dims)
    lo, hi = _eigenvalue_pair(_roots(z)[1])
    symbols = _symbol_block(z)
    off = hi != 0
    zero = ~symbols.any(axis=(1, 2))
    cone = ~off & ~zero
    n = blades.NUM_BLADES
    # Blades B: the even ones, or on the light cone those that lack the axis
    # nu of largest |z_nu|, where p_nu / N_nu is nearest 1/2 (equal rationals
    # round alike), the lowest on a tie: a -> S a is injective on them.
    nu = np.argmin(np.abs(2 * momenta - dims.shape) / dims.shape, axis=1)
    starts = np.where(off[:, None], blades.EVEN_BLADES, _WITHOUT_AXIS[nu])
    columns = np.swapaxes(np.take_along_axis(symbols, starts[:, None], axis=2), 1, 2)
    pair = np.stack([lo[off], hi[off]], axis=1)
    # lam^2 = -s turns i S (e_B + i S e_B / lam) into lam (e_B + i S e_B / lam)
    rows = np.eye(n)[starts[off]][:, None] + 1j * columns[off][:, None] / pair[:, :, None, None]
    groups = [
        (np.repeat(pair, 8, axis=1), rows.reshape(-1, n, n)),
        (np.zeros((int(cone.sum()), 8), dtype=np.complex128), columns[cone]),
        (np.zeros((int(zero.sum()), n), dtype=np.complex128),
         np.broadcast_to(np.eye(n, dtype=np.complex128), (int(zero.sum()), n, n))),
    ]
    # np.linalg.norm of one row sums as these two vecdot calls do
    return [(values, amps / np.sqrt(np.vecdot(amps.real, amps.real)
                                    + np.vecdot(amps.imag, amps.imag))[..., None],
             symbols[kind])
            for (values, amps), kind in zip(groups, (off, cone, zero))]


def build_symbol(p, dims: LatticeDims) -> np.ndarray:
    """Read-only 16 x 16 symbol S(p) of d_c + delta_c at integer momentum p."""
    block = _symbol_block(_z(np.array(dims.wrap(p, "momentum"))[:, None], dims))[0]
    block.setflags(write=False)
    return block


def eigen_solve(p, dims: LatticeDims) -> tuple[np.ndarray, np.ndarray]:
    """Independent eigenpairs of i S(p), sorted by (re, im) of the eigenvalue.

    Returns read-only arrays (eigenvalues, amplitudes) of shapes (k,) and
    (k, 16): row j of amplitudes is the unit eigenvector of eigenvalues[j]
    (rows, unlike the columns of numpy's eig).  Off the light cone k = 16:
    e_B -+ S e_B / sqrt(s) for the 8 even blades B, in blade order within
    each eigenvalue.  On it k = 8, all with eigenvalue 0: S e_B / |S e_B| for
    the 8 blades B without e_nu, nu the axis whose p_nu / N_nu is nearest 1/2,
    which span ker S = range S; at S = 0 the 16 unit blades.  Each row yields
    an exact plane-wave solution of the massive equation with its eigenvalue
    as the (generally complex) mass.

    This is _eigen_stack on a stack of one momentum, so the momentum sweep
    of verify checks exactly these rows.
    """
    stack = np.array([dims.wrap(p, "momentum")])
    eigenvalues, amplitudes = next((values[0], amps[0])
                                   for values, amps, _ in _eigen_stack(stack, dims) if len(values))
    eigenvalues.setflags(write=False)
    amplitudes.setflags(write=False)
    return eigenvalues, amplitudes


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


def mass_unit(mass: complex) -> float:
    """2^-e for the exponent e of the larger part of mass, or 1 where e < 1:
    abs(mass 2^-e) cannot overflow, where abs(mass) raises OverflowError,
    and scaling by 2^-e is exact, so a test or product on scaled values has
    the unscaled bits wherever those are finite and normal."""
    return 2.0 ** -max(0, math.frexp(max(abs(mass.real), abs(mass.imag)))[1])


def propagator_solve(source: FormField, mass: complex) -> FormField:
    """Solve (i (d_c + delta_c) - m) omega = source in closed form.

    S(p)^2 = s(p) 1 gives (i S - m)^-1 = (i S + m) / (-s - m^2): the source
    is transformed, divided by that scalar momentum by momentum, transformed
    back, and i (d_c + delta_c) + m is applied in real space.  Where m^2
    overflows, |s/m^2| < 1e-307 is far below rounding, so -s - m^2 is -m^2
    and omega = h + i (d_c + delta_c) h / m with h = -source / m, formed in
    real space with no transform.  The block eigenvalues are +-i sqrt(s(p)),
    exactly 0 on the light cone; SingularBlockError is raised when the
    nearer one lies within 1e-12 max(1, |m|) of m.

    One field-sized array is made besides the source: the transforms and
    the divide (or h) run in place in a work array g, and d_plus_delta then
    writes i (d_c + delta_c) g + m g back over g one site slab at a time, once the
    stencil has read the slab's rows (it keeps a copy of row 0 for the
    periodic wrap).  g is returned.
    """
    mass = complex(mass)
    dims = source.dims
    unit = mass_unit(mass)
    scaled = mass * unit
    s, root = _roots(_grid_z(dims))
    root *= unit  # the singular test on m 2^-e, which decides as the one on m
    distance, p, eigenvalue = _nearest_eigenvalue(root, scaled)
    if distance <= 1e-12 * max(unit, abs(scaled)):
        raise SingularBlockError(momentum=p, eigenvalue=eigenvalue / unit, mass=mass)
    del root  # grid-sized, and of no use from here on
    work = np.empty_like(source.coeffs)
    large = not np.isfinite(mass * mass)
    if large:
        # a divide by m goes through m 2^-e: numpy's complex divide by m
        # itself gives 0 when both parts near the largest double
        np.divide(source.coeffs, -scaled, out=work)
        work *= unit  # h = -source / m
    else:
        np.subtract(np.negative(s, out=s), mass * mass, out=s)  # -s - m^2, in place of s
        np.fft.fftn(source.coeffs, axes=(0, 1, 2, 3), out=work)
        work /= s[..., None]
        del s
        np.fft.ifftn(work, axes=(0, 1, 2, 3), out=work)

    def store(rows, grad, spare):
        grad *= 1j
        if large:
            grad /= scaled
            grad *= unit  # h + i grad / m
        else:
            work[rows] *= mass
        work[rows] += grad  # m g + i grad, the same sum as i grad + m g

    # a read-only view of g, whose rows d_plus_delta reads before store overwrites them
    d_plus_delta(_adopt(dims, work.view()), out=store)
    return _adopt(dims, work)


def spectrum_rows(dims: LatticeDims, momenta):
    """Eigenvalue rows (p0, p1, p2, p3, re_lambda, im_lambda), 16 per momentum.

    -i sqrt(s(p)) and +i sqrt(s(p)), 8 rows each in (re, im) order; 0,0 on the
    light cone.  The eigenvalues of all momenta are computed as one stack.
    """
    stack = np.array([dims.wrap(p, "momentum") for p in momenta], dtype=np.int64).reshape(-1, 4)
    lo, hi = _eigenvalue_pair(_roots(_z(stack.T, dims))[1])
    for p, *pair in zip(map(tuple, stack.tolist()), lo.tolist(), hi.tolist()):
        for lam in pair:
            for _ in range(8):
                yield p + (lam.real, lam.imag)


def write_spectrum_csv(fh, dims: LatticeDims, momenta) -> None:
    """Write the spectrum as CSV with a header row."""
    import csv  # here, not at the top, so that no other verb loads it

    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["p0", "p1", "p2", "p3", "re_lambda", "im_lambda"])
    for p0, p1, p2, p3, re_l, im_l in spectrum_rows(dims, momenta):
        writer.writerow([p0, p1, p2, p3, format(re_l, ".17g"), format(im_l, ".17g")])
