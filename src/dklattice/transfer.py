"""Projector decomposition and solution transfer to the Hestenes equation.

Right-multiplying a solution of the massive Dirac-Kahler equation by the
four compound projectors splits it into parts that solve the Hestenes
equation (tags "++" and "--") or its sign-flipped variant ("-+" and "+-").
decompose returns the parts as a dict keyed by tag, in DECOMPOSITION_TAGS
order, sum_parts adds them back up, and reconstruction_deviation measures
that sum against omega.  From one solution omega a
quadruple of real even Hestenes fields is built out of its real companion
(Re omega) e0 - (Im omega) e1 e2, in two independent ways that must agree
to rounding, both in one pass over site slabs; hestenes_quadruple returns
the four members as a tuple, together with the largest difference between
the two routes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import blades
from .algebra import E0, E12, E012, projector, right_mul, right_mul_matrix, site_slabs
from .calculus import dk_residual, hestenes_residual
from .fields import Equation, EquationParams, FormField, _adopt, max_abs, worst

# Decomposition order of the compound projector tags.
DECOMPOSITION_TAGS = ("++", "-+", "+-", "--")


def decompose(omega: FormField) -> dict:
    """Split omega into its four compound projector parts, {tag: omega P_tag}
    in DECOMPOSITION_TAGS order."""
    return {tag: right_mul(omega, projector(tag)) for tag in DECOMPOSITION_TAGS}


def sum_parts(parts: dict):
    """The sum of the four parts keyed by tag, fields or constant forms,
    added in DECOMPOSITION_TAGS order: ((pp + mp) + pm) + mm."""
    pp, mp, pm, mm = (parts[tag] for tag in DECOMPOSITION_TAGS)
    return pp + mp + pm + mm


def reconstruction_deviation(omega: FormField) -> float:
    """max_abs(sum_parts(decompose(omega)) - omega), NaN if any slab holds
    NaN, one site slab at a time, so that no whole part or sum is made; the
    slabs' parts are those of decompose, bit for bit, as in algebra._gather_mul."""
    matrices = [right_mul_matrix(projector(tag)) for tag in DECOMPOSITION_TAGS]
    slab_maxima = []
    for rows in site_slabs(omega.coeffs):
        flat = omega.coeffs[rows].reshape(-1, blades.NUM_BLADES)
        total = sum_parts({tag: flat @ m for tag, m in zip(DECOMPOSITION_TAGS, matrices)})
        slab_maxima.append(np.max(np.abs(total - flat)))
    return worst(slab_maxima)


def hestenes_quadruple(omega: FormField) -> tuple[tuple, float]:
    """Build the four even real companion fields of omega.

    Returns (members, route_deviation).  members are the even parts of
    omega_plus = (Re omega) e0 - (Im omega) e1 e2 times 1, e0, e1 e2 and
    e0 e1 e2, in that order, from the direct route.  The closed-form route
    builds them as signed sums of the even and odd parts of Re omega and
    Im omega, and route_deviation is the largest absolute difference
    between the two.  Both run one site slab at a time, through the matrices
    of right_mul, so the members are those of the whole-field products bit
    for bit.  verify.QUADRUPLE_ROUTE_BOUND bounds route_deviation relative
    to max_abs(omega).
    """
    e0, e12, e012 = (right_mul_matrix(c) for c in (E0, E12, E012))
    even, odd = blades.GRADES % 2 == 0, blades.GRADES % 2 == 1
    members = tuple(np.empty_like(omega.coeffs) for _ in range(4))
    slab_maxima = []
    for rows in site_slabs(omega.coeffs):
        flat = omega.coeffs[rows].reshape(-1, blades.NUM_BLADES)
        re, im = (np.asarray(part, dtype=np.complex128) for part in (flat.real, flat.imag))
        # the companion's sign s = +1 as a product: by 1 + 0j, the real part
        # of a (-0, -0) entry is -0 - (-0), that is +0, as in the definition
        plus = 1.0 * (re @ e0 - im @ e12)
        direct = (plus * even,) + tuple((plus @ m) * even for m in (e0, e12, e012))
        re_ev, re_od, im_ev, im_od = re * even, re * odd, im * even, im * odd
        closed = (re_od @ e0 - im_ev @ e12, re_ev - im_od @ e012,
                  re_od @ e012 + im_ev, re_ev @ e12 + im_od @ e0)
        for member, a, b in zip(members, direct, closed):
            member[rows].reshape(-1, blades.NUM_BLADES)[:] = a
            slab_maxima.append(np.max(np.abs(a - b)))
    return tuple(_adopt(omega.dims, m) for m in members), worst(slab_maxima)


def tag_label(tag: str) -> str:
    """File-name and report-key form of a projector tag: "+-" becomes "pm"."""
    return tag.replace("+", "p").replace("-", "m")


_PART_EQUATIONS = {
    "++": Equation.HESTENES,
    "--": Equation.HESTENES,
    "-+": Equation.HESTENES_FLIPPED,
    "+-": Equation.HESTENES_FLIPPED,
}


def verify_prop4(omega: FormField, mass: complex) -> dict:
    """Measure the solution-transfer claims for one candidate solution.

    Returns max-abs residuals keyed "dk", then by tag in DECOMPOSITION_TAGS
    order.  "dk" is the residual of omega against the Dirac-Kahler equation
    at mass, the precondition of the claims.  The "++" and "--" parts are
    measured against the Hestenes equation, the "-+" and "+-" parts against
    its sign-flipped variant.
    """
    mass = complex(mass)
    residuals = {"dk": max_abs(dk_residual(omega, EquationParams(mass)))}
    for tag, part in decompose(omega).items():
        params = EquationParams(mass, _PART_EQUATIONS[tag])
        residuals[tag] = max_abs(hestenes_residual(part, params))
    return residuals


# Singular values below this fraction of the largest count as zero.
RANK_THRESHOLD_RATIO = 1e-10


def verify_quadruple_independence(members) -> tuple[int, tuple, float]:
    """The numerical rank of the stacked members of a quadruple.

    Returns (rank, singular_values, threshold).  Rows are the members' real
    even coefficients over a power of two, as in fields.rms, so that no dot
    product overflows or underflows.  One-sided Jacobi (Hestenes 1958) rotates
    each pair of rows orthogonal to within eps, in at most 30 sweeps as LAPACK's
    dgesvj, and the row norms are the singular values; those below threshold,
    RANK_THRESHOLD_RATIO times the largest, count as zero.  ValueError if a
    member has a nonzero imaginary or odd-blade coefficient.
    """
    if any(m.coeffs.imag.any() or m.coeffs[..., blades.ODD_BLADES].any() for m in members):
        raise ValueError("quadruple members must be real and even")
    scale = np.ldexp(1.0, np.frexp(worst(map(max_abs, members)))[1] - 1)
    rows = np.array([m.coeffs.real[..., blades.EVEN_BLADES].ravel() / scale for m in members])
    for _ in range(30):
        rotated = False
        for a, b in itertools.combinations(rows, 2):
            alpha, beta, gamma = float(a @ a), float(b @ b), float(a @ b)
            if abs(gamma) > math.ulp(1.0) * math.sqrt(alpha) * math.sqrt(beta):
                zeta = (beta - alpha) / (2.0 * gamma)  # cot of twice the angle
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                a[:], b[:] = c * a - c * t * b, c * t * a + c * b
                rotated = True
        if not rotated:
            break
    singular = np.sort(np.sqrt(np.einsum("ij,ij->i", rows, rows)))[::-1] * scale
    threshold = RANK_THRESHOLD_RATIO * float(singular[0])
    return int(np.sum(singular > threshold)), tuple(singular.tolist()), threshold
