"""Projector decomposition and solution transfer to the Hestenes equation.

Right-multiplying a solution of the massive Dirac-Kahler equation by the
four compound projectors splits it into parts that solve the Hestenes
equation (tags "++" and "--") or its sign-flipped variant ("-+" and "+-").
decompose returns the parts as a dict keyed by tag, in DECOMPOSITION_TAGS
order, sum_parts adds them back up, and reconstruction_deviation measures
that sum against omega.  From one solution omega a
quadruple of real even Hestenes fields is built out of its real companion
(Re omega) e0 - (Im omega) e1 e2, in two independent ways that must agree
to rounding; hestenes_quadruple returns the four members as a tuple,
together with the largest difference between the two routes.
"""

from __future__ import annotations

import numpy as np

from . import blades
from .algebra import E0, E12, E012, projector, right_mul, right_mul_matrix
from .calculus import dk_residual, hestenes_residual, site_slabs
from .fields import (Equation, EquationParams, FormField, _adopt, even_part,
                     max_abs, odd_part, worst)

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
    NaN, one site slab at a time, so that no whole part or sum is made.  A
    row of a matmul does not depend on the rows beside it, so each slab's
    parts are those of decompose, bit for bit."""
    matrices = [right_mul_matrix(projector(tag)) for tag in DECOMPOSITION_TAGS]
    slab_maxima = []
    for rows in site_slabs(omega.coeffs):
        flat = omega.coeffs[rows].reshape(-1, blades.NUM_BLADES)
        total = sum_parts({tag: flat @ m for tag, m in zip(DECOMPOSITION_TAGS, matrices)})
        slab_maxima.append(np.max(np.abs(total - flat)))
    return worst(slab_maxima)


def _re_im(omega: FormField) -> tuple[FormField, FormField]:
    return _adopt(omega.dims, omega.coeffs.real), _adopt(omega.dims, omega.coeffs.imag)


def omega_pm(omega: FormField, sign: str) -> FormField:
    """The real companion fields of omega.

    With overall sign s = +-1 this is
    s/2 (omega + conj) e0 + s i/2 (omega - conj) e1 e2,
    that is s ((Re omega) e0 - (Im omega) e1 e2), which is real-valued for
    any omega; "-" is the negative of "+".
    """
    if sign not in ("+", "-"):
        raise ValueError(f'sign must be "+" or "-", got {sign!r}')
    s = 1.0 if sign == "+" else -1.0
    re, im = _re_im(omega)
    # s * rather than a negation, which would flip the sign of each zero
    return s * (right_mul(re, E0) - right_mul(im, E12))


def _quadruple_direct(omega: FormField):
    plus = omega_pm(omega, "+")
    return (even_part(plus),) + tuple(even_part(right_mul(plus, c)) for c in (E0, E12, E012))


def _quadruple_closed_form(omega: FormField):
    """The four members as signed sums of the even and odd parts of Re omega
    and Im omega, one member at a time."""
    # Re omega and Im omega go as soon as both are split
    re_ev, re_od, im_ev, im_od = (part(f) for f in _re_im(omega) for part in (even_part, odd_part))
    yield right_mul(re_od, E0) - right_mul(im_ev, E12)
    yield re_ev - right_mul(im_od, E012)
    yield right_mul(re_od, E012) + im_ev
    yield right_mul(re_ev, E12) + right_mul(im_od, E0)


def hestenes_quadruple(omega: FormField) -> tuple[tuple, float]:
    """Build the four even real companion fields of omega.

    Returns (members, route_deviation).  members are the even parts of
    omega_plus times 1, e0, e1 e2 and e0 e1 e2, in that order, from the
    direct route; the closed-form route is compared with it one member at a
    time, and route_deviation is the largest absolute difference between
    the two.  verify.QUADRUPLE_ROUTE_BOUND bounds it relative to
    max_abs(omega).
    """
    direct = _quadruple_direct(omega)
    deviation = worst(max_abs(a - b) for a, b in zip(direct, _quadruple_closed_form(omega)))
    return direct, deviation


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

    Returns (rank, singular_values, threshold).  Rows are the flattened
    coefficient arrays; singular values below threshold, RANK_THRESHOLD_RATIO
    times the largest, count as zero.  All-zero input has rank 0.
    """
    matrix = np.stack([f.coeffs.ravel() for f in members])
    singular = np.linalg.svd(matrix, compute_uv=False)
    top = float(singular[0])
    threshold = RANK_THRESHOLD_RATIO * top
    rank = 0 if top == 0.0 else int(np.sum(singular > threshold))
    return rank, tuple(float(s) for s in singular), threshold
