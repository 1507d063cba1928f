"""Projector decomposition and solution transfer to the Hestenes equation.

Right-multiplying a solution of the massive Dirac-Kahler equation by the
four compound projectors splits it into parts that solve the Hestenes
equation (tags "++" and "--") or its sign-flipped variant ("-+" and "+-").
From one solution omega a quadruple of real even Hestenes fields is built
out of its real companion (Re omega) e0 - (Im omega) e1 e2, in two
independent ways that must agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import E0, E12, E012, projector, right_mul
from .calculus import dk_residual, hestenes_residual
from .fields import (Equation, EquationParams, FormField, _adopt, even_part,
                     max_abs, odd_part)

# Decomposition order of the compound projector tags.
DECOMPOSITION_TAGS = ("++", "-+", "+-", "--")


@dataclass(frozen=True)
class DecompositionResult:
    """The four projector parts of a field, keyed by compound tag."""

    pp: FormField
    mp: FormField
    pm: FormField
    mm: FormField

    def parts(self):
        return (("++", self.pp), ("-+", self.mp), ("+-", self.pm), ("--", self.mm))

    def total(self) -> FormField:
        return self.pp + self.mp + self.pm + self.mm


def decompose(omega: FormField) -> DecompositionResult:
    """Split omega into its four compound projector parts."""
    return DecompositionResult(*(right_mul(omega, projector(tag)) for tag in DECOMPOSITION_TAGS))


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


@dataclass(frozen=True)
class HestenesQuadruple:
    """Even parts of omega_plus times 1, e0, e1 e2, and e0 e1 e2."""

    omega1: FormField
    omega2: FormField
    omega3: FormField
    omega4: FormField
    route_deviation: float

    def fields(self):
        return (self.omega1, self.omega2, self.omega3, self.omega4)


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


def hestenes_quadruple(omega: FormField) -> HestenesQuadruple:
    """Build the four even real companion fields of omega.

    The members come from the direct route (even parts of omega_plus times
    blades); the closed-form route is compared with it one member at a time,
    and route_deviation is the largest absolute difference between the two.
    verify.QUADRUPLE_ROUTE_BOUND bounds it relative to max_abs(omega).
    """
    direct = _quadruple_direct(omega)
    deviation = max(max_abs(a - b) for a, b in zip(direct, _quadruple_closed_form(omega)))
    return HestenesQuadruple(*direct, route_deviation=deviation)


@dataclass(frozen=True)
class Prop4Report:
    """Max-abs residuals of omega (dk_residual) and of its four projector
    parts (residuals, keyed by tag) against their equations."""

    mass: complex
    scale: float
    dk_residual: float
    residuals: dict


def tag_label(tag: str) -> str:
    """File-name and report-key form of a projector tag: "+-" becomes "pm"."""
    return tag.replace("+", "p").replace("-", "m")


_PART_EQUATIONS = {
    "++": Equation.HESTENES,
    "--": Equation.HESTENES,
    "-+": Equation.HESTENES_FLIPPED,
    "+-": Equation.HESTENES_FLIPPED,
}


def verify_prop4(omega: FormField, mass: complex) -> Prop4Report:
    """Measure the solution-transfer claims for one candidate solution.

    dk_residual is the max-abs residual of omega against the Dirac-Kahler
    equation at mass, the precondition of the claims.  The "++" and "--"
    parts are measured against the Hestenes equation, the "-+" and "+-"
    parts against its sign-flipped variant.  scale is max_abs(omega).
    """
    mass = complex(mass)
    scale = max_abs(omega)
    dk = max_abs(dk_residual(omega, EquationParams(mass)))
    residuals = {}
    for tag, part in decompose(omega).parts():
        params = EquationParams(mass, _PART_EQUATIONS[tag])
        residuals[tag] = max_abs(hestenes_residual(part, params))
    return Prop4Report(mass=mass, scale=scale, dk_residual=dk, residuals=residuals)


# Singular values below this fraction of the largest count as zero.
RANK_THRESHOLD_RATIO = 1e-10


@dataclass(frozen=True)
class IndependenceReport:
    """Numerical rank of the stacked quadruple coefficient matrix."""

    rank: int
    singular_values: tuple
    threshold: float

    def lines(self) -> list[str]:
        out = [f"rank={self.rank}", f"rank_threshold={self.threshold:.9g}"]
        for i, s in enumerate(self.singular_values):
            out.append(f"sigma_{i}={s:.9g}")
        return out


def verify_quadruple_independence(quad: HestenesQuadruple) -> IndependenceReport:
    """Report the rank of the four stacked fields.

    Rows are the flattened coefficient arrays; singular values below
    RANK_THRESHOLD_RATIO times the largest count as zero.  All-zero input
    has rank 0.
    """
    matrix = np.stack([f.coeffs.ravel() for f in quad.fields()])
    singular = np.linalg.svd(matrix, compute_uv=False)
    top = float(singular[0])
    threshold = RANK_THRESHOLD_RATIO * top
    rank = 0 if top == 0.0 else int(np.sum(singular > threshold))
    return IndependenceReport(rank=rank,
                              singular_values=tuple(float(s) for s in singular),
                              threshold=threshold)
