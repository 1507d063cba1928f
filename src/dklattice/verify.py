"""Numerical verification harness for the operator and projector claims.

Each check_* function exercises one family of identities and returns a
Verification: named numeric checks with bounds, plus informational lines.
The command line prints these as key=value text; the acceptance tests call
them directly at their contract tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import blades
from .algebra import (E0, E12, PROJECTOR_TAGS, ConstantForm, clifford_mul,
                      is_constant, projector, right_mul, right_mul_matrix)
from .calculus import (_hestenes_sign, d_c, d_plus_delta, d_plus_delta_via_clifford,
                       delta_c, dk_apply, hestenes_residual, hestenes_residual_componentwise,
                       solve_residual)
from .fields import (Equation, EquationParams, FormField, _draws, constant_field,
                     even_part, max_abs, odd_part, plane_wave, random_field, worst)
from .lattice import LatticeDims, shift, site_iter
from .spectral import (_eigen_stack, _eigenvalue_pair, _grid_z, _nearest_eigenvalue,
                       _roots, eigen_solve, propagator_solve)
from .transfer import (_PART_EQUATIONS, DECOMPOSITION_TAGS, decompose,
                       hestenes_quadruple, sum_parts, verify_quadruple_independence)

# Bound on the quadruple's route_deviation relative to max_abs(omega).
QUADRUPLE_ROUTE_BOUND = 1e-14

# check_propagator's masses, tried in order: the first farther than
# PROPAGATOR_MASS_GAP max(1, |m|) from every block eigenvalue is used.  Over
# all extents up to 12, mass 1 is either within 1e-15 of the spectrum (as at
# 6^4 and 12^4) or at least 3.3e-3 from it, so the gap keeps mass 1 wherever
# it can be solved.
PROPAGATOR_MASSES = (1.0 + 0.0j, 0.5 + 0.0j, 0.75 + 0.25j)
PROPAGATOR_MASS_GAP = 1e-3

# Momenta per stack of the momentum sweep.  The stacks bound memory, not time:
# at 8^4 the sweep in one stack of every momentum peaks at 129 MiB under
# tracemalloc, in stacks of 16 at 0.7 MiB, and both take the same time.
SWEEP_MOMENTA = 16


@dataclass(frozen=True)
class Check:
    """One named value with its acceptance bound, or with None for a value
    that is only reported and never fails."""

    name: str
    value: float
    bound: float | None

    @property
    def passed(self) -> bool:
        return self.bound is None or self.value <= self.bound


@dataclass
class Verification:
    """An ordered collection of checks plus informational lines."""

    checks: list = field(default_factory=list)
    info: list = field(default_factory=list)

    def add(self, name: str, value: float, bound: float | None = None) -> None:
        self.checks.append(Check(name, float(value), None if bound is None else float(bound)))

    def note(self, key: str, value) -> None:
        self.info.append((key, str(value)))

    def extend(self, other: "Verification") -> None:
        self.checks.extend(other.checks)
        self.info.extend(other.info)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def scaled(self, factor: float) -> "Verification":
        """Copy with every bound multiplied by factor (tolerance override)."""
        out = Verification(info=list(self.info))
        for c in self.checks:
            out.add(c.name, c.value, None if c.bound is None else c.bound * factor)
        return out

    def lines(self) -> list[str]:
        out = [f"{c.name}={c.value:.9g}" for c in self.checks]
        out.extend(f"{k}={v}" for k, v in self.info)
        out.append(f"status={'pass' if self.passed else 'fail'}")
        return out


def rel_error(deviation: float, scale: float) -> float:
    """deviation / scale, with 0/0 read as 0 and x/0 as inf."""
    if scale > 0.0:
        return deviation / scale
    return 0.0 if deviation == 0.0 else float("inf")


def blade_product_oracle(a, b) -> tuple:
    """Blade products by transposition counting, independent of the table.

    a and b are integer masks, or arrays of them that broadcast together.
    The sign is (-1) to the number of pairs (i in a, j in b) with i > j,
    times the metric factor of every generator the two masks share; the
    result mask is the symmetric difference.
    """
    a, b = np.asarray(a), np.asarray(b)
    swaps = sum(np.bitwise_count((a >> k) & b) for k in range(1, len(blades.AXES)))
    negative = sum(1 << mu for mu in blades.AXES if blades.METRIC[mu] < 0)
    # bitwise_count gives uint8, where 1 - 2 * 1 would wrap to 255
    flips = (swaps + np.bitwise_count(a & b & negative)).astype(np.int64)
    return 1 - 2 * (flips & 1), a ^ b


def check_clifford() -> Verification:
    """Exhaustive blade-product checks: rules, oracle, associativity.

    blade(a) * blade(b) = SIGN[a, b] * blade(a ^ b), so each key counts the
    entries of blades.SIGN, over the blade pairs or triples of np.indices,
    that break one rule.
    """
    ver = Verification()
    sign = blades.SIGN.astype(np.int64)
    a, b = np.indices(sign.shape)
    ver.add("clifford_oracle_mismatches", np.sum(sign != blade_product_oracle(a, b)[0]), 0)
    ver.add("clifford_rule1_violations",
            np.sum(sign[blades.X] != 1) + np.sum(sign[:, blades.X] != 1), 0)

    # Products e_mu e_nu of two generators, [mu, nu]: e_mu e_mu = g_mumu x,
    # and e_mu e_nu = -e_nu e_mu for mu != nu, both on blade e_mu ^ e_nu.
    gen = 1 << np.array(blades.AXES)
    gen_sign = sign[np.ix_(gen, gen)]
    metric = np.array(blades.METRIC)
    off = ~np.eye(len(gen), dtype=bool)
    rule2 = np.sum(np.diagonal(gen_sign) != metric) + np.sum((gen_sign != -gen_sign.T) & off)
    ver.add("clifford_rule2_violations", rule2, 0)

    # x e_mu1 e_mu2 ... = e_mu1mu2... for ascending mu, one generator at a time:
    # blade m times e_mu is +e_(m, mu) wherever every generator of m is below mu.
    m, mu = np.indices((blades.NUM_BLADES, len(gen)))
    ver.add("clifford_rule3_violations", np.sum((sign[m, gen[mu]] != 1) & (m < gen[mu])), 0)

    # e_mu e_nu + e_nu e_mu - 2 g_mumu delta_munu x, all on blade e_mu ^ e_nu.
    ver.add("clifford_anticommutator_violations",
            np.sum(gen_sign + gen_sign.T != 2 * np.diag(metric)), 0)

    # (a b) c = a (b c) over all triples of blades; both sides land on a ^ b ^ c.
    a, b, c = np.indices((blades.NUM_BLADES,) * 3)
    ver.add("clifford_associativity_violations",
            np.sum(sign[a, b] * sign[a ^ b, c] != sign[b, c] * sign[a, b ^ c]), 0)
    return ver


def _integer_field(dims: LatticeDims, seed: int) -> FormField:
    """A field of Gaussian integers below 2^20 in size: the random field of
    seed times 2^20, each part truncated toward zero.

    Every sum, difference and power-of-two scaling of its coefficients in
    the checks is exact in float64, so identities without irrational
    numbers hold exactly on it and are checked with bound 0.
    """
    parts = np.trunc(random_field(dims, seed).coeffs.view(np.float64) * 2 ** 20)
    return FormField(dims, parts.view(np.complex128))


def _fields(dims: LatticeDims, trials: int, seed: int):
    """The random fields of the trials, of seeds seed to seed + trials - 1."""
    return (random_field(dims, s) for s in range(seed, seed + trials))


def check_prop1(dims: LatticeDims, trials: int = 100, seed: int = 0) -> Verification:
    """Stencil route versus generator route for d_c + delta_c."""
    ver = Verification()
    devs = (rel_error(max_abs(d_plus_delta(omega) - d_plus_delta_via_clifford(omega)),
                      max_abs(omega)) for omega in _fields(dims, trials, seed))
    # bound 0: both routes add the same exact +-1 single-blade terms in the same axis order
    ver.add("prop1_max_rel_dev", worst(devs), 0)
    integer = _integer_field(dims, seed)
    ver.add("prop1_integer_max_abs",
            max_abs(d_plus_delta(integer) - d_plus_delta_via_clifford(integer)), 0)
    ver.note("prop1_trials", trials)
    return ver


def check_prop2() -> Verification:
    """Projector idempotence, commutation, and absorption, exactly: constant
    forms are dyadic and SIGN is +-1, so every product is exact and each
    bound is 0."""
    ver = Verification()
    e1e2 = ConstantForm.e(1) * ConstantForm.e(2)  # the product, so E12 is not taken on trust

    def dev(lhs: ConstantForm, rhs: ConstantForm) -> float:
        return float(np.max(np.abs(lhs.vector - rhs.vector)))

    idem = worst(dev(projector(tag) * projector(tag), projector(tag)) for tag in PROJECTOR_TAGS)
    ver.add("prop2_idempotence_dev", idem, 0)

    # The "0" and "12" factors commute with each other, and each with its e0 or e1 e2.
    pairs = [(projector(s0 + "0"), projector(s12 + "12")) for s0 in "+-" for s12 in "+-"]
    pairs += [(projector("+0"), E0), (projector("-0"), E0),
              (projector("+12"), e1e2), (projector("-12"), e1e2)]
    ver.add("prop2_commutation_dev", worst(dev(p * q, q * p) for p, q in pairs), 0)

    # P e0 (+-1) = P for P = (x +- e0)/2, and P e1 e2 (+-i) = P for P = (x +- i e1 e2)/2.
    absorbing = ((projector("+0"), E0, 1), (projector("-0"), E0, -1),
                 (projector("+12"), e1e2, 1j), (projector("-12"), e1e2, -1j))
    absorb = worst(dev(p, (p * c).scaled(factor)) for p, c, factor in absorbing)
    ver.add("prop2_absorption_dev", absorb, 0)
    return ver


def check_prop3(dims: LatticeDims, trials: int = 100, seed: int = 0) -> Verification:
    """Four-part decomposition: exact projector sum, field reconstruction."""
    ver = Verification()
    total = sum_parts({tag: projector(tag) for tag in DECOMPOSITION_TAGS})
    exact = 0 if (total - ConstantForm.unit()).is_zero() else 1
    ver.add("prop3_projector_sum_violations", exact, 0)

    devs = (rel_error(max_abs(sum_parts(decompose(omega)) - omega), max_abs(omega))
            for omega in _fields(dims, trials, seed))
    ver.add("prop3_max_rel_reconstruction", worst(devs), 1e-14)
    integer = _integer_field(dims, seed)
    ver.add("prop3_integer_max_abs", max_abs(sum_parts(decompose(integer)) - integer), 0)
    ver.note("prop3_trials", trials)
    return ver


def _row_rel(residual: np.ndarray, scale: np.ndarray) -> float:
    """Largest row max-abs of residual relative to that row's (positive) scale."""
    return float(np.max(np.max(np.abs(residual), axis=-1) / scale))


def _momentum_sweep(dims: LatticeDims) -> dict:
    """Check every eigenpair of every momentum block of the lattice.

    A plane wave of amplitude a at momentum p is mapped by d_c + delta_c to
    the plane wave of S(p) a, and right multiplication by a constant form
    acts on a alone, so each residual of such a solution is 16-vector
    algebra with the symbol block.  For each eigen solution a (a row) with
    eigenvalue lambda: the Dirac-Kahler residual i S a - lambda a, and for
    each projector part b = a P_tag the residual -(S b) e1 e2 - s lambda b e0
    of its Hestenes equation, with s = -1 for the sign-flipped parts.

    Returns the counts "momenta" and "solutions", "eigen_residual", the
    largest 2-norm of i S a - lambda a, and the max-abs residuals relative
    to max|a|: "rel_dk", "rel_hestenes" and "rel_flipped".

    The momenta go SWEEP_MOMENTA at a time, in site order, through
    _eigen_stack, and every product is stacked, one 16 x 16 slice per momentum.
    """
    parts = {tag: right_mul_matrix(projector(tag)) for tag in DECOMPOSITION_TAGS}
    signs = {tag: _hestenes_sign(_PART_EQUATIONS[tag]) for tag in DECOMPOSITION_TAGS}
    e0, e12 = right_mul_matrix(E0), right_mul_matrix(E12)
    momenta = solutions = 0
    eigen = rel_dk = 0.0
    rel = {Equation.HESTENES: 0.0, Equation.HESTENES_FLIPPED: 0.0}
    for start in range(0, dims.volume, SWEEP_MOMENTA):
        sites = np.arange(start, min(start + SWEEP_MOMENTA, dims.volume))
        stack = np.stack(np.unravel_index(sites, dims.shape), axis=1)
        for lam, amps, symbols in _eigen_stack(stack, dims):
            if not len(amps):
                continue
            lam = lam[..., None]
            scale = np.max(np.abs(amps), axis=2)
            s_t = np.swapaxes(symbols, 1, 2)  # rows times S^T are the rows of S a
            dk = 1j * (amps @ s_t) - lam * amps
            eigen = np.maximum(eigen, np.max(np.linalg.norm(dk, axis=2)))
            rel_dk = np.maximum(rel_dk, _row_rel(dk, scale))
            for tag, matrix in parts.items():
                part = amps @ matrix
                residual = -((part @ s_t) @ e12) - signs[tag] * lam * (part @ e0)
                equation = _PART_EQUATIONS[tag]
                rel[equation] = np.maximum(rel[equation], _row_rel(residual, scale))
            momenta += len(amps)
            solutions += lam.size
    return {"momenta": momenta, "solutions": solutions, "eigen_residual": float(eigen),
            "rel_dk": float(rel_dk), "rel_hestenes": float(rel[Equation.HESTENES]),
            "rel_flipped": float(rel[Equation.HESTENES_FLIPPED])}


def check_prop4(dims: LatticeDims, sweep: dict | None = None) -> Verification:
    """Solution transfer for every eigenpair at every momentum.

    sweep is the _momentum_sweep of dims, computed here when not given.
    """
    ver = Verification()
    sweep = sweep or _momentum_sweep(dims)
    ver.add("prop4_max_rel_dk_residual", sweep["rel_dk"], 1e-12)
    ver.add("prop4_max_rel_hestenes", sweep["rel_hestenes"], 1e-12)
    ver.add("prop4_max_rel_flipped", sweep["rel_flipped"], 1e-12)
    ver.note("prop4_solutions_checked", sweep["solutions"])
    return ver


def check_prop5(dims: LatticeDims, seed: int = 0) -> Verification:
    """Quadruple construction at mass zero, plus a real-mass case if available."""
    ver = Verification()
    amp = _draws(seed, 0, 16) + 1j * _draws(seed, 16, 16)
    omega = constant_field(dims, amp)
    scale = max_abs(omega)

    members, route_deviation = hestenes_quadruple(omega)
    params = EquationParams(0.0, Equation.HESTENES)
    odd_dev = worst(max_abs(odd_part(q)) for q in members)
    imag_dev = worst(np.max(np.abs(q.coeffs.imag)) for q in members)
    res_dev = worst(max_abs(hestenes_residual(q, params)) for q in members)
    # bound 0: the members are even parts of real fields
    ver.add("prop5_max_rel_odd", rel_error(odd_dev, scale), 0)
    ver.add("prop5_max_rel_imag", rel_error(imag_dev, scale), 0)
    ver.add("prop5_residual_mass0", res_dev, 0.0)
    ver.add("prop5_max_rel_route_dev", rel_error(route_deviation, scale),
            QUADRUPLE_ROUTE_BOUND)
    ver.add("prop5_integer_route_max_abs", hestenes_quadruple(_integer_field(dims, seed))[1], 0)
    rank, singular_values, _ = verify_quadruple_independence(members)
    ver.note("prop5_rank", rank)
    for i, s in enumerate(singular_values):
        ver.note(f"prop5_sigma_{i}", f"{s:.9g}")

    # The first momentum in site order with a real positive eigenvalue gives
    # a plane-wave solution of real mass, a nontrivial real-mass exercise.
    # Of the pair -+root only the larger one can be positive.
    def real_mass(lam):
        return (np.abs(lam.imag) <= 1e-12) & (lam.real > 1e-9)

    found = np.flatnonzero(real_mass(_eigenvalue_pair(_roots(_grid_z(dims))[1])[1]))
    if not len(found):
        ver.note("prop5_realmass", "skipped (no real nonzero eigenvalue)")
        return ver
    p = tuple(int(c) for c in np.unravel_index(found[0], dims.shape))
    mass, amp = next((lam, amp) for lam, amp in zip(*eigen_solve(p, dims)) if real_mass(lam))
    solution = plane_wave(dims, p, amp)
    members_real, _ = hestenes_quadruple(solution)
    params_real = EquationParams(mass.real, Equation.HESTENES)
    res_real = worst(max_abs(hestenes_residual(q, params_real)) for q in members_real)
    sol_scale = max_abs(solution)
    ver.add("prop5_realmass_max_rel_residual", rel_error(res_real, sol_scale), 1e-12)
    ver.note("prop5_realmass_momentum", ",".join(str(c) for c in p))
    ver.note("prop5_realmass_value", f"{mass.real:.9g}")
    return ver


def check_nilpotency(dims: LatticeDims, trials: int = 100, seed: int = 0) -> Verification:
    """d_c twice and delta_c twice vanish on random fields, exactly on integer ones."""
    ver = Verification()
    devs = [[rel_error(max_abs(op(op(omega))), max_abs(omega)) for op in (d_c, delta_c)]
            for omega in _fields(dims, trials, seed)]
    dd, deltadelta = np.reshape(devs, (-1, 2)).T
    ver.add("nilpotency_dd_max_rel", worst(dd), 1e-13)
    ver.add("nilpotency_deltadelta_max_rel", worst(deltadelta), 1e-13)
    integer = _integer_field(dims, seed)
    ver.add("nilpotency_dd_integer_max_abs", max_abs(d_c(d_c(integer))), 0)
    ver.add("nilpotency_deltadelta_integer_max_abs", max_abs(delta_c(delta_c(integer))), 0)
    ver.note("nilpotency_trials", trials)
    return ver


def check_componentwise(dims: LatticeDims, trials: int = 100, seed: int = 0) -> Verification:
    """Operator-form Hestenes residual versus the eight scalar equations."""
    ver = Verification()
    masses = 2 * _draws(seed, 0, 2 * trials).view(np.complex128)
    devs = []
    for omega, mass in zip(map(even_part, _fields(dims, trials, seed)), masses.tolist()):
        scale = max_abs(omega) * max(1.0, abs(mass))
        for equation in (Equation.HESTENES, Equation.HESTENES_FLIPPED):
            params = EquationParams(mass, equation)
            reference = right_mul(hestenes_residual(omega, params), E0)
            dev = max_abs(hestenes_residual_componentwise(omega, params) - reference)
            devs.append(rel_error(dev, scale))
    ver.add("componentwise_max_rel_dev", worst(devs), 1e-14)
    ver.note("componentwise_trials", trials)
    return ver


def _dk_oracle_rows(dims: LatticeDims):
    """The matrix of dk_apply, sum_mu i (T_mu - 1) kron L_mu, one site's 16 rows
    at a time, without the blade table: T_mu shifts sites forward (lattice.shift)
    and L_mu, left multiplication by e_mu, comes from blade_product_oracle."""
    n, axes = blades.NUM_BLADES, np.array(blades.AXES)[:, None]
    sign, mask = blade_product_oracle(1 << axes, np.arange(n))
    lefts = np.zeros((len(axes), n, n), dtype=np.complex128)
    lefts[axes, mask, np.arange(n)] = 1j * sign
    for k, site in enumerate(site_iter(dims)):
        rows = np.zeros((n, dims.volume, n), dtype=np.complex128)
        for mu in blades.AXES:
            rows[:, np.ravel_multi_index(shift(site, mu, dims), dims.shape)] += lefts[mu]
            rows[:, k] -= lefts[mu]
        yield rows.reshape(n, dims.volume * n)


def dk_matrix_oracle(dims: LatticeDims) -> np.ndarray:
    """The whole matrix of dk_apply: the row blocks of _dk_oracle_rows."""
    return np.concatenate(list(_dk_oracle_rows(dims)))


def check_matrix_oracle(seed: int = 0) -> Verification:
    """Matrix-free operator versus the independent matrix on a 2^4 lattice,
    applied to 20 random vectors."""
    ver = Verification()
    dims = LatticeDims(2, 2, 2, 2)
    n = dims.volume * blades.NUM_BLADES
    draws = _draws(seed, 0, 40 * n).reshape(20, 2, n)
    draws = (draws[:, 0] + 1j * draws[:, 1]).T
    direct = np.stack([dk_apply(FormField(dims, v.reshape(dims.shape + (16,)))).coeffs.ravel()
                       for v in draws.T], axis=1)
    # one site's rows as they are built: no whole matrix, and one OpenBLAS thread
    product = np.concatenate([rows @ draws for rows in _dk_oracle_rows(dims)])
    dev = np.max(np.abs(product - direct), axis=0)
    ver.add("matrix_oracle_max_rel_dev",
            worst(map(rel_error, dev, np.max(np.abs(draws), axis=0))), 1e-13)
    ver.note("matrix_oracle_dimension", n)
    return ver


def _symbol_route(omega: FormField) -> np.ndarray:
    """(d_c + delta_c) omega as the inverse FFT of S(p) times each Fourier mode.

    S(p) acts as the generator gather with z_mu(p) in place of delta_mu, one
    signed gather per axis over all modes; no block per momentum is built.
    """
    z = _grid_z(omega.dims)
    modes = np.fft.fftn(omega.coeffs, axes=(0, 1, 2, 3))
    out = np.zeros_like(modes)
    for mu in blades.AXES:
        out += (z[mu][..., None] * blades.GEN_SIGN[mu]) * modes[..., blades.GEN_SRC[mu]]
    return np.fft.ifftn(out, axes=(0, 1, 2, 3))


def check_spectral(dims: LatticeDims, seed: int = 0,
                   sweep: dict | None = None) -> Verification:
    """Eigenpair residuals at every momentum, and the stencil against the symbol.

    sweep is the _momentum_sweep of dims, computed here when not given.
    """
    ver = Verification()
    sweep = sweep or _momentum_sweep(dims)
    omega = random_field(dims, seed)
    dev = float(np.max(np.abs(d_plus_delta(omega).coeffs - _symbol_route(omega))))
    ver.add("spectral_eigen_residual_max", sweep["eigen_residual"], 1e-12)
    ver.add("spectral_max_rel_dk_residual", sweep["rel_dk"], 1e-12)
    ver.add("spectral_max_rel_symbol_dev", rel_error(dev, max_abs(omega)), 1e-13)
    ver.note("spectral_momenta", sweep["momenta"])
    return ver


def check_propagator(dims: LatticeDims, sources: int = 10, seed: int = 0) -> Verification:
    """A-posteriori residual of the momentum-block solver.

    The mass is the first of PROPAGATOR_MASSES far enough from the spectrum.
    When every one is within PROPAGATOR_MASS_GAP max(1, |m|) of a block
    eigenvalue no source is solved, and the residual reads inf, a failure.
    """
    ver = Verification()
    root = _roots(_grid_z(dims))[1]
    for mass in PROPAGATOR_MASSES:
        distance = _nearest_eigenvalue(root, mass)[0]
        if distance > PROPAGATOR_MASS_GAP * max(1.0, abs(mass)):
            break
    else:
        sources = 0
    devs = (rel_error(solve_residual(propagator_solve(source, mass), mass, source),
                      max_abs(source)) for source in _fields(dims, sources, seed))
    ver.add("propagator_max_rel_residual", worst(devs) if sources else float("inf"), 1e-11)
    ver.note("propagator_sources", sources)
    ver.note("propagator_mass", f"{mass.real:.9g},{mass.imag:.9g}")
    ver.note("propagator_mass_distance", f"{distance:.9g}")
    return ver


def check_constants(dims: LatticeDims) -> Verification:
    """Sanity of the constant-form materializations."""
    ver = Verification()
    violations = 0
    one = ConstantForm.unit().as_field(dims)
    if not is_constant(one):
        violations += 1
    if max_abs(clifford_mul(one, one) - one) != 0.0:
        violations += 1
    ver.add("constant_form_violations", violations, 0)
    return ver


CHECK_NAMES = ("clifford", "1", "2", "3", "4", "5", "nilpotency",
               "componentwise", "matrix", "spectral", "propagator")


def run_checks(name: str, dims: LatticeDims, trials: int = 50,
               seed: int = 0) -> Verification:
    """Run one named check family, or "all" of them, at the given size.

    Families 4 and spectral read one _momentum_sweep, computed at most once
    per call.
    """
    sources = min(trials, 50)
    sweep = cache(lambda: _momentum_sweep(dims))
    table = {
        "clifford": lambda: check_clifford(),
        "1": lambda: check_prop1(dims, trials, seed),
        "2": lambda: check_prop2(),
        "3": lambda: check_prop3(dims, trials, seed),
        "4": lambda: check_prop4(dims, sweep()),
        "5": lambda: check_prop5(dims, seed),
        "nilpotency": lambda: check_nilpotency(dims, trials, seed),
        "componentwise": lambda: check_componentwise(dims, trials, seed),
        "matrix": lambda: check_matrix_oracle(seed),
        "spectral": lambda: check_spectral(dims, seed, sweep()),
        "propagator": lambda: check_propagator(dims, sources, seed),
    }
    if name == "all":
        combined = Verification()
        for key in CHECK_NAMES:
            combined.extend(table[key]())
        combined.extend(check_constants(dims))
        return combined
    if name not in table:
        raise ValueError(f"unknown check {name!r}, expected one of "
                         f"{CHECK_NAMES + ('all',)}")
    return table[name]()
