"""Command line front end.

Exit codes: 0 on success, 1 when a verification-style command fails its
tolerance, 2 on usage errors, unreadable input, a singular solve, or an
allocation that fails.  Complex scalars are written "re,im" everywhere;
momenta and lattice dimensions are comma-separated integers.
"""

from __future__ import annotations

import argparse
import io
import re
import sys

import numpy as np

from .algebra import projector, right_mul
from .blades import MASK_BY_NAME, NUM_BLADES, blade_name
from .calculus import (d_c, delta_c, dk_apply, dk_residual, hestenes_apply,
                       hestenes_residual, solve_residual)
from .fields import (Equation, EquationParams, atomic_write_text,
                     constant_field, dumps_field, load_field, max_abs,
                     plane_wave, random_field, rms, save_field)
from .lattice import LatticeDims, site_iter
from .spectral import (eigen_solve, format_complex, mass_unit, propagator_solve,
                       write_spectrum_csv)
from .transfer import (DECOMPOSITION_TAGS, hestenes_quadruple, reconstruction_deviation,
                       tag_label, verify_quadruple_independence)
from .verify import (CHECK_NAMES, QUADRUPLE_ROUTE_BOUND, Verification, rel_error,
                     run_checks)

_EQUATIONS = {equation.value: equation for equation in Equation}

_OPERATORS = {
    "d": d_c,
    "delta": delta_c,
    "dk": dk_apply,
    "hestenes": hestenes_apply,
}

_VERIFY_CHOICES = CHECK_NAMES + ("all",)


def _arg_type(convert, valid, expected: str):
    """argparse type: convert(text) if valid, else exit 2 naming the expected form."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"{expected}, got {text!r}")
        return value
    return parse


def _re_im(text: str) -> complex:
    re_text, im_text = text.split(",")
    return complex(float(re_text), float(im_text))


def _ints(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


_parse_complex = _arg_type(_re_im, np.isfinite, "expected finite re,im")
_parse_momentum = _arg_type(_ints, lambda p: len(p) == 4, "expected integers p0,p1,p2,p3")
_tolerance = _arg_type(float, lambda v: 0.0 <= v < np.inf, "must be a finite number >= 0")
_seed = _arg_type(int, lambda v: v >= 0, "must be a non-negative integer")
_trials = _arg_type(int, lambda v: v >= 1, "must be a positive integer")


# Options whose re,im or p0,p1,p2,p3 value may start with a minus sign.
# argparse reads a token such as -2,0.5 as an option, because its pattern of
# negative numbers has no comma, so main joins each of these options to such
# a value as --mass=-2,0.5.
_SIGNED_OPTIONS = ("--mass", "--p")
_NEGATIVE = re.compile(r"-[0-9.]")


def _join_signed_values(argv: list) -> list:
    joined = []
    i = 0
    while i < len(argv):
        if argv[i] == "--":
            return joined + argv[i:]
        if (argv[i] in _SIGNED_OPTIONS and i + 1 < len(argv)
                and _NEGATIVE.match(argv[i + 1])):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    return joined


def _parse_dims(text: str) -> LatticeDims:
    try:
        return LatticeDims.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _blade_mask(name: str) -> int:
    key = name.strip().lower()
    if key in MASK_BY_NAME:
        return MASK_BY_NAME[key]
    try:
        mask = int(key)
    except ValueError:
        raise ValueError(f"unknown blade {name!r}") from None
    if not 0 <= mask < NUM_BLADES:
        raise ValueError(f"blade mask {mask} outside 0..{NUM_BLADES - 1}")
    return mask


def _amplitude_vector(entries) -> np.ndarray:
    amp = np.zeros(NUM_BLADES, dtype=np.complex128)
    seen = set()
    for entry in entries:
        name, sep, value = entry.partition("=")
        if not sep:
            raise ValueError(f"amplitude {entry!r} must look like BLADE=re,im")
        mask = _blade_mask(name)
        if mask in seen:
            raise ValueError(f"duplicate amplitude for blade {blade_name(mask)}")
        seen.add(mask)
        amp[mask] = _parse_complex(value)
    return amp


def _report(report: Verification) -> int:
    """Print a report's name=value lines; exit code 0 if it passed, else 1."""
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    dims = args.dims
    if args.kind == "random":
        if args.amp or args.p is not None or args.eigen is not None:
            raise ValueError("random fields take only --dims and --seed")
        omega = random_field(dims, args.seed)
    elif args.kind == "constant":
        if args.p is not None or args.eigen is not None:
            raise ValueError("constant fields take only --dims and --amp")
        omega = constant_field(dims, _amplitude_vector(args.amp))
    else:
        if args.p is None:
            raise ValueError("plane-wave needs --p")
        if (args.eigen is None) == (not args.amp):
            raise ValueError("plane-wave needs exactly one of --amp or --eigen")
        if args.eigen is not None:
            eigenvalues, amplitudes = eigen_solve(args.p, dims)
            if not 0 <= args.eigen < len(eigenvalues):
                defective = "" if len(eigenvalues) == NUM_BLADES else (
                    f"the block at p={tuple(args.p)} is defective (light cone): ")
                raise ValueError(f"{defective}--eigen must be in 0..{len(eigenvalues) - 1}")
            omega = plane_wave(dims, args.p, amplitudes[args.eigen])
            print(f"mass={format_complex(eigenvalues[args.eigen])}")
        else:
            omega = plane_wave(dims, args.p, _amplitude_vector(args.amp))
    if args.output is None:
        sys.stdout.write(dumps_field(omega) + "\n")
    else:
        save_field(omega, args.output)
    return 0


def _cmd_apply(args) -> int:
    omega = load_field(args.input)
    result = _OPERATORS[args.op](omega)
    save_field(result, args.output)
    print(f"max_abs={max_abs(result):.9g}")
    return 0


def _cmd_residual(args) -> int:
    omega = load_field(args.input)
    params = EquationParams(args.mass, _EQUATIONS[args.eq])
    if params.equation is Equation.DIRAC_KAHLER:
        residual = dk_residual(omega, params)
    else:
        residual = hestenes_residual(omega, params)
    dev = max_abs(residual)
    # max_abs(omega) max(1, |m|), through |m 2^-e|: abs(m) raises past the largest double
    unit = mass_unit(params.mass)
    scale = max_abs(omega) * max(unit, abs(params.mass * unit)) / unit
    report = Verification()
    report.add("max_abs", dev)
    report.add("rms", rms(residual))
    report.add("scale", scale)
    report.add("rel", rel_error(dev, scale), args.tol)
    return _report(report)


def _cmd_spectrum(args) -> int:
    if args.all == bool(args.p):
        raise ValueError("spectrum needs exactly one of --p or --all")
    momenta = list(site_iter(args.dims)) if args.all else args.p
    buffer = io.StringIO()
    write_spectrum_csv(buffer, args.dims, momenta)
    if args.output is None:
        sys.stdout.write(buffer.getvalue())
    else:
        atomic_write_text(args.output, buffer.getvalue())
    return 0


def _cmd_verify(args) -> int:
    report = run_checks(args.prop, args.dims, trials=args.trials, seed=args.seed)
    if args.tol_scale != 1.0:
        report = report.scaled(args.tol_scale)
    return _report(report)


def _cmd_decompose(args) -> int:
    omega = load_field(args.input)
    for tag in DECOMPOSITION_TAGS:  # one part at a time, so that two fields are held
        save_field(right_mul(omega, projector(tag)), f"{args.out_prefix}.{tag_label(tag)}.json")
    dev = reconstruction_deviation(omega)
    report = Verification()
    report.add("reconstruction_rel", rel_error(dev, max_abs(omega)), args.tol)
    return _report(report)


def _cmd_quadruple(args) -> int:
    omega = load_field(args.input)
    members, route_deviation = hestenes_quadruple(omega)
    for i, member in enumerate(members, start=1):
        save_field(member, f"{args.out_prefix}.q{i}.json")
    scale = max_abs(omega)
    report = Verification()
    report.add("route_rel", rel_error(route_deviation, scale), QUADRUPLE_ROUTE_BOUND)
    rank, singular_values, threshold = verify_quadruple_independence(members)
    report.add("rank", rank)
    report.add("rank_threshold", threshold)
    for i, s in enumerate(singular_values):
        report.add(f"sigma_{i}", s)
    if args.mass.imag == 0.0:
        params = EquationParams(args.mass, Equation.HESTENES)
        res_scale = max(scale, 1.0) * max(1.0, abs(args.mass))
        for i, member in enumerate(members, start=1):
            report.add(f"residual_q{i}", max_abs(hestenes_residual(member, params)) / res_scale,
                       args.tol)
    else:
        # Individual members only satisfy the componentwise equations for
        # real mass; for complex mass just the construction is checked.
        report.note("mass_real", "false")
    return _report(report)


def _cmd_solve(args) -> int:
    source = load_field(args.input)
    solution = propagator_solve(source, args.mass)
    save_field(solution, args.output)
    dev = solve_residual(solution, args.mass, source)
    report = Verification()
    report.add("residual_rel", rel_error(dev, max_abs(source)), args.tol)
    return _report(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dklattice",
        description="Discrete Dirac-Kahler calculus on a periodic lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a field file")
    gen.add_argument("kind", choices=("random", "constant", "plane-wave"))
    gen.add_argument("--dims", type=_parse_dims, default=LatticeDims(3, 3, 3, 3),
                     help="lattice extents n0,n1,n2,n3 (default 3,3,3,3)")
    gen.add_argument("--seed", type=_seed, default=0, help="random seed")
    gen.add_argument("--amp", action="append", default=[], metavar="BLADE=RE,IM",
                     help="blade amplitude, repeatable (e.g. e01=1,0)")
    gen.add_argument("--p", type=_parse_momentum, default=None, metavar="P0,P1,P2,P3",
                     help="integer momentum for plane waves")
    gen.add_argument("--eigen", type=int, default=None, metavar="INDEX",
                     help="use eigenvector INDEX of the momentum matrix "
                          "as the amplitude and print its mass")
    gen.add_argument("-o", "--output", default=None,
                     help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    apply_p = sub.add_parser("apply", help="apply an operator to a field file")
    apply_p.add_argument("op", choices=sorted(_OPERATORS))
    apply_p.add_argument("-i", "--input", required=True)
    apply_p.add_argument("-o", "--output", required=True)
    apply_p.set_defaults(func=_cmd_apply)

    residual = sub.add_parser("residual", help="evaluate an equation residual")
    residual.add_argument("eq", choices=sorted(_EQUATIONS))
    residual.add_argument("-i", "--input", required=True)
    residual.add_argument("--mass", type=_parse_complex, default=0j, metavar="RE,IM")
    residual.add_argument("--tol", type=_tolerance, default=1e-12,
                          help="relative tolerance on max_abs (default 1e-12)")
    residual.set_defaults(func=_cmd_residual)

    spectrum = sub.add_parser("spectrum", help="eigenvalues per momentum as CSV")
    spectrum.add_argument("--dims", type=_parse_dims,
                          default=LatticeDims(3, 3, 3, 3))
    spectrum.add_argument("--p", type=_parse_momentum, action="append", default=[],
                          metavar="P0,P1,P2,P3", help="momentum, repeatable")
    spectrum.add_argument("--all", action="store_true", help="every momentum")
    spectrum.add_argument("-o", "--output", default=None,
                          help="output path (default stdout)")
    spectrum.set_defaults(func=_cmd_spectrum)

    verify = sub.add_parser("verify", help="run numerical identity checks")
    verify.add_argument("prop", choices=_VERIFY_CHOICES)
    verify.add_argument("--dims", type=_parse_dims,
                        default=LatticeDims(3, 3, 3, 3))
    verify.add_argument("--trials", type=_trials, default=50,
                        help="random fields per sampled family (default 50); propagator "
                             "solves at most 50 sources; clifford, 2, 4, 5, matrix and "
                             "spectral ignore it")
    verify.add_argument("--seed", type=_seed, default=0)
    verify.add_argument("--tol-scale", type=_tolerance, default=1.0,
                        help="multiply every bound by this factor")
    verify.set_defaults(func=_cmd_verify)

    dec = sub.add_parser("decompose", help="split a field into projector parts")
    dec.add_argument("-i", "--input", required=True)
    dec.add_argument("--out-prefix", required=True,
                     help="writes PREFIX.pp/.mp/.pm/.mm.json")
    dec.add_argument("--tol", type=_tolerance, default=1e-12,
                     help="relative reconstruction tolerance")
    dec.set_defaults(func=_cmd_decompose)

    quad = sub.add_parser("quadruple",
                          help="build the four even real companion fields")
    quad.add_argument("-i", "--input", required=True)
    quad.add_argument("--mass", type=_parse_complex, default=0j, metavar="RE,IM")
    quad.add_argument("--out-prefix", required=True,
                      help="writes PREFIX.q1.json .. PREFIX.q4.json")
    quad.add_argument("--tol", type=_tolerance, default=1e-12,
                      help="relative residual tolerance at real mass")
    quad.set_defaults(func=_cmd_quadruple)

    solve = sub.add_parser("solve", help="invert (i(d+delta) - m) against a source")
    solve.add_argument("-i", "--input", required=True, help="source field file")
    solve.add_argument("--mass", type=_parse_complex, default=0j, metavar="RE,IM")
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--tol", type=_tolerance, default=1e-11,
                       help="relative residual tolerance")
    solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None
                                                      else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow and invalid values show as inf and nan in the report, not
        # as numpy warnings on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: out of memory: {exc}".rstrip(": "), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
