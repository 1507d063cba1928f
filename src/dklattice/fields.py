"""Inhomogeneous discrete forms on a periodic lattice.

A field assigns one complex coefficient per (site, blade).  Coefficients
are stored as a C-ordered complex128 array of shape (N0, N1, N2, N3, 16)
with the blade axis last and blades ordered by ascending mask, so the
canonical flat order (sites row-major, then blades) is the plain ravel.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import blades
from .lattice import LatticeDims


class Equation(Enum):
    """Which lattice equation a residual refers to."""

    DIRAC_KAHLER = "dk"
    HESTENES = "hestenes"
    HESTENES_FLIPPED = "hestenes-flipped"


@dataclass(frozen=True)
class EquationParams:
    """Mass parameter plus the equation tag it belongs to."""

    mass: complex
    equation: Equation = Equation.DIRAC_KAHLER

    def __post_init__(self):
        object.__setattr__(self, "mass", complex(self.mass))
        if not isinstance(self.equation, Equation):
            raise TypeError(f"equation must be an Equation, got {self.equation!r}")


@dataclass(frozen=True, eq=False)
class FormField:
    """Complex 16-vector of blade coefficients at every lattice site."""

    dims: LatticeDims
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, order="C", copy=True)
        expected = self.dims.shape + (blades.NUM_BLADES,)
        if arr.shape != expected:
            raise ValueError(f"coefficient array must have shape {expected}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        _check_same_dims(self, other)
        return FormField(self.dims, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        _check_same_dims(self, other)
        return FormField(self.dims, self.coeffs - other.coeffs)

    def __neg__(self):
        return FormField(self.dims, -self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return FormField(self.dims, self.coeffs * scalar)
        return NotImplemented

    __rmul__ = __mul__


def _check_same_dims(a: FormField, b: FormField):
    if a.dims != b.dims:
        raise ValueError(f"lattice dimension mismatch: {a.dims.shape} vs {b.dims.shape}")


def zeros(dims: LatticeDims) -> FormField:
    return FormField(dims, np.zeros(dims.shape + (blades.NUM_BLADES,), dtype=np.complex128))


def constant_field(dims: LatticeDims, amplitude) -> FormField:
    """Field with the same 16-vector of blade coefficients at every site."""
    amp = np.asarray(amplitude, dtype=np.complex128)
    if amp.shape != (blades.NUM_BLADES,):
        raise ValueError(f"amplitude must have shape (16,), got {amp.shape}")
    return FormField(dims, np.broadcast_to(amp, dims.shape + (blades.NUM_BLADES,)))


def grade_part(omega: FormField, r: int) -> FormField:
    """Projection onto the blades of grade r (0 <= r <= 4)."""
    if r not in (0, 1, 2, 3, 4):
        raise ValueError(f"grade must be 0..4, got {r}")
    return FormField(omega.dims, omega.coeffs * (blades.GRADES == r))


def even_part(omega: FormField) -> FormField:
    return FormField(omega.dims, omega.coeffs * (blades.GRADES % 2 == 0))


def odd_part(omega: FormField) -> FormField:
    return FormField(omega.dims, omega.coeffs * (blades.GRADES % 2 == 1))


def conjugate(omega: FormField) -> FormField:
    """Componentwise complex conjugate."""
    return FormField(omega.dims, np.conj(omega.coeffs))


def max_abs(omega: FormField) -> float:
    return float(np.max(np.abs(omega.coeffs)))


def rms(omega: FormField) -> float:
    return float(np.sqrt(np.mean(np.abs(omega.coeffs) ** 2)))


def plane_wave(dims: LatticeDims, p, amplitude) -> FormField:
    """Plane wave amplitude[B] * exp(2 pi i sum_mu p_mu k_mu / N_mu).

    Momentum components are integers, reduced modulo the extents.
    """
    if len(p) != 4:
        raise ValueError(f"momentum must have four components, got {p!r}")
    p = tuple(int(c) % n for c, n in zip(p, dims.shape))
    amp = np.asarray(amplitude, dtype=np.complex128)
    if amp.shape != (blades.NUM_BLADES,):
        raise ValueError(f"amplitude must have shape (16,), got {amp.shape}")
    k0, k1, k2, k3 = np.ogrid[0:dims.n0, 0:dims.n1, 0:dims.n2, 0:dims.n3]
    phase = (p[0] * k0 / dims.n0 + p[1] * k1 / dims.n1
             + p[2] * k2 / dims.n2 + p[3] * k3 / dims.n3)
    wave = np.exp(2j * np.pi * phase)
    return FormField(dims, wave[..., None] * amp)


def random_field(dims: LatticeDims, seed: int) -> FormField:
    """Deterministic random field for a given seed.

    Draws from numpy's PCG64 generator seeded with `seed`: one uniform(-1, 1)
    block of shape (2, N0, N1, N2, N3, 16), slab 0 the real parts and slab 1
    the imaginary parts.  The same seed and extents always reproduce the
    field bit for bit.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    block = rng.uniform(-1.0, 1.0, size=(2,) + dims.shape + (blades.NUM_BLADES,))
    return FormField(dims, block[0] + 1j * block[1])


class FieldFormatError(ValueError):
    """Raised when a serialized field cannot be parsed or validated."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def dumps_field(omega: FormField) -> str:
    """Serialize to the canonical JSON text form.

    Layout: {"dims": [N0, N1, N2, N3], "coeffs": [...]} with 2 * 16 * volume
    numbers ordered site-major (row-major site order), then blade mask
    ascending, then (re, im).  Numbers carry 17 significant digits so the
    round trip is bit exact.
    """
    pairs = omega.coeffs.reshape(-1).view(np.float64)  # (re, im) interleaved
    if not np.all(np.isfinite(pairs)):
        raise ValueError("cannot serialize non-finite coefficients")
    dims_text = ", ".join(str(n) for n in omega.dims.shape)
    step = 1 << 16  # numbers per C-level % call
    parts = [f'{{"dims": [{dims_text}], "coeffs": [']
    for start in range(0, pairs.size, step):
        values = tuple(pairs[start:start + step].tolist())
        parts += [", ".join(["%.17g"] * len(values)) % values, ", "]
    parts[-1] = "]}"
    return "".join(parts)  # one join, so the text exists once


def loads_field(text: str) -> FormField:
    """Parse the canonical JSON text form; inverse of dumps_field."""
    try:
        # dumps_field writes -0.0 as "-0", which int() would read as plain 0
        doc = json.loads(text, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"malformed field file: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise FieldFormatError("field file must contain a JSON object")
    extra = set(doc) - {"dims", "coeffs"}
    if extra:
        raise FieldFormatError(f"unexpected keys in field file: {sorted(extra)}")
    if "dims" not in doc or "coeffs" not in doc:
        raise FieldFormatError('field file must contain "dims" and "coeffs"')
    dims_raw = doc["dims"]
    if not isinstance(dims_raw, list) or len(dims_raw) != 4 or set(map(type, dims_raw)) != {int}:
        raise FieldFormatError(f'"dims" must be a list of four integers, got {dims_raw!r}')
    try:
        dims = LatticeDims(*dims_raw)
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"invalid lattice extents: {exc}") from exc
    coeffs_raw = doc["coeffs"]
    expected = 2 * 16 * dims.volume
    if not isinstance(coeffs_raw, list) or len(coeffs_raw) != expected:
        got = len(coeffs_raw) if isinstance(coeffs_raw, list) else type(coeffs_raw).__name__
        raise FieldFormatError(f'"coeffs" must be a list of {expected} numbers, got {got}')
    if not set(map(type, coeffs_raw)) <= {int, float}:
        raise FieldFormatError('"coeffs" entries must all be numbers')
    try:
        pairs = np.asarray(coeffs_raw, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        pairs = np.array(np.inf)
    if not np.all(np.isfinite(pairs)):
        raise FieldFormatError('"coeffs" entries must all be finite numbers')
    coeffs = pairs.view(np.complex128).reshape(dims.shape + (blades.NUM_BLADES,))
    return FormField(dims, coeffs)


def save_field(omega: FormField, path) -> None:
    """Write the serialized field atomically (temp file plus rename)."""
    atomic_write_text(path, dumps_field(omega) + "\n")


def load_field(path) -> FormField:
    with open(path, "rb") as fh:
        try:
            return loads_field(fh.read().decode("ascii"))
        except UnicodeDecodeError as exc:
            raise FieldFormatError("field file must be ASCII text", offset=exc.start) from exc


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and os.replace.

    The file gets the mode open() would give it (0o666 less the umask), not
    the temp file's 0o600, and an OSError names path, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
