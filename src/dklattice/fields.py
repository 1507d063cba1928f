"""Inhomogeneous discrete forms on a periodic lattice.

A field assigns one complex coefficient per (site, blade).  Coefficients
are stored as a C-ordered complex128 array of shape (N0, N1, N2, N3, 16)
with the blade axis last and blades ordered by ascending mask, so the
canonical flat order (sites row-major, then blades) is the plain ravel.

The public FormField constructor copies the array it is given.  Kernels
wrap the arrays they have just computed with _adopt instead, which marks
the array read-only and keeps it, so a result is never copied.

The JSON codec parses bytes in exactly the layout dumps_field writes by
cutting them into pieces that orjson parses into one float64 array; any
other text, or any that fails a check there, is decoded and goes whole
through json, so errors do not depend on the fast path.  A file is mapped
read-only and never decoded whole on the fast path, which hands the map's
pages back as it parses them.  A save spells each number as %.17g does,
byte for byte, from digits found with integer arithmetic on whole chunks
where 1e-11 < |x| < 2^51 and with % itself elsewhere, in ASCII bytes all
the way to the file.  A large field is split across two processes both
ways: a forked child formats or parses the second half of the numbers into
an unlinked temporary file while this process does the first, then takes
the child's half from it; a load without that file or child runs alone.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import itertools
import mmap
import os
import re
import struct
import tempfile
import threading
from collections.abc import Iterable, Iterator
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
        self._keep(np.array(self.coeffs, dtype=np.complex128, order="C", copy=True))

    def _keep(self, arr: np.ndarray) -> None:
        expected = self.dims.shape + (blades.NUM_BLADES,)
        if arr.shape != expected:
            raise ValueError(f"coefficient array must have shape {expected}, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __add__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        _check_same_dims(self, other)
        return _adopt(self.dims, self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        _check_same_dims(self, other)
        return _adopt(self.dims, self.coeffs - other.coeffs)

    def __neg__(self):
        return _adopt(self.dims, -self.coeffs)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return _adopt(self.dims, self.coeffs * scalar)
        return NotImplemented

    __rmul__ = __mul__


def _adopt(dims: LatticeDims, coeffs: np.ndarray) -> FormField:
    """FormField around an array a kernel has just computed, without a copy.

    The array is marked read-only and kept, so the caller must hold no
    writable reference to it that outlives its own use of the field.
    """
    field = object.__new__(FormField)
    object.__setattr__(field, "dims", dims)
    field._keep(np.asarray(coeffs, dtype=np.complex128, order="C"))
    return field


def _check_same_dims(a: FormField, b: FormField):
    if a.dims != b.dims:
        raise ValueError(f"lattice dimension mismatch: {a.dims.shape} vs {b.dims.shape}")


def constant_field(dims: LatticeDims, amplitude) -> FormField:
    """Field with the same 16-vector of blade coefficients at every site."""
    amp = np.asarray(amplitude, dtype=np.complex128)
    if amp.shape != (blades.NUM_BLADES,):
        raise ValueError(f"amplitude must have shape (16,), got {amp.shape}")
    return FormField(dims, np.broadcast_to(amp, dims.shape + (blades.NUM_BLADES,)))


def even_part(omega: FormField) -> FormField:
    return _adopt(omega.dims, omega.coeffs * (blades.GRADES % 2 == 0))


def odd_part(omega: FormField) -> FormField:
    return _adopt(omega.dims, omega.coeffs * (blades.GRADES % 2 == 1))


def worst(values) -> float:
    """The largest of some non-negative numbers: 0.0 when there are none, NaN
    when any is NaN (the builtin max drops a NaN that is not first)."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


def max_abs(omega: FormField) -> float:
    """Largest |coefficient|, NaN if any is NaN, over pieces of _CHUNK
    coefficients, so that no field-sized array of moduli is made."""
    flat = omega.coeffs.reshape(-1)
    return worst(np.max(np.abs(flat[start:start + _CHUNK]))
                 for start in range(0, flat.size, _CHUNK))


def rms(omega: FormField) -> float:
    """Root mean square |coefficient|, over pieces of _CHUNK as in max_abs.  The
    moduli are first divided by the power of two 2^(e-1) with max_abs in
    [2^(e-1), 2^e), which leaves them below 2, so at any finite scale no square
    overflows or goes subnormal.  That division is exact, so the result has
    the plain sum's bits wherever the plain sum is right."""
    flat = omega.coeffs.reshape(-1)
    scale = float(np.ldexp(1.0, np.frexp(max_abs(omega))[1] - 1))
    total = sum(float(np.sum((np.abs(flat[start:start + _CHUNK]) / scale) ** 2))
                for start in range(0, flat.size, _CHUNK))
    return scale * float(np.sqrt(total / flat.size))


def plane_wave(dims: LatticeDims, p, amplitude) -> FormField:
    """Plane wave amplitude[B] * exp(2 pi i sum_mu p_mu k_mu / N_mu).

    Momentum components are integers, reduced modulo the extents.
    """
    p = dims.wrap(p, "momentum")
    amp = np.asarray(amplitude, dtype=np.complex128)
    if amp.shape != (blades.NUM_BLADES,):
        raise ValueError(f"amplitude must have shape (16,), got {amp.shape}")
    k0, k1, k2, k3 = np.ogrid[0:dims.n0, 0:dims.n1, 0:dims.n2, 0:dims.n3]
    phase = (p[0] * k0 / dims.n0 + p[1] * k1 / dims.n1
             + p[2] * k2 / dims.n2 + p[3] * k3 / dims.n3)
    wave = np.exp(2j * np.pi * phase)
    return _adopt(dims, wave[..., None] * amp)


def _draws(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start .. start + count - 1 of SplitMix64 (Steele, Lea & Flood 2014):
    draw k is z = mix(seed + (k + 1) 0x9E3779B97F4A7C15 mod 2^64), given as
    -1 + 2 (z >> 11) 2^-53 on [-1, 1), so it depends on seed and k alone."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"random seed {seed} outside 0..2^64-1")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64) * _GOLDEN + np.uint64(seed)
    for shift, factor in _MIX:
        z ^= z >> shift
        z *= factor
    return ((z ^ z >> 31) >> 11) * 2.0 ** -52 - 1.0


def random_field(dims: LatticeDims, seed: int) -> FormField:
    """Deterministic random field for a seed in 0..2^64-1: with n = 16 volume,
    draws 0 .. n-1 of _draws are the real parts and n .. 2n-1 the imaginary
    parts in ravel order, made in pieces of _CHUNK straight into the field."""
    coeffs = np.empty(dims.shape + (blades.NUM_BLADES,), dtype=np.complex128)
    flat = coeffs.reshape(-1)
    for offset, part in ((0, flat.real), (flat.size, flat.imag)):
        for start in range(0, part.size, _CHUNK):
            piece = part[start:start + _CHUNK]
            piece[...] = _draws(seed, offset + start, piece.size)
    return _adopt(dims, coeffs)


class FieldFormatError(ValueError):
    """Raised when a serialized field cannot be parsed or validated."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


# A field with at least this many numbers (re and im counted apart), about
# 5.6 MB of text, is formatted and parsed by two processes.
SPLIT_MIN_NUMBERS = 1 << 18
_CHUNK = 1 << 14  # numbers per formatted piece (2^16 grew a save's peak) and per draw
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment and its two mixing rounds
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))
# Numbers per orjson piece.  A piece briefly takes about 62 bytes a number
# (its text, the Python floats and their list, and an array of doubles), and
# the heap and arena pages it touched stay resident after the load: 2^12
# left 0.43 MiB behind, 2^10 leaves 0.12 MiB for about 18% more parse CPU.
_PIECE = 1 << 10
_RELEASE = 1 << 20  # bytes of a mapped file parsed between releases of its pages
_SPILL_READ = 1 << 20  # bytes a save copies from the child's file at a time
_JSON_SPACE = b" \t\n\r"
# The integer token -0, which orjson reads as a plain int 0
_NEG_ZERO_INT_BYTES = re.compile(rb"-0(?![0-9.eE])")
# An integer token of 19 digits or more.  orjson reads one that does not fit
# 64 bits, so of magnitude at least 2^63, as a float it rounds itself.
_LONG_INT = re.compile(rb"(?<![0-9.])[0-9]{19,}(?![0-9.eE])")
_EXTENT = rb"([1-9][0-9]{0,8})"
_CANONICAL_HEAD = re.compile(
    rb'\{"dims": \[' + b", ".join([_EXTENT] * 4) + rb'\], "coeffs": \[')


def _two_processes(numbers: int) -> bool:
    """Whether a save or a load splits this many numbers across a forked child.

    Only a process running one Python thread forks, so the child never
    inherits a lock that another thread held.
    """
    return (numbers >= SPLIT_MIN_NUMBERS and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1)


class _Child:
    """A forked child that runs work() and writes the bytes-like pieces it
    returns to ``spill``, an unlinked temporary file in ``directory`` that
    this process opens before the fork.

    The child always leaves through os._exit, with status 0 only after it
    wrote every piece, so no atexit hook, buffered output or tracer runs
    twice.  As a context manager the parent reaps the child on every way
    out, killing it first unless reap() already ran, and closes the file.
    """

    def __init__(self, work, directory):
        self.spill = tempfile.TemporaryFile(dir=directory)
        try:
            self.pid = os.fork()
        except BaseException:
            self.spill.close()
            raise
        if self.pid == 0:
            status = 1
            try:
                with open(self.spill.fileno(), "wb", closefd=False) as out:
                    out.writelines(work())
                status = 0
            finally:
                os._exit(status)
        self.status = None

    def reap(self) -> bool:
        """Wait for the child and tell whether it succeeded."""
        _, self.status = os.waitpid(self.pid, 0)
        return self.status == 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            if self.status is None:
                import signal  # here, as only this path needs it

                os.kill(self.pid, signal.SIGKILL)
                self.reap()
        finally:
            self.spill.close()


@functools.cache
def _format_tables() -> tuple:
    """The least doubles >= 10^-11..10^16, 5^0..5^27, the groups 0000..9999 as
    words with a digit in each even byte, their trailing zeros, and per (x +
    11, nd, sign) the XOR onto a 48-byte row of such digits that spells
    exponent x with nd digits: sign in byte 0, "0.000" in 1-5, digit i in
    6 + 2i, a point in 7 + 2i, "e-XX" in 40-43, ", " in 44-45, NUL elsewhere."""
    bounds = np.array([float(f"1e{j}") for j in range(-11, 17)])
    ratios = map(float.as_integer_ratio, bounds.tolist())
    low = [n * 10 ** 11 < d * 10 ** (j + 11) for j, (n, d) in zip(range(-11, 17), ratios)]
    bounds[low] = np.nextafter(bounds[low], 1.0)
    n = np.arange(10_000)
    groups = np.zeros((10_000, 8), np.uint8)
    groups[:, ::2] = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + 48
    layouts = np.zeros((27, 18, 2, 48), np.uint8)
    layouts[..., 0:6:2] = ord("0")  # the zeros before the leading digit in its group
    layouts[:, :, 1, 0] ^= ord("-")
    layouts[..., 44:46] = np.frombuffer(b", ", np.uint8)
    nd = np.arange(18)
    for x in range(-11, 16):
        rows = layouts[x + 11]
        keep = np.maximum(nd, x + 1) if x >= 0 else nd
        rows[..., 6:39:2] = ord("0") * (np.arange(17) >= keep[:, None])[:, None]  # dropped zeros
        if x >= 0:
            rows[..., 7 + 2 * x] = ord(".") * (nd > x + 1)[:, None]
        elif x >= -4:
            rows[..., 1:2 - x] ^= np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
        else:
            rows[..., 7] = ord(".") * (nd > 1)[:, None]
            rows[..., 40:44] = np.frombuffer(b"e-%02d" % -x, np.uint8)
    return (bounds, 5 ** np.arange(28, dtype=np.uint64), groups.view(np.uint64).ravel(),
            sum(n % 10 ** j == 0 for j in range(1, 5)), layouts.view(np.uint64).reshape(-1, 6))


def _decimal(a: np.ndarray) -> tuple:
    """The 17 correctly rounded digits d and decimal exponent x of each a in
    1e-11 < a < 2^51: m 5^k, a = m 2^e, k = 16 - x = 1..27, made exactly from
    32-bit limbs as hi 2^64 + lo, shifted right by -(e + k) = 1..62, rounded
    half to even.  No double there is 4.5 units of the 17th digit or less
    below a power of ten, so d < 10^17."""
    bounds, pow5 = _format_tables()[:2]
    bits = a.view(np.uint64)
    m = bits & (2 ** 52 - 1) | 2 ** 52
    x = np.clip(np.floor(np.log10(a)), -11, 15).astype(np.int64)
    x += a >= bounds[x + 12]  # where log10 was one out
    x -= a < bounds[x + 11]
    s = (x - 16 - ((bits >> 52).astype(np.int64) - 1075)).astype(np.uint64)  # -(e + k)
    p = pow5[16 - x]
    ml, mh, pl, ph = m & 0xFFFFFFFF, m >> 32, p & 0xFFFFFFFF, p >> 32
    low = ml * pl
    mid = mh * pl + ml * ph  # < 2^53 + 2^63, as 5^k < 2^63
    lo = low + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < low)
    whole = (hi << (64 - s)) | (lo >> s)
    rest, half = lo & ((1 << s) - 1), 1 << (s - 1)
    return whole + ((rest > half) | ((rest == half) & (whole & 1).astype(bool))), x


def _format(pairs: np.ndarray) -> Iterator[bytes]:
    """The ", "-separated %.17g text of pairs as ASCII, in pieces of _CHUNK numbers."""
    for start in range(0, pairs.size, _CHUNK):
        yield _format_piece(pairs[start:start + _CHUNK], start + _CHUNK >= pairs.size)


def _format_piece(values: np.ndarray, last: bool) -> bytes:
    """A 48-byte row a number, from _decimal's digits where it applies, 0 or -0
    for a zero and % for the rest, NULs deleted, ", " after each but the text's
    last number.  Its arrays die on return, so none outlives the piece."""
    groups, trailing, layouts = _format_tables()[2:]
    size = np.abs(values)
    fast = (size > 1e-11) & (size < 2.0 ** 51)
    zero = values == 0
    digits, x = _decimal(np.where(fast, size, 1.0))
    rest = np.where(zero, 0, digits.astype(np.int64))
    words = np.zeros((values.size, 6), np.uint64)
    for column in (4, 3, 2, 1, 0):
        rest, group = np.divmod(rest, 10 ** 4)
        words[:, column] = np.take(groups, group)
        if column == 4:
            zeros, below = np.take(trailing, group), np.flatnonzero(group == 0)
            upper = rest[below]
    for _ in range(4):  # on up through the rows whose lower groups all read 0000
        upper, group = np.divmod(upper, 10 ** 4)
        zeros[below] += np.take(trailing, group)
        below, upper = below[group == 0], upper[group == 0]
    words ^= np.take(layouts, ((x + 11) * 18 + 17 - np.minimum(zeros, 17)) * 2
                     + np.signbit(values), axis=0)
    rows = words.view(np.uint8)
    slow = np.flatnonzero(~fast & ~zero)
    if slow.size:
        text = [b"%.17g" % v for v in values[slow].tolist()]
        rows[slow, :44] = np.array(text, "S44").view(np.uint8).reshape(-1, 44)
    if last:
        rows[-1, 44:] = 0  # no separator after the last number
    return rows.tobytes().translate(None, b"\0")


def _field_text(omega: FormField, directory=None) -> Iterator[bytes]:
    """The ASCII text dumps_field returns, in pieces.

    For a large field a forked child formats the second half of the numbers
    into a temporary file in directory (the default temporary directory
    when None) while this process formats the first and hands it on piece
    by piece.  The child's text follows from the file; if the child
    failed, OSError.  Without a spill file or a child, this process formats
    every number.
    """
    pairs = omega.coeffs.reshape(-1).view(np.float64)  # (re, im) interleaved
    if not np.all(np.isfinite(pairs)):
        raise ValueError("cannot serialize non-finite coefficients")
    dims_text = ", ".join(str(n) for n in omega.dims.shape)
    yield f'{{"dims": [{dims_text}], "coeffs": ['.encode("ascii")
    mid = pairs.size // 2
    child = None
    if _two_processes(pairs.size):
        with contextlib.suppress(OSError):  # no spill file or no process: one process
            child = _Child(lambda: _format(pairs[mid:]), directory)
    if child is None:
        yield from _format(pairs)
    else:
        with child:
            yield from _format(pairs[:mid])
            yield b", "
            if not child.reap():
                raise OSError(errno.EIO, "field formatter process failed")
            child.spill.seek(0)
            while piece := child.spill.read(_SPILL_READ):
                yield piece
    yield b"]}"


def dumps_field(omega: FormField) -> str:
    """Serialize to the canonical JSON text form.

    Layout: {"dims": [N0, N1, N2, N3], "coeffs": [...]} with 2 * 16 * volume
    numbers ordered site-major (row-major site order), then blade mask
    ascending, then (re, im).  Numbers carry 17 significant digits so the
    round trip is bit exact.  A field of at least SPLIT_MIN_NUMBERS numbers
    may have its second half formatted by a forked child (_two_processes);
    the text is the same byte for byte.
    """
    with contextlib.closing(_field_text(omega)) as pieces:
        return b"".join(pieces).decode("ascii")


def _exact_int(token: str):
    """parse_int for json.loads: -0 stays a negative zero, and an integer
    too long for int() reads as +-inf, which the finiteness check rejects."""
    if token == "-0":
        return -0.0
    try:
        return int(token)
    except ValueError:
        return float(token)


def _loads_fast(data: bytes | mmap.mmap) -> FormField | None:
    """Parse a field in exactly the layout dumps_field writes with orjson;
    None whenever the serial parser has to decide.

    _parse fills one float64 array, so neither the whole text as str nor the
    whole list as Python floats ever exists.  When _two_processes allows,
    coeffs is cut at the first ", " after its middle byte: a forked child
    parses the second half into its spill file as packed doubles while this
    process parses the first half, reaps the child and reads the spill into
    the rest; without a spill file or a child, this process parses it all.
    Another layout, a malformed or non-numeric entry, a wrong count in the
    whole or a half, a value that is not finite, an integer token beyond 64
    bits, or a failed child returns None.
    """
    head = _CANONICAL_HEAD.match(data)
    if head is None:
        return None
    try:
        dims = LatticeDims(*map(int, head.groups()))
    except ValueError:
        return None
    expected = 2 * blades.NUM_BLADES * dims.volume
    # each number takes at least one character and a separator
    if 2 * expected > len(data):
        return None
    end = len(data)
    while data[end - 1] in _JSON_SPACE:
        end -= 1
    close = end - 2  # the "]" that ends coeffs
    if data[close:end] != b"]}":
        return None
    pairs = np.empty(expected)
    begin = head.end()
    step = _PIECE * (close + 2 - begin) // expected - 2  # the ", " after ~_PIECE numbers
    child = None
    with memoryview(data) as view, contextlib.ExitStack() as stack:
        parse = functools.partial(_parse, data, view, out=pairs, step=step)
        cut = data.find(b", ", (begin + close) // 2, close)
        if _two_processes(expected) and cut >= 0:
            with contextlib.suppress(OSError):  # no spill file or no process: one process
                # an error in the child's parse ends it with status 1
                child = stack.enter_context(_Child(lambda: [pairs[:parse(cut + 2, close)]], None))
        try:
            filled = parse(begin, close if child is None else cut)
        except (ValueError, TypeError, struct.error):  # a piece that json has to decide
            return None
        if child is not None:
            spilled = 8 * (expected - filled)  # bytes the child must have written
            if not child.reap() or os.fstat(child.spill.fileno()).st_size != spilled:
                return None
            child.spill.seek(0)
            filled += child.spill.readinto(pairs[filled:]) // 8
    if filled != expected or not np.all(np.isfinite(pairs)):
        return None
    return _adopt(dims, pairs.view(np.complex128).reshape(dims.shape + (blades.NUM_BLADES,)))


def _parse(data, view: memoryview, begin: int, close: int, out: np.ndarray, step: int) -> int:
    """Parse the ", "-separated numbers of data[begin:close] into out from its
    start, in pieces that end at the first ", " from step bytes on; how many,
    or ValueError, TypeError or struct.error where json has to decide.

    orjson parses each piece of bytes into a list that struct packs straight
    into out.  When data is a _FileMap, the pages of each parsed _RELEASE
    bytes, and at the end all of the range's, are handed back to the system.
    """
    import orjson  # here, not at the top, so that verify does not load it

    release = isinstance(data, _FileMap) and hasattr(mmap, "MADV_DONTNEED")
    released = begin - begin % mmap.PAGESIZE
    filled = 0
    negative_zeros = False  # whether an integer token -0 has been seen
    while True:
        cut = data.find(b", ", begin + step, close)
        piece = b"".join((b"[", view[begin:close if cut < 0 else cut], b"]"))
        if negative_zeros:
            # orjson reads the token -0 as int 0 but -0.0 as a negative zero;
            # in an exponent, -0.0 is a decode error
            piece = piece.replace(b"-0,", b"-0.0,").replace(b"-0]", b"-0.0]")
        if b"t" in piece or b"f" in piece:  # true and false, which struct takes
            raise ValueError("true or false")
        numbers = orjson.loads(piece)
        if not numbers or filled + len(numbers) > out.size:
            raise ValueError("an empty piece or too many numbers")
        # struct.error on a non-number
        struct.pack_into("%dd" % len(numbers), out, 8 * filled, *numbers)
        chunk = out[filled:filled + len(numbers)]
        if not chunk.all() and _NEG_ZERO_INT_BYTES.search(piece):
            if negative_zeros:
                raise ValueError("a -0 that no comma follows")
            negative_zeros = True
            continue  # parse the piece again
        if np.abs(chunk).max() >= 2.0 ** 63 and _LONG_INT.search(piece):
            raise ValueError("an integer token beyond 64 bits")
        filled += len(numbers)
        if cut < 0:
            break
        begin = cut + 2
        if release and begin - released >= _RELEASE:
            done = begin - begin % mmap.PAGESIZE
            data.madvise(mmap.MADV_DONTNEED, released, done - released)
            released = done
    if release:
        data.madvise(mmap.MADV_DONTNEED, released, close - released)
    return filled


def loads_field(text: str | bytes | mmap.mmap) -> FormField:
    """Parse the canonical JSON text form, as str or as ASCII bytes (or a
    map of them); inverse of dumps_field.

    Bytes in exactly the layout dumps_field writes are parsed in pieces by
    orjson (_loads_fast, across two processes for a large field, as a save
    is); ASCII str is encoded for it.  Everything else, and any text that
    fails a check there, is decoded and parsed whole by json, so every error
    keeps its message and byte offset.  Bytes that are not ASCII raise
    FieldFormatError at the offset of the first such byte.
    """
    if isinstance(text, str):
        field = _loads_fast(text.encode("ascii")) if text.isascii() else None
    else:
        field = _loads_fast(text)
        if field is None:
            try:
                text = str(text, "ascii")
            except UnicodeDecodeError as exc:
                raise FieldFormatError("field file must be ASCII text",
                                       offset=exc.start) from exc
    if field is not None:
        return field
    import json  # here, as orjson is, so that a field on the fast path does not load it

    try:
        doc = json.loads(text, parse_int=_exact_int)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"malformed field file: {exc.msg}", offset=exc.pos) from exc
    except RecursionError:
        raise FieldFormatError("malformed field file: nested too deeply") from None
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
    kinds = set(map(type, coeffs_raw))
    if not kinds <= {int, float}:
        raise FieldFormatError('"coeffs" entries must all be numbers')
    try:
        pairs = np.asarray(coeffs_raw, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        pairs = np.array(np.inf)
    if not np.all(np.isfinite(pairs)):
        raise FieldFormatError('"coeffs" entries must all be finite numbers')
    return _adopt(dims, pairs.view(np.complex128).reshape(dims.shape + (blades.NUM_BLADES,)))


def save_field(omega: FormField, path) -> None:
    """Write the serialized field and a newline atomically (temp file plus
    rename), streaming the text piece by piece so it is never built whole."""
    directory = os.path.dirname(os.path.abspath(path))
    with contextlib.closing(_field_text(omega, directory)) as pieces:
        atomic_write_text(path, itertools.chain(pieces, [b"\n"]))


class _FileMap(mmap.mmap):
    """A read-only map of a file, whose pages the parser may hand back: the
    file supplies them again if they are read once more.  A private map a
    caller passes in would lose what it held, so it is never released."""


def load_field(path) -> FormField:
    """Map a field file read-only and parse it with loads_field.

    The canonical fast path hands back the pages of the map as it parses
    them, so a load holds the field and about a MiB of the file, never the
    whole file nor a decoded copy of its text.  For a large field each of
    the two processes releases all of its range's pages when it is done,
    before this process reads the child's half.  A file that cannot be mapped
    (empty, or not a regular file such as /dev/null or a pipe) is read
    instead.  A file truncated by another process during the load raises
    SIGBUS through the map, which ends the process.
    """
    with open(path, "rb") as fh:
        try:
            data = _FileMap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return loads_field(fh.read())
    with data:
        return loads_field(data)


def atomic_write_text(path, text: str | Iterable[str | bytes]) -> None:
    """Write ASCII text, or an iterable of its pieces as str or bytes in order,
    to path via a same-directory temp file and os.replace.

    The file gets the mode open() would give it (0o666 less the umask), not
    the temp file's 0o600, and an OSError names path, not the temp file.
    """
    pieces = (text,) if isinstance(text, str) else text
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.writelines(p.encode("ascii") if isinstance(p, str) else p for p in pieces)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
