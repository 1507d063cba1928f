import cmath
import errno
import functools
import hashlib
import json
import mmap
import operator
import os
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dklattice import fields
from dklattice.cli import main
from dklattice.blades import E0, E01, E12, E123, GRADES, X
from dklattice.fields import (Equation, EquationParams, FieldFormatError,
                              FormField, constant_field, dumps_field,
                              even_part, load_field, loads_field, max_abs,
                              odd_part, plane_wave, random_field, rms,
                              save_field)
from dklattice.calculus import d_plus_delta
from dklattice.lattice import LatticeDims, site_iter
from dklattice.spectral import propagator_solve
from dklattice.transfer import decompose, hestenes_quadruple

DIMS = LatticeDims(3, 3, 3, 3)
SMALL = LatticeDims(2, 2, 2, 2)
ZERO = FormField(DIMS, np.zeros(DIMS.shape + (16,)))
ZERO_SMALL = FormField(SMALL, np.zeros(SMALL.shape + (16,)))


def test_zeros_and_constant():
    assert ZERO.coeffs.shape == (3, 3, 3, 3, 16)
    assert max_abs(ZERO) == 0.0
    amp = np.arange(16, dtype=np.complex128)
    c = constant_field(DIMS, amp)
    assert np.array_equal(c.coeffs[1, 2, 0, 1], amp)
    # a scalar or a (1,) amplitude would broadcast over the blades
    for bad in (1.0, np.ones(1), np.ones(15), np.ones((16, 1))):
        with pytest.raises(ValueError, match="amplitude must have shape"):
            constant_field(DIMS, bad)


def test_formfield_validates_shape():
    with pytest.raises(ValueError):
        FormField(DIMS, np.zeros((3, 3, 3, 3, 15)))
    with pytest.raises(ValueError):
        FormField(DIMS, np.zeros((3, 3, 3, 2, 16)))


def test_formfield_immutable():
    with pytest.raises(ValueError):
        ZERO.coeffs[0, 0, 0, 0, 0] = 1.0


def test_arithmetic_dunders():
    a = random_field(DIMS, 0)
    b = random_field(DIMS, 1)
    s = a + b
    assert np.array_equal(s.coeffs, a.coeffs + b.coeffs)
    d = a - b
    assert np.array_equal(d.coeffs, a.coeffs - b.coeffs)
    n = -a
    assert np.array_equal(n.coeffs, -a.coeffs)
    m = (2 - 1j) * a
    assert np.array_equal(m.coeffs, (2 - 1j) * a.coeffs)
    assert np.array_equal((a * (2 - 1j)).coeffs, m.coeffs)


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_sum_and_difference_reject_other_dims(op):
    with pytest.raises(ValueError, match="lattice dimension mismatch"):
        op(ZERO, ZERO_SMALL)


def test_grade_partition():
    f = random_field(DIMS, 4)
    total = sum(f.coeffs * (GRADES == r) for r in range(5))
    assert np.array_equal(total, f.coeffs)
    assert np.array_equal((even_part(f) + odd_part(f)).coeffs, f.coeffs)
    g2 = f.coeffs * (GRADES == 2)
    assert np.all(g2[..., [X, E0, E123]] == 0.0)
    assert np.array_equal(g2[..., E01], f.coeffs[..., E01])


def test_rms_and_max_abs():
    one = constant_field(DIMS, np.eye(16, dtype=np.complex128)[X] * (3 + 4j))
    assert max_abs(one) == 5.0
    # one blade of 16 carries all the weight
    assert rms(one) == pytest.approx(5.0 / 4.0)


@pytest.mark.parametrize("shape", [(4, 4, 4, 4), (2, 3, 1, 4), (5, 3, 6, 2)])
def test_kernels_commute_with_powers_of_two(shape):
    # every kernel is linear or a norm, and times 2^k is exact while values
    # stay normal, so on 2^k f each gives 2^k times its result on f, bit for
    # bit, also where the squares of 2^k f overflow or go subnormal
    f = random_field(LatticeDims(*shape), 1)
    kernels = {
        "d_plus_delta": lambda g: d_plus_delta(g).coeffs,
        "propagator_solve": lambda g: propagator_solve(g, 1.5).coeffs,
        "decompose": lambda g: np.stack([part.coeffs for part in decompose(g).values()]),
        "hestenes_quadruple": lambda g: np.stack([q.coeffs for q in hestenes_quadruple(g)[0]]),
        "quadruple_route_deviation": lambda g: hestenes_quadruple(g)[1],
        "max_abs": max_abs,
        "rms": rms,
    }
    for k in (-900, -1, 1, 900):
        scaled = f * 2.0 ** k
        for name, kernel in kernels.items():
            expected = np.asarray(kernel(f)) * 2.0 ** k
            assert np.asarray(kernel(scaled)).tobytes() == expected.tobytes(), (name, k)


def test_plane_wave_zero_momentum_is_constant():
    amp = np.arange(1, 17, dtype=np.complex128)
    w = plane_wave(DIMS, (0, 0, 0, 0), amp)
    assert np.array_equal(w.coeffs, constant_field(DIMS, amp).coeffs)


def test_plane_wave_matches_cmath_oracle():
    dims = LatticeDims(4, 3, 2, 5)
    p = (1, 2, 1, 3)
    amp = np.zeros(16, dtype=np.complex128)
    amp[E12] = 2.0 - 1.0j
    w = plane_wave(dims, p, amp)
    for k in [(0, 0, 0, 0), (1, 2, 1, 4), (3, 1, 0, 2)]:
        phase = sum(p[mu] * k[mu] / dims.extent(mu) for mu in range(4))
        expected = (2.0 - 1.0j) * cmath.exp(2j * cmath.pi * phase)
        assert abs(w.coeffs[k][E12] - expected) < 1e-14
        assert np.all(w.coeffs[k][[b for b in range(16) if b != E12]] == 0.0)


def test_plane_wave_momentum_reduced_mod_extents():
    amp = np.ones(16, dtype=np.complex128)
    a = plane_wave(DIMS, (1, 0, 0, 0), amp)
    b = plane_wave(DIMS, (4, 3, -3, 0), amp)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_plane_wave_validates():
    with pytest.raises(ValueError):
        plane_wave(DIMS, (0, 0, 0), np.ones(16))
    with pytest.raises(ValueError):
        plane_wave(DIMS, (0, 0, 0, 0), np.ones(15))


def test_random_field_deterministic():
    a = random_field(DIMS, 42)
    b = random_field(DIMS, 42)
    assert a.coeffs.tobytes() == b.coeffs.tobytes()
    c = random_field(DIMS, 43)
    assert a.coeffs.tobytes() != c.coeffs.tobytes()


def test_random_field_keeps_its_values_at_16_4():
    # SHA-256 of the coefficients: SplitMix64 draws of seed 1, the first 2^20
    # the real parts and the next 2^20 the imaginary parts
    f = random_field(LatticeDims(16, 16, 16, 16), 1)
    assert hashlib.sha256(f.coeffs.tobytes()).hexdigest() == (
        "9388455243f028bb05fd4595c2284cff48ea2157a15447011bc216c669ea09e3")


def _splitmix64(seed: int, k: int) -> float:
    """Draw k of SplitMix64 on Python ints masked to 64 bits, mapped to [-1, 1)."""
    mask = (1 << 64) - 1
    z = (seed + (k + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
    return -1 + 2 * ((z ^ z >> 31) >> 11) * 2.0 ** -53


@pytest.mark.parametrize("seed", [0, 5, 2 ** 63, 2 ** 64 - 1])
def test_random_field_is_splitmix64_in_file_order(seed):
    dims = LatticeDims(6, 6, 6, 6)
    flat = random_field(dims, seed).coeffs.reshape(-1)
    n = flat.size
    assert n > fields._CHUNK
    # the first draws, both sides of a piece boundary, the first and the last
    # imaginary parts
    for index in (0, 1, 2, fields._CHUNK - 1, fields._CHUNK, n - 1):
        assert flat[index].real == _splitmix64(seed, index)
    for index in (0, fields._CHUNK - 1, fields._CHUNK, n - 1):
        assert flat[index].imag == _splitmix64(seed, n + index)
    # the published first output of SplitMix64 seeded with 0
    assert fields._draws(0, 0, 1)[0] == -1 + 2 * (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_random_field_rejects_a_seed_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"random seed -?\d+ outside 0..2\^64-1"):
        random_field(SMALL, seed)


def test_constructor_copies_the_callers_array():
    arr = np.arange(DIMS.volume * 16, dtype=np.complex128).reshape(DIMS.shape + (16,))
    f = FormField(DIMS, arr)
    arr[...] = -1
    assert np.array_equal(f.coeffs.reshape(-1), np.arange(DIMS.volume * 16))
    assert not f.coeffs.flags.writeable


def test_kernel_results_are_read_only():
    f = random_field(DIMS, 3)
    for result in (f, f + f, f - f, -f, 2 * f, even_part(f), odd_part(f), ZERO,
                   plane_wave(DIMS, (1, 0, 0, 0), np.ones(16)), loads_field(dumps_field(f))):
        assert not result.coeffs.flags.writeable
        with pytest.raises(ValueError):
            result.coeffs[0, 0, 0, 0, 0] = 1


def test_random_field_range():
    f = random_field(DIMS, 7)
    assert np.max(np.abs(f.coeffs.real)) <= 1.0
    assert np.max(np.abs(f.coeffs.imag)) <= 1.0
    assert max_abs(f) > 0.5  # 2592 uniform draws essentially never all tiny


def test_equation_params():
    p = EquationParams(2)
    assert p.mass == complex(2.0, 0.0)
    assert p.equation is Equation.DIRAC_KAHLER
    with pytest.raises(TypeError):
        EquationParams(1.0, "hestenes")


def test_serialization_round_trip_bit_exact():
    f = random_field(SMALL, 3)
    g = loads_field(dumps_field(f))
    assert g.dims == f.dims
    assert g.coeffs.tobytes() == f.coeffs.tobytes()


def reference_dumps(omega):
    """The per-number codec dumps_field must stay byte-equal to."""
    flat = omega.coeffs.ravel()
    pairs = np.empty(2 * flat.size)
    pairs[0::2] = flat.real
    pairs[1::2] = flat.imag
    dims_text = ", ".join(str(n) for n in omega.dims.shape)
    coeff_text = ", ".join(format(v, ".17g") for v in pairs)
    return f'{{"dims": [{dims_text}], "coeffs": [{coeff_text}]}}'


ONE_SITE = LatticeDims(1, 1, 1, 1)
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1.0, -3.0, 2.0**53, 1e22, 1e16]
FINITE_BITS = (st.integers(0, 2**64 - 1)
               .map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
               .filter(np.isfinite))
# The formatter's integer-digit range is 1e-11 < |x| < 2^51; FINITE_BITS
# almost never lands in it.
POWERS_OF_TEN = [float(f"1e{k}") for k in range(-11, 17)]
FAST_EDGES = ([np.nextafter(p, direction) for p in POWERS_OF_TEN for direction in (0, np.inf)]
              + POWERS_OF_TEN + [1e-11, np.nextafter(1e-11, 1), 2.0**51, np.nextafter(2.0**51, 0)])
FAST_RANGE = st.builds(
    operator.mul, st.sampled_from([1.0, -1.0]), st.one_of(
        st.builds(lambda decade, m: m * 10.0**decade, st.integers(-11, 15), st.floats(1, 10)),
        # multiples of 1/4 in [2^50, 2^51): x.25 and x.75 tie at 17 digits
        st.integers(0, 2**52 - 1).map(lambda i: 2.0**50 + i / 4),
        st.sampled_from(FAST_EDGES)))
SITE_NUMBERS = st.lists(st.one_of(st.sampled_from(EDGE_VALUES), FINITE_BITS, FAST_RANGE),
                        min_size=32, max_size=32)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(SITE_NUMBERS)
@example((EDGE_VALUES * 3)[:32])
@example([-0.0] * 32)
def test_dumps_matches_reference_codec(numbers):
    field = FormField(ONE_SITE, np.array(numbers).view(np.complex128).reshape(1, 1, 1, 1, 16))
    text = dumps_field(field)
    assert text == reference_dumps(field)
    back = loads_field(text)
    assert back.coeffs.tobytes() == field.coeffs.tobytes()
    assert dumps_field(back) == text


@given(st.lists(FAST_RANGE.map(abs).filter(lambda x: 1e-11 < x < 2.0**51), min_size=1))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
def test_fast_digits_match_percent_e(numbers):
    # %.16e spells the same 17 correctly rounded digits and decimal exponent
    digits, exponents = fields._decimal(np.array(numbers))
    for x, d, e in zip(numbers, digits.tolist(), exponents.tolist()):
        mantissa, exponent = format(x, ".16e").split("e")
        assert (d, e) == (int(mantissa.replace(".", "")), int(exponent))


def test_fast_digits_never_round_up_to_a_power_of_ten():
    # the largest double below 10^k is the nearest one to 17 digits that
    # round up to 10^17, which _decimal does not carry
    below = [p if Fraction(p) < Fraction(10) ** k else np.nextafter(p, 0)
             for k, p in zip(range(-11, 17), POWERS_OF_TEN)]
    numbers = np.array([x for x in below if 1e-11 < x < 2.0**51])
    assert len(numbers) == 26
    assert fields._decimal(numbers)[0].max() <= 10**17 - 5


def test_dumps_matches_reference_codec_across_chunks():
    # 7^4 sites give 76,832 numbers: four full 2^14 chunks and a partial one
    field = random_field(LatticeDims(7, 7, 7, 7), 11)
    assert 2 * field.coeffs.size == 76_832
    text = dumps_field(field)
    assert text == reference_dumps(field)
    assert loads_field(text).coeffs.tobytes() == field.coeffs.tobytes()


def test_signed_zeros_round_trip_byte_for_byte():
    numbers = ["-0", "1", "-0", "-1", "0", "-0", "-0", "-0"] + ["0.5"] * 24
    text = f'{{"dims": [1, 1, 1, 1], "coeffs": [{", ".join(numbers)}]}}'
    field = loads_field(text)
    assert dumps_field(field) == text
    flat = field.coeffs.ravel()
    assert list(np.signbit(flat.real[:4])) == [True, True, False, True]
    assert list(np.signbit(flat.imag[:4])) == [False, True, True, True]


def test_serialization_17_digits():
    amp = np.zeros(16, dtype=np.complex128)
    amp[X] = 0.1
    text = dumps_field(constant_field(LatticeDims(1, 1, 1, 1), amp))
    assert "0.10000000000000001" in text
    doc = json.loads(text)
    assert doc["dims"] == [1, 1, 1, 1]
    assert len(doc["coeffs"]) == 32


def test_serialization_layout():
    # site-major, blade mask ascending, (re, im) per coefficient
    dims = LatticeDims(1, 1, 1, 2)
    coeffs = np.zeros((1, 1, 1, 2, 16), dtype=np.complex128)
    coeffs[0, 0, 0, 0, X] = 1.0 + 2.0j
    coeffs[0, 0, 0, 1, E0] = 3.0 - 4.0j
    doc = json.loads(dumps_field(FormField(dims, coeffs)))
    flat = doc["coeffs"]
    assert flat[0] == 1.0 and flat[1] == 2.0
    assert flat[32 + 2 * E0] == 3.0 and flat[32 + 2 * E0 + 1] == -4.0


def test_serialization_rejects_non_finite():
    coeffs = np.zeros(SMALL.shape + (16,), dtype=np.complex128)
    coeffs[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        dumps_field(FormField(SMALL, coeffs))


def test_loads_rejects_malformed_json():
    with pytest.raises(FieldFormatError) as info:
        loads_field('{"dims": [2,')
    assert info.value.offset is not None
    assert "byte offset" in str(info.value)


@pytest.mark.parametrize("text", [
    '[1, 2]',
    '{"dims": [2, 2, 2, 2]}',
    '{"dims": [2, 2, 2, 2], "coeffs": [], "extra": 1}',
    '{"dims": [2, 2, 2], "coeffs": []}',
    '{"dims": [2, 2, 2, 2.5], "coeffs": []}',
    '{"dims": [0, 2, 2, 2], "coeffs": []}',
    # a canonical head whose volume LatticeDims refuses: the fast path hands it on
    '{"dims": [999999999, 999999999, 999999999, 999999999], "coeffs": [0]}',
    '{"dims": [2, 2, 2, 2], "coeffs": [1.0]}',
    '{"dims": [2, 2, 2, 2], "coeffs": "lots"}',
])
def test_loads_rejects_bad_documents(text):
    with pytest.raises(FieldFormatError):
        loads_field(text)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400,
                                    "-" + "9" * 5000],
                         ids=["nan", "inf", "-inf", "1e999", "10**400", "5000-digits"])
def test_loads_rejects_non_finite_entries(number):
    coeffs = ["0.0"] * (2 * 16)
    coeffs[3] = number
    doc = f'{{"dims": [1, 1, 1, 1], "coeffs": [{", ".join(coeffs)}]}}'
    with pytest.raises(FieldFormatError, match="finite"):
        loads_field(doc)


def test_loads_rejects_boolean_entries():
    n = 2 * 16 * 16
    coeffs = [0.0] * n
    coeffs[5] = True
    doc = f'{{"dims": [2, 2, 2, 2], "coeffs": {json.dumps(coeffs)}}}'
    # json.dumps writes true, which is not a number for this format
    with pytest.raises(FieldFormatError):
        loads_field(doc)


def test_deeply_nested_coeffs_exit_2(tmp_path, package_env):
    src = tmp_path / "deep.json"
    src.write_text('{"dims": [1, 1, 1, 1], "coeffs": ' + "[" * 100_000 + "}")
    result = subprocess.run(
        [sys.executable, "-m", "dklattice", "apply", "d", "-i", str(src),
         "-o", str(tmp_path / "o.json")],
        capture_output=True, text=True, timeout=120, env=package_env)
    assert result.returncode == 2
    assert result.stderr.startswith("error:")
    assert "Traceback" not in result.stderr


def test_save_load_round_trip(tmp_path):
    f = random_field(SMALL, 9)
    path = tmp_path / "field.json"
    save_field(f, path)
    g = load_field(path)
    assert g.coeffs.tobytes() == f.coeffs.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["field.json"]


def test_save_is_atomic_no_temp_left(tmp_path):
    path = tmp_path / "f.json"
    save_field(ZERO_SMALL, path)
    save_field(ZERO_SMALL, path)  # overwrite through rename
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


def test_saved_file_mode_follows_umask(tmp_path):
    path = tmp_path / "f.json"
    old = os.umask(0o022)
    try:
        save_field(ZERO_SMALL, path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


def test_loads_field_takes_bytes():
    f = random_field(DIMS, 14)
    text = dumps_field(f)
    assert loads_field(text.encode("ascii")).coeffs.tobytes() == f.coeffs.tobytes()
    # a layout only json parses
    loose = text.replace(", ", ",")
    assert loads_field(loose.encode("ascii")).coeffs.tobytes() == f.coeffs.tobytes()


@pytest.mark.parametrize("where", ["coeffs", "end"])
def test_loads_field_rejects_non_ascii_bytes_at_their_offset(where):
    data = dumps_field(random_field(SMALL, 15)).encode("ascii")
    offset = data.index(b", ") + 1 if where == "coeffs" else len(data)
    data = data[:offset] + "\u00a0".encode("utf-8") + data[offset:]
    with pytest.raises(FieldFormatError) as info:
        loads_field(data)
    assert str(info.value) == f"field file must be ASCII text (byte offset {offset})"
    assert info.value.offset == offset


def test_load_field_peak_memory_at_8_4(tmp_path):
    f = random_field(LatticeDims(8, 8, 8, 8), 16)
    path = tmp_path / "f.json"
    save_field(f, path)
    load_field(path)
    tracemalloc.start()
    try:
        load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * f.coeffs.nbytes


_LOAD_HWM = """
import sys
from dklattice.fields import load_field
import orjson  # imported by the first fast-path load


def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM"))


before = hwm()
field = load_field(sys.argv[1])
print(hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_load_field_high_water_rises_by_the_field_not_the_file(tmp_path, package_env):
    f = random_field(LatticeDims(12, 12, 12, 12), 19)
    path = tmp_path / "f.json"
    save_field(f, path)
    assert os.path.getsize(path) > 2 * f.coeffs.nbytes
    result = subprocess.run([sys.executable, "-c", _LOAD_HWM, str(path)], capture_output=True,
                            text=True, timeout=120, env=package_env, check=True)
    assert int(result.stdout) <= f.coeffs.nbytes + 4 * 2**20


class _RecordingMap(fields._FileMap):
    """A map that records the ranges its pages are released over."""

    released: list

    def madvise(self, option, start=0, length=None):
        self.released.append((option, start, length))
        return super().madvise(option, start, length)


def test_load_field_releases_each_parsed_mib_of_the_map(tmp_path, monkeypatch):
    f = random_field(LatticeDims(8, 8, 8, 8), 18)
    path = tmp_path / "f.json"
    save_field(f, path)
    monkeypatch.setattr(_RecordingMap, "released", [], raising=False)
    monkeypatch.setattr(fields, "_FileMap", _RecordingMap)
    assert load_field(path).coeffs.tobytes() == f.coeffs.tobytes()
    released = _RecordingMap.released
    assert {option for option, _, _ in released} == {mmap.MADV_DONTNEED}
    # page-aligned ranges one after the other from the start of the file, each
    # _RELEASE long give or take a page and a piece (about 88 KB here), and
    # then the rest, up to the "]" that ends coeffs
    piece = 2**17
    assert released[0][1] == 0
    for (_, start, length), (_, following, _) in zip(released, released[1:] + [(0, None, 0)]):
        assert start % mmap.PAGESIZE == 0
        if following is not None:
            assert length % mmap.PAGESIZE == 0
            assert fields._RELEASE - mmap.PAGESIZE <= length <= fields._RELEASE + piece
            assert following == start + length
    assert 0 < released[-1][2] <= fields._RELEASE + piece
    assert released[-1][1] + released[-1][2] == os.path.getsize(path) - len(b"]}\n")


def test_loads_field_leaves_a_callers_map_intact():
    text = dumps_field(random_field(LatticeDims(8, 8, 8, 8), 18)).encode("ascii")
    assert len(text) > 2 * fields._RELEASE
    # private and anonymous, so pages handed back would read as zeros
    with mmap.mmap(-1, len(text), flags=mmap.MAP_PRIVATE) as private:
        private[:] = text
        assert loads_field(private).coeffs.tobytes() == loads_field(text).coeffs.tobytes()
        assert private[:] == text


@pytest.mark.parametrize("token", ["NaN", "null", '"x"', "[1]", "1e999"])
def test_mapped_load_falls_back_and_closes_the_map(token, tmp_path):
    tokens = dumps_field(random_field(SMALL, 17))[:-2].split(", ")
    tokens[len(tokens) // 2] = token
    path = tmp_path / "f.json"
    path.write_text(", ".join(tokens) + "]}")
    with pytest.raises(FieldFormatError) as mapped:
        load_field(path)  # a live view of the map would make its close raise BufferError
    with pytest.raises(FieldFormatError) as read:
        loads_field(path.read_bytes())
    assert str(mapped.value) == str(read.value)


@pytest.mark.parametrize("entry", [b"null", b'"x"', b"[2.5]", b"{}"])
def test_fast_path_returns_none_on_non_numbers(entry):
    def text(last):
        return b'{"dims": [1, 1, 1, 1], "coeffs": [' + b", ".join([b"0.5"] * 31 + [last]) + b"]}"

    assert fields._loads_fast(text(b"2.5")).coeffs[0, 0, 0, 0, 15] == 0.5 + 2.5j
    assert fields._loads_fast(text(entry)) is None


@pytest.mark.parametrize("name", ["empty", "devnull", "directory"])
def test_unmappable_inputs_keep_their_errors(name, tmp_path, capsys):
    path = {"empty": tmp_path / "empty.json", "devnull": os.devnull,
            "directory": tmp_path / "adir"}[name]
    if name == "empty":
        path.write_bytes(b"")
    elif name == "directory":
        path.mkdir()
    assert main(["apply", "d", "-i", str(path), "-o", str(tmp_path / "o.json")]) == 2
    expected = (f"[Errno 21] Is a directory: '{path}'" if name == "directory"
                else "malformed field file: Expecting value (byte offset 0)")
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_max_abs_covers_every_piece():
    f = random_field(LatticeDims(4, 4, 5, 13), 16)
    assert f.coeffs.size % fields._CHUNK == 256  # one whole piece and a partial one
    coeffs = f.coeffs.copy()
    coeffs.reshape(-1)[-3] = 5 - 2j  # in the last piece
    assert max_abs(FormField(f.dims, coeffs)) == abs(5 - 2j)
    assert max_abs(f) == float(np.max(np.abs(f.coeffs)))


def test_max_abs_keeps_a_nan_past_the_first_piece():
    f = random_field(LatticeDims(6, 6, 6, 6), 16)
    assert f.coeffs.size > fields._CHUNK
    coeffs = f.coeffs.copy()
    coeffs.reshape(-1)[-1] = np.nan
    assert np.isnan(max_abs(FormField(f.dims, coeffs)))


def _whole_rms(f: FormField) -> float:
    return float(np.sqrt(np.mean(np.abs(f.coeffs) ** 2)))


def test_rms_covers_every_piece():
    # the squares are summed piece by piece, so only the summation order
    # differs from the whole-array mean: a few ulps at most
    f = random_field(LatticeDims(4, 4, 5, 13), 17)
    assert f.coeffs.size % fields._CHUNK == 256  # one whole piece and a partial one
    assert rms(f) == pytest.approx(_whole_rms(f), rel=16 * np.finfo(float).eps, abs=0)
    coeffs = f.coeffs.copy()
    coeffs.reshape(-1)[-3] = 1e3  # in the last piece
    spiked = FormField(f.dims, coeffs)
    assert rms(spiked) == pytest.approx(_whole_rms(spiked), rel=16 * np.finfo(float).eps, abs=0)
    small = random_field(LatticeDims(3, 3, 3, 3), 18)  # a single piece: the same sum
    assert rms(small) == _whole_rms(small)


def test_rms_of_huge_coefficients_is_finite_and_exact():
    # the squares of 4e200 overflow; the moduli are divided by max_abs first
    amp = np.zeros(16, dtype=complex)
    amp[X] = 4e200
    assert rms(constant_field(SMALL, amp)) == 1e200
    assert rms(constant_field(SMALL, amp * 1j)) == 1e200
    amp[X] = np.inf
    assert rms(FormField(SMALL, np.broadcast_to(amp, SMALL.shape + (16,)))) == np.inf


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_field(tmp_path / "nope.json")


# 8*8*8*16 sites give 262,144 numbers: the smallest field that is split
SPLIT = LatticeDims(8, 8, 8, 16)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children the codec forks; the split runs as if on two CPUs."""
    assert threading.active_count() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def spills(monkeypatch):
    """The spill files the codec opens, in order."""
    files = []
    real_temporary_file = fields.tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        files.append(real_temporary_file(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(fields.tempfile, "TemporaryFile", temporary_file)
    return files


def serial_loads(monkeypatch, text):
    with monkeypatch.context() as m:
        m.setattr(fields, "_loads_fast", lambda text: None)
        return loads_field(text)


def _json_calls(monkeypatch):
    """The texts the serial json parser is handed, in order."""
    calls = []
    real_loads = json.loads

    def loads(text, **kwargs):
        calls.append(text)
        return real_loads(text, **kwargs)

    # loads_field imports json where it parses, so the module's own loads is patched
    monkeypatch.setattr(json, "loads", loads)
    return calls


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@functools.lru_cache(maxsize=1)
def _split_tokens():
    pairs = random_field(SPLIT, 22).coeffs.reshape(-1).view(np.float64).copy()
    n = pairs.size
    for i in (5, n // 3, n // 2 + 7, n - 4):
        pairs[i:i + 4] = [-0.0, 0.0, 1.0, -2.0]
    return tuple(format(v, ".17g") for v in pairs)


def split_tokens():
    """The numbers of a SPLIT field as text tokens, with integer tokens
    (signed zeros among them) in both halves."""
    return list(_split_tokens())


def split_text(tokens):
    return f'{{"dims": [8, 8, 8, 16], "coeffs": [{", ".join(tokens)}]}}'


def test_split_dumps_and_save_match_reference(tmp_path, forks):
    field = random_field(SPLIT, 21)
    assert 2 * field.coeffs.size == fields.SPLIT_MIN_NUMBERS
    expected = reference_dumps(field)
    assert dumps_field(field) == expected
    save_field(field, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_text(encoding="ascii") == expected + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]
    assert len(forks) == 2
    assert_reaped(forks)


def test_split_save_spills_the_child_half_next_to_the_output(tmp_path, monkeypatch, forks):
    field = random_field(SPLIT, 23)
    spills = []
    real_temporary_file = fields.tempfile.TemporaryFile

    def temporary_file(*args, **kwargs):
        spills.append(kwargs.get("dir"))
        return real_temporary_file(*args, **kwargs)

    monkeypatch.setattr(fields.tempfile, "TemporaryFile", temporary_file)
    monkeypatch.setattr(os, "pipe", None)  # the child's text no longer goes down a pipe
    save_field(field, tmp_path / "f.json")
    assert spills == [str(tmp_path)]
    assert (tmp_path / "f.json").read_text(encoding="ascii") == reference_dumps(field) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["f.json"]  # the spill file leaves no name behind
    assert len(forks) == 1
    assert_reaped(forks)


def test_split_fast_range_child_half_matches_reference(tmp_path, forks):
    pairs = random_field(SPLIT, 28).coeffs.reshape(-1).view(np.float64).copy()
    half = pairs[pairs.size // 2:]  # the numbers the child formats
    rng = np.random.default_rng(28)
    decades = 10.0 ** rng.uniform(-11, 51 * np.log10(2), half.size)
    ties = 2.0**50 + rng.integers(0, 2**52, half.size) / 4
    half[:] = np.where(rng.random(half.size) < 0.5, decades, ties) * rng.choice([-1, 1], half.size)
    specials = FAST_EDGES + [0.0, -0.0]
    half[:2 * len(specials)] = specials + [-x for x in specials]
    half[5::101] = 0.0
    half[7::103] = -0.0
    field = FormField(SPLIT, pairs.view(np.complex128).reshape(SPLIT.shape + (16,)))
    expected = reference_dumps(field)
    assert dumps_field(field) == expected
    save_field(field, tmp_path / "f.json")
    assert (tmp_path / "f.json").read_bytes() == expected.encode("ascii") + b"\n"
    assert len(forks) == 2
    assert_reaped(forks)


def test_split_loads_bit_equal_to_serial(monkeypatch, forks):
    text = split_text(split_tokens()) + "\n"
    parsed_by_json = _json_calls(monkeypatch)
    split = loads_field(text)
    assert parsed_by_json == []  # both halves on the fast path
    assert len(forks) == 1
    assert_reaped(forks)
    serial = serial_loads(monkeypatch, text)
    assert len(forks) == 1
    assert split.coeffs.tobytes() == serial.coeffs.tobytes()
    numbers = split.coeffs.reshape(-1).view(np.float64)
    assert np.signbit(numbers[5])  # a -0 of each half: the parent's and the child's
    assert np.signbit(numbers[numbers.size // 2 + 7])
    assert dumps_field(split) == text.rstrip()


def _replace(tokens, i, token):
    tokens[i] = token


def _drop_comma(tokens, i):
    tokens[i] += " " + tokens.pop(i + 1)


CORRUPTIONS = {
    "nan": lambda t, i: _replace(t, i, "NaN"),
    "null": lambda t, i: _replace(t, i, "null"),
    "true": lambda t, i: _replace(t, i, "true"),
    "string": lambda t, i: _replace(t, i, '"x"'),
    "dropped-comma": _drop_comma,
    "1e999": lambda t, i: _replace(t, i, "1e999"),
    "5000-digits": lambda t, i: _replace(t, i, "9" * 5000),
    "nested": lambda t, i: _replace(t, i, "[" * 100_000 + "0" + "]" * 100_000),
    "one-too-many": lambda t, i: t.insert(i, "0.5"),
    "one-too-few": lambda t, i: t.pop(i),
}


@pytest.mark.parametrize("half", [0, 1], ids=["first-half", "second-half"])
@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_split_errors_match_serial(corruption, half, monkeypatch, forks):
    tokens = split_tokens()
    CORRUPTIONS[corruption](tokens, len(tokens) // 4 + half * len(tokens) // 2)
    text = split_text(tokens)
    with pytest.raises(FieldFormatError) as split:
        loads_field(text)
    assert len(forks) == 1
    assert_reaped(forks)
    with pytest.raises(FieldFormatError) as serial:
        serial_loads(monkeypatch, text)
    assert str(split.value) == str(serial.value)
    assert split.value.offset == serial.value.offset


def test_split_deeply_nested_coeffs_exit_2(tmp_path, capsys, forks):
    src = tmp_path / "deep.json"
    src.write_text(split_text(["[" * 200_000 + ", ".join(["0"] * 200_000) + "]" * 200_000]))
    assert main(["apply", "d", "-i", str(src), "-o", str(tmp_path / "o.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(forks) == 1
    assert_reaped(forks)


def test_failing_child_leaves_no_temp_file_or_zombie(tmp_path, monkeypatch, forks):
    parent = os.getpid()
    real_format = fields._format

    def in_parent_only(real):
        def wrapper(*args):
            if os.getpid() != parent:
                raise MemoryError
            return real(*args)
        return wrapper

    monkeypatch.setattr(fields, "_format", in_parent_only(real_format))
    field = random_field(SPLIT, 24)
    with pytest.raises(OSError, match="field formatter process failed"):
        save_field(field, tmp_path / "f.json")
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(OSError, match="field formatter process failed"):
        dumps_field(field)
    # a load's child parses instead of formatting, so it succeeds
    text = reference_dumps(field)
    assert loads_field(text).coeffs.tobytes() == field.coeffs.tobytes()
    assert len(forks) == 3
    assert_reaped(forks)


@pytest.mark.parametrize("when", ["before-writing", "after-writing"])
def test_failing_load_child_hands_the_text_to_json(when, tmp_path, monkeypatch, forks, spills):
    field = random_field(SPLIT, 31)
    path = tmp_path / "f.json"
    path.write_text(reference_dumps(field))
    parent = os.getpid()
    real_parse, real_exit = fields._parse, os._exit

    def in_parent_only(*args, **kwargs):
        if os.getpid() != parent:
            raise MemoryError
        return real_parse(*args, **kwargs)

    if when == "before-writing":
        monkeypatch.setattr(fields, "_parse", in_parent_only)
    else:  # a whole spill, but the child's status says it failed
        monkeypatch.setattr(os, "_exit", lambda status: real_exit(1))
    serial = _json_calls(monkeypatch)
    assert load_field(path).coeffs.tobytes() == field.coeffs.tobytes()
    assert len(serial) == 1
    assert len(forks) == 1
    assert_reaped(forks)
    assert len(spills) == 1 and spills[0].closed


@pytest.mark.parametrize("failing", ["spill", "fork"])
def test_split_load_without_a_spill_or_a_process_runs_in_one(failing, tmp_path, monkeypatch,
                                                               forks, spills):
    field = random_field(SPLIT, 32)
    path = tmp_path / "f.json"
    path.write_text(reference_dumps(field))

    def fail(*args, **kwargs):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    if failing == "spill":
        monkeypatch.setattr(fields.tempfile, "TemporaryFile", fail)
    else:
        monkeypatch.setattr(os, "fork", fail)
    serial = _json_calls(monkeypatch)
    assert load_field(path).coeffs.tobytes() == field.coeffs.tobytes()
    assert serial == []  # parsed on the fast path, in this process
    assert forks == []
    assert len(spills) == (failing == "fork") and all(spill.closed for spill in spills)


def test_closing_a_split_save_early_kills_and_reaps_the_child(monkeypatch, forks, spills):
    parent = os.getpid()
    real_format = fields._format

    def stalls_in_child(pairs):
        if os.getpid() != parent:
            time.sleep(30)  # still formatting when the parent lets go
        return real_format(pairs)

    statuses = []
    real_waitpid = os.waitpid

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        statuses.append(reaped[1])
        return reaped

    monkeypatch.setattr(fields, "SPLIT_MIN_NUMBERS", 32)
    monkeypatch.setattr(fields, "_format", stalls_in_child)
    monkeypatch.setattr(os, "waitpid", waitpid)
    pieces = fields._field_text(random_field(SMALL, 29))
    assert next(pieces).startswith(b'{"dims": [2, 2, 2, 2]')
    next(pieces)  # the parent's first piece: the child is running
    pieces.close()
    assert len(forks) == 1
    assert_reaped(forks)
    assert [os.WIFSIGNALED(s) and os.WTERMSIG(s) for s in statuses] == [signal.SIGKILL]
    assert len(spills) == 1 and spills[0].closed


def test_failed_fork_closes_the_spill_file_and_leaves_no_temp_file(tmp_path, monkeypatch,
                                                                     spills):
    def fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(fields, "SPLIT_MIN_NUMBERS", 32)
    monkeypatch.setattr(os, "fork", fork)
    field = random_field(SMALL, 30)
    save_field(field, tmp_path / "f.json")  # this process formats every number
    assert (tmp_path / "f.json").read_text() == reference_dumps(field) + "\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "f.json"]
    assert len(spills) == 1 and spills[0].closed


def test_small_fields_never_fork(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    # 7^4 sites give 76,832 numbers, below the split threshold
    for field in (random_field(SMALL, 25), random_field(LatticeDims(7, 7, 7, 7), 25)):
        path = tmp_path / "f.json"
        save_field(field, path)
        assert load_field(path).coeffs.tobytes() == field.coeffs.tobytes()
        assert loads_field(dumps_field(field)).coeffs.tobytes() == field.coeffs.tobytes()


def test_saves_and_loads_fork_once_each(tmp_path, monkeypatch, forks):
    # with the threshold at one site, every save and every load below forks once
    monkeypatch.setattr(fields, "SPLIT_MIN_NUMBERS", 32)
    for dims in (ONE_SITE, SMALL, LatticeDims(7, 7, 7, 7), SPLIT):
        field = random_field(dims, 27)
        path = tmp_path / "f.json"
        before = len(forks)
        save_field(field, path)
        assert len(forks) == before + 1
        assert load_field(path).coeffs.tobytes() == field.coeffs.tobytes()
        assert len(forks) == before + 2
        assert loads_field(path.read_text()).coeffs.tobytes() == field.coeffs.tobytes()
        assert len(forks) == before + 3
    assert len(forks) == 12
    assert_reaped(forks)


def test_fast_path_cuts_pieces_at_separators(monkeypatch):
    # 7^4 sites give 76,832 numbers, below the old split threshold.  Every
    # token but the last is 22 characters long, so the pieces are exact.
    n = 2 * 16 * 7 ** 4
    assert n == 76_832
    pairs = np.random.default_rng(26).uniform(0.5, 1.0, n)
    pairs[-1] = -0.0
    tokens = [format(v, ".16e") for v in pairs[:-1]] + ["-0"]
    assert {len(t) for t in tokens[:-1]} == {22}
    text = f'{{"dims": [7, 7, 7, 7], "coeffs": [{", ".join(tokens)}]}}\n'
    serial = serial_loads(monkeypatch, text)
    assert serial.coeffs.tobytes() == pairs.tobytes()
    real_loads = orjson.loads
    for chunk in (fields._PIECE, n - 1):  # the second leaves one number last
        sizes = []

        def loads(piece):
            numbers = real_loads(piece)
            sizes.append(len(numbers))
            return numbers

        with monkeypatch.context() as m:
            m.setattr(fields, "_PIECE", chunk)
            m.setattr(orjson, "loads", loads)
            fast = fields._loads_fast(text.encode("ascii"))
        assert fast is not None
        assert fast.coeffs.tobytes() == serial.coeffs.tobytes()
        full = (n - 1) // chunk  # pieces of exactly chunk numbers before the last
        assert sizes[:full] == [chunk] * full
        assert sizes[-1] == n - full * chunk


# Each token must load bit-equal to json or fail with the same error.
HALFWAY = "1.00000000000000011102230246251565404236316680908203125"  # 1 + 2^-53
EXPLICIT_TOKENS = ["0", "1", "-0", "-0.0", str(2**53 + 1), str(2**64 + 1), "9" * 5000,
                   "1e-400", "5e-324", "2.4703282292062328e-324", "1.7976931348623157e308",
                   HALFWAY, HALFWAY[:-1] + "4", HALFWAY[:-1] + "6"]
BAD_TOKENS = ["NaN", "1e999", "01", "1.", "-", "true", "null", '"1"', "[1]", "1e-0", "-0 "]
# valid tokens that may send a text down the json path
LEAVE_FAST_PATH = {str(2**64 + 1), "1e-0", "-0 "}


def _outcome(text):
    """The field's bytes, or the message and offset of its FieldFormatError."""
    try:
        return loads_field(text).coeffs.tobytes()
    except FieldFormatError as exc:
        return str(exc), exc.offset


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(FINITE_BITS.map(lambda v: format(v, ".17g")), FINITE_BITS.map(repr)),
                min_size=32, max_size=32),
       st.lists(st.tuples(st.integers(0, 31), st.sampled_from(EXPLICIT_TOKENS + BAD_TOKENS)),
                max_size=4),
       st.sampled_from([1, 3, 7, fields._PIECE]))
@example(["-0"] * 32, [], 3)
@example(["0", "-0"] * 15 + ["0", "1e-0"], [], 1)
def test_fast_path_matches_json(tokens, replacements, chunk):
    for i, token in replacements:
        tokens[i] = token
    text = f'{{"dims": [1, 1, 1, 1], "coeffs": [{", ".join(tokens)}]}}'
    with mock.patch.object(fields, "_PIECE", chunk):
        fast = fields._loads_fast(text.encode("ascii"))
        loaded = _outcome(text)
        from_bytes = _outcome(text.encode("ascii"))
    with mock.patch.object(fields, "_loads_fast", lambda text: None):
        serial = _outcome(text)
    assert loaded == from_bytes == serial
    if fast is not None:
        assert fast.coeffs.tobytes() == serial
    elif isinstance(serial, bytes):
        assert LEAVE_FAST_PATH & set(tokens)
