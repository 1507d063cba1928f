"""Momentum-space symbols, eigenpairs, and the block-diagonal solver."""

import cmath
import csv
import io
import itertools
import math
from fractions import Fraction

import tracemalloc

import numpy as np
import pytest

from dklattice import algebra, spectral
from dklattice.blades import ALL_MASKS, E0, SIGN
from dklattice.calculus import d_plus_delta, dk_apply, dk_residual
from dklattice.fields import (EquationParams, FormField, max_abs, plane_wave,
                              random_field)
from dklattice.lattice import LatticeDims, site_iter
from dklattice.cli import main
from dklattice.verify import run_checks
from dklattice.spectral import (IMAGINARY_ULPS, LIGHT_CONE_TOL, SingularBlockError,
                                _eigen_stack, _eigenvalue_pair, _grid_z, _roots,
                                _symbol_block, _z as _z_grid,
                                build_symbol, eigen_solve, format_complex,
                                propagator_solve, spectrum_rows,
                                write_spectrum_csv)

DIMS4 = LatticeDims(4, 4, 4, 4)
DIMS3 = LatticeDims(3, 3, 3, 3)


def _z(p, dims):
    return tuple(cmath.exp(2j * cmath.pi * c / n) - 1
                 for c, n in zip(p, dims.shape))


def test_symbol_zero_momentum_is_zero():
    assert np.max(np.abs(build_symbol((0, 0, 0, 0), DIMS4))) == 0.0


def test_symbol_at_half_extent_is_left_mul_by_e0():
    # z = (-2, 0, 0, 0), so the symbol must be -2 times left
    # multiplication by e0, built here straight from the blade table
    sym = build_symbol((2, 0, 0, 0), DIMS4)
    left_e0 = np.zeros((16, 16))
    for b in ALL_MASKS:
        left_e0[E0 ^ b, b] = SIGN[E0, b]
    assert np.max(np.abs(sym - (-2.0) * left_e0)) < 1e-14


def test_symbol_square_is_scalar():
    # (i D(p))^2 = -(z0^2 - z1^2 - z2^2 - z3^2) times the identity
    for p in [(1, 2, 3, 0), (0, 2, 0, 0), (1, 1, 1, 1), (3, 0, 1, 2)]:
        z = _z(p, DIMS4)
        w = -(z[0] ** 2 - z[1] ** 2 - z[2] ** 2 - z[3] ** 2)
        op = 1j * build_symbol(p, DIMS4)
        assert np.max(np.abs(op @ op - w * np.eye(16))) < 1e-12


def test_symbol_square_frozen_value():
    # p = (1,2,3,0) on 4^4: z = (i-1, -2, -1-i, 0) gives w = 4 + 4i
    z = _z((1, 2, 3, 0), DIMS4)
    w = -(z[0] ** 2 - z[1] ** 2 - z[2] ** 2 - z[3] ** 2)
    assert abs(w - complex(4.0, 4.0)) < 1e-13


def test_eigenvalues_at_half_extent_momenta():
    # time-axis half extent: purely imaginary +-2i, eight each;
    # space-axis half extent: purely real +-2, eight each
    values_t = eigen_solve((2, 0, 0, 0), DIMS4)[0]
    assert np.max(np.abs(values_t.real)) < 1e-12
    imag_sorted = np.sort(values_t.imag)
    assert np.all(np.abs(imag_sorted[:8] + 2.0) < 1e-12)
    assert np.all(np.abs(imag_sorted[8:] - 2.0) < 1e-12)

    values_s = eigen_solve((0, 2, 0, 0), DIMS4)[0]
    assert np.max(np.abs(values_s.imag)) < 1e-12
    assert np.all(np.abs(values_s.real[:8] + 2.0) < 1e-12)
    assert np.all(np.abs(values_s.real[8:] - 2.0) < 1e-12)
    # the imaginary rounding noise of a real root reads exactly +0
    assert values_s.tolist() == [-2] * 8 + [2] * 8
    assert not np.any(np.signbit(values_s.imag))


def test_eigen_solve_residuals_and_norms():
    # (2,2,1,3) is on the light cone: its defective block has 8 eigenvectors
    for p, count in [((1, 0, 0, 0), 16), ((1, 2, 3, 0), 16), ((2, 2, 1, 3), 8)]:
        op = 1j * build_symbol(p, DIMS4)
        values, amps = eigen_solve(p, DIMS4)
        assert values.shape == (count,) and amps.shape == (count, 16)
        assert np.linalg.matrix_rank(amps) == count
        for value, amp in zip(values, amps):
            assert abs(np.linalg.norm(amp) - 1.0) < 1e-12
            res = np.linalg.norm(op @ amp - value * amp)
            assert res < 1e-12


def test_eigen_solve_deterministic_ordering():
    values_a, amps_a = eigen_solve((1, 2, 3, 0), DIMS4)
    values_b, amps_b = eigen_solve((1, 2, 3, 0), DIMS4)
    assert np.array_equal(values_a, values_b)
    assert np.array_equal(amps_a, amps_b)
    values = list(values_a)
    assert values == sorted(values, key=lambda v: (v.real, v.imag))


@pytest.mark.parametrize("shape,cone_count", [((4, 4, 4, 4), 27), ((1, 2, 3, 4), 0)])
def test_eigen_solve_full_rank_at_every_momentum(shape, cone_count):
    # Off the light cone LAPACK eig is the oracle for the eigenvalues; on it
    # (s(p) = 0, S(p) != 0) the block is defective, with only 8 eigenvectors
    dims = LatticeDims(*shape)
    seen_cone = 0
    for p in site_iter(dims):
        z = _z(p, dims)
        s = z[0] ** 2 - z[1] ** 2 - z[2] ** 2 - z[3] ** 2
        norm = sum(abs(c) ** 2 for c in z)
        on_cone = norm > 0 and abs(s) <= 1e-12 * norm
        seen_cone += on_cone
        op = 1j * build_symbol(p, dims)
        values, amps = eigen_solve(p, dims)
        count = 8 if on_cone else 16
        assert len(values) == len(amps) == count
        assert np.linalg.matrix_rank(amps) == count
        for value, amp in zip(values, amps):
            assert abs(np.linalg.norm(amp) - 1.0) <= 1e-12
            assert np.linalg.norm(op @ amp - value * amp) <= 1e-12

        rows = [complex(r[4], r[5]) for r in spectrum_rows(dims, [p])]
        assert len(rows) == 16
        if abs(s) <= 1e-12 * norm:
            # exactly 0,0, never -0
            assert all(math.copysign(1.0, part) == 1.0 and part == 0.0
                       for r in rows for part in (r.real, r.imag))
            continue
        lo, hi = rows[0], rows[8]
        assert rows[:8] == [lo] * 8 and rows[8:] == [hi] * 8
        assert (lo.real, lo.imag) < (hi.real, hi.imag)
        root = 1j * cmath.sqrt(s)
        assert min(abs(lo - root) + abs(hi + root), abs(lo + root) + abs(hi - root)) <= 1e-14
        oracle = np.linalg.eig(op).eigenvalues
        near_lo = np.abs(oracle - lo) <= 1e-12
        assert np.sum(near_lo) == 8
        assert np.all(np.abs(oracle[~near_lo] - hi) <= 1e-12)
    assert seen_cone == cone_count


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (6, 6, 6, 6), (2, 3, 1, 4)])
def test_roots_of_one_momentum_equal_the_grid_bit_for_bit(shape):
    # s(p), the root and the printed eigenvalues of one momentum are the bits
    # the propagator's singular check reads off the grid
    dims = LatticeDims(*shape)
    grid_s, grid_root = (np.broadcast_to(v, shape) for v in _roots(_grid_z(dims)))
    grid_lo, grid_hi = _eigenvalue_pair(grid_root)
    for p in site_iter(dims):
        s, root = _roots(_z_grid(np.array(p)[:, None], dims))
        assert s.tobytes() == grid_s[p].tobytes() and root.tobytes() == grid_root[p].tobytes()
        rows = list(spectrum_rows(dims, [p]))
        assert (rows[0][4:], rows[8][4:]) == ((grid_lo[p].real, grid_lo[p].imag),
                                              (grid_hi[p].real, grid_hi[p].imag))


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (4, 4, 4, 4), (2, 3, 1, 4)])
def test_eigen_stack_gives_each_momentum_its_own_bits(shape):
    # a stack of momenta, grouped by kind, holds exactly what eigen_solve and
    # build_symbol return for each momentum alone
    dims = LatticeDims(*shape)
    momenta = list(site_iter(dims))
    groups = _eigen_stack(np.array(momenta), dims)
    assert [g[1].shape[1] for g in groups] == [16, 8, 16]
    assert sum(len(g[0]) for g in groups) == len(momenta)
    seen = [0, 0, 0]
    for p in momenta:
        values, amps = eigen_solve(p, dims)
        kind = 0 if values[-1] != 0 else (1 if len(values) == 8 else 2)
        got = [array[seen[kind]] for array in groups[kind]]
        seen[kind] += 1
        assert got[0].tobytes() == values.tobytes() and got[1].tobytes() == amps.tobytes()
        assert got[2].tobytes() == build_symbol(p, dims).tobytes()


def _nudge(part, ulps):
    """part moved ulps steps up wherever it is nonzero; zeros stay exactly 0."""
    moved = part
    for _ in range(ulps):
        moved = np.nextafter(moved, np.inf)
    return np.where(part != 0, moved, part)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_light_cone_rows_survive_a_last_bit_change_of_z(n, monkeypatch):
    # the rows S e_B / |S e_B| are continuous in z, so moving every nonzero
    # z_mu by 1 or 2 ulp moves them by rounding only (an SVD basis of ker S
    # moved by up to 1.41 here), and no block changes kind or pair order
    dims = LatticeDims(n, n, n, n)
    momenta = np.array(list(site_iter(dims)))
    before = _eigen_stack(momenta, dims)
    exact_z = spectral._z
    monkeypatch.setattr(spectral, "_z", lambda p, d: tuple(
        _nudge(c.real, 1 + mu % 2) + 1j * _nudge(c.imag, 2 - mu % 2)
        for mu, c in enumerate(exact_z(p, d))))
    after = _eigen_stack(momenta, dims)
    assert np.any(after[1][2] != before[1][2])  # the symbols did move
    assert [len(g[0]) for g in after] == [len(g[0]) for g in before]
    assert len(before[1][0]) > 0 and np.all(after[1][0] == 0)
    assert np.max(np.abs(after[1][1] - before[1][1])) <= 1e-15
    # a swapped pair would move each eigenvalue by 2 |root|
    assert np.max(np.abs(after[0][0] - before[0][0])) <= 1e-13


@pytest.mark.parametrize("shape", [(4, 4, 4, 4), (6, 6, 6, 6), (2, 3, 1, 4)])
def test_light_cone_rows_are_unit_columns_of_the_symbol(shape):
    # row k is S e_B / |S e_B| for the k-th blade B without e_nu, nu the axis
    # whose p_nu / N_nu is nearest 1/2, the lowest on a tie
    dims = LatticeDims(*shape)
    seen = 0
    for p in site_iter(dims):
        values, amps = eigen_solve(p, dims)
        if len(values) == 16:
            continue
        seen += 1
        nu = min(range(4), key=lambda mu: Fraction(abs(2 * p[mu] - shape[mu]), shape[mu]))
        symbol = build_symbol(p, dims)
        columns = symbol[:, [b for b in ALL_MASKS if not b >> nu & 1]].T
        expected = columns / np.linalg.norm(columns, axis=1)[:, None]
        assert np.max(np.abs(amps - expected)) <= 1e-16
        assert np.max(np.abs(amps @ symbol.T)) <= 1e-15  # S a = 0
    assert seen > 0


class _NoLapack:
    """Stands in for numpy's LAPACK gateway, through which every LAPACK-backed
    np.linalg function (svd, eig, solve, qr, ...) calls its routine."""

    def __getattr__(self, routine):
        raise AssertionError(f"LAPACK routine {routine} called")


def test_verify_gate_and_quadruple_call_no_lapack(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(np.linalg._linalg, "_umath_linalg", _NoLapack())
    with pytest.raises(AssertionError, match="LAPACK routine"):
        np.linalg.svd(np.eye(2))
    values, amps = eigen_solve((2, 2, 1, 3), DIMS4)  # on the light cone
    assert len(values) == 8 and np.all(values == 0)
    assert np.max(np.abs(amps @ build_symbol((2, 2, 1, 3), DIMS4).T)) <= 1e-15
    assert run_checks("all", DIMS3).passed
    wave, prefix = str(tmp_path / "wave.json"), str(tmp_path / "quad")
    assert main(["gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
                 "--eigen", "15", "-o", wave]) == 0
    assert main(["quadruple", "-i", wave, "--mass", "2,0", "--out-prefix", prefix]) == 0
    assert "rank=2\n" in capsys.readouterr().out


def test_light_cone_classification_has_a_wide_gap():
    # Over every extent tuple 1..6, |s| / sum |z|^2 is either rounding-sized
    # (on the light cone) or far from it, and LIGHT_CONE_TOL sits in the gap
    assert 1e-15 < LIGHT_CONE_TOL < 1e-3
    cone_blocks = []
    for shape in itertools.product(range(1, 7), repeat=4):
        dims = LatticeDims(*shape)
        z = [np.broadcast_to(c, shape)
             for c in _z_grid(np.ix_(*(np.arange(n) for n in shape)), dims)]
        s, root = _roots(z)
        norm = sum(np.abs(c) ** 2 for c in z)
        live = norm > 0                     # S(p) != 0
        ratio = np.abs(s[live]) / norm[live]
        assert np.all((ratio <= 1e-15) | (ratio >= 1e-3))
        assert np.array_equal(root[live] == 0, ratio <= 1e-15)
        cone_blocks += [_symbol_block([c[k] for c in z])
                        for k in zip(*np.nonzero(live & (root == 0)))]
    blocks = np.array(cone_blocks)
    assert len(blocks) > 0
    assert np.max(np.abs(blocks @ blocks)) <= 1e-14
    assert np.all(np.linalg.matrix_rank(blocks) == 8)


@pytest.mark.parametrize("n, noisy_count", [(6, 45), (16, 321)])
def test_imaginary_roots_read_plus_zero_and_order_minus_first(n, noisy_count):
    # where i sqrt(s(p)) is imaginary in exact arithmetic, its computed real
    # part is rounding noise of either sign; _roots reads it as +0, so each
    # such pair is ordered -|Im| first, also after a one-ulp change of z
    dims = LatticeDims(n, n, n, n)
    z = _grid_z(dims)
    s, root = _roots(z)
    raw = 1j * np.sqrt(s)
    noise = IMAGINARY_ULPS * np.finfo(float).eps * np.abs(raw)
    noisy = (root != 0) & (raw.real != 0) & (np.abs(raw.real) <= noise)
    assert noisy.sum() == noisy_count
    # real roots lose their imaginary noise (test_real_roots_read_plus_zero_imaginary_part)
    kept = (root != 0) & ~noisy & (np.abs(raw.imag) > noise)
    assert np.array_equal(root[kept], raw[kept])
    genuine = kept & (raw.real != 0)
    assert np.all(np.abs(raw.real[genuine]) >= 1e-3 * np.abs(raw[genuine]))
    for zs in (z, tuple(np.nextafter(c.real, np.inf) + 1j * c.imag for c in z)):
        root = _roots(zs)[1]
        lo, hi = _eigenvalue_pair(root)
        for value, sign in ((root, 1), (lo, -1), (hi, 1)):
            part = value[noisy]
            assert np.all(part.real == 0) and not np.any(np.signbit(part.real))
            if value is not root:
                assert np.array_equal(part.imag, sign * np.abs(root[noisy].imag))


@pytest.mark.parametrize("n", [4, 6, 16])
def test_real_roots_read_plus_zero_imaginary_part(n):
    # where i sqrt(s(p)) is real in exact arithmetic (s(p) < 0), its computed
    # imaginary part is rounding noise; _roots reads it as +0
    z = _grid_z(LatticeDims(n, n, n, n))
    s, root = _roots(z)
    raw = 1j * np.sqrt(s)
    noise = IMAGINARY_ULPS * np.finfo(float).eps * np.abs(raw)
    noisy = (root != 0) & (raw.imag != 0) & (np.abs(raw.imag) <= noise)
    assert noisy.sum() > 0
    assert np.all(root.imag[noisy] == 0) and not np.any(np.signbit(root.imag[noisy]))
    assert np.array_equal(root.real[noisy], raw.real[noisy])
    genuine = (root != 0) & ~noisy & (raw.imag != 0)
    assert np.all(np.abs(raw.imag[genuine]) >= 1e-4 * np.abs(raw[genuine]))


def test_symbol_matches_operator_on_plane_waves():
    rng = np.random.default_rng(0)
    for p in [(0, 0, 0, 0), (1, 0, 2, 3), (2, 1, 1, 0)]:
        sym = build_symbol(p, DIMS4)
        amp = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
        wave = plane_wave(DIMS4, p, amp)
        expected = plane_wave(DIMS4, p, sym @ amp)
        dev = max_abs(d_plus_delta(wave) - expected)
        assert dev <= 1e-13 * max_abs(wave)


@pytest.mark.parametrize("shape,mass", [((3, 3, 3, 3), 1.0 + 0.0j),
                                        ((2, 3, 1, 4), 0.3 - 0.8j)])
def test_propagator_matches_per_momentum_solve(shape, mass):
    # LAPACK oracle: solve each 16 x 16 block (i S(p) - m I) on its own
    dims = LatticeDims(*shape)
    source = random_field(dims, 24)
    transformed = np.fft.fftn(source.coeffs, axes=(0, 1, 2, 3))
    for p in site_iter(dims):
        block = 1j * build_symbol(p, dims) - mass * np.eye(16)
        transformed[p] = np.linalg.solve(block, transformed[p])
    expected = np.fft.ifftn(transformed, axes=(0, 1, 2, 3))
    got = propagator_solve(source, mass).coeffs
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(3, 3, 3, 3), (2, 3, 1, 4)])
@pytest.mark.parametrize("mass", [1.0 + 0.0j, 0.75 + 0.25j])
@pytest.mark.parametrize("slab_bytes", [None, 1])
def test_propagator_equals_transform_divide_transform(shape, mass, slab_bytes, monkeypatch):
    # fftn, divide by -s - m^2, ifftn, then i (d + delta) g + m g, each step
    # into a new array: the in-place solve must give the same bytes
    dims = LatticeDims(*shape)
    source = random_field(dims, 25)
    s, _ = _roots(_grid_z(dims))
    transformed = np.fft.fftn(source.coeffs, axes=(0, 1, 2, 3))
    transformed /= (-s - mass * mass)[..., None]
    g = FormField(dims, np.fft.ifftn(transformed, axes=(0, 1, 2, 3)))
    expected = dk_apply(g) + mass * g
    if slab_bytes is not None:  # one site row per slab
        monkeypatch.setattr(algebra, "SLAB_BYTES", slab_bytes)
    got = propagator_solve(source, mass)
    assert got.coeffs.tobytes() == expected.coeffs.tobytes()
    assert not got.coeffs.flags.writeable


def test_propagator_peak_memory_at_8_4():
    source = random_field(LatticeDims(8, 8, 8, 8), 26)
    propagator_solve(source, 1.0)
    tracemalloc.start()
    try:
        propagator_solve(source, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * source.coeffs.nbytes


def test_eigen_plane_waves_solve_equation():
    for p in [(1, 0, 0, 0), (1, 2, 3, 0)]:
        for idx in (0, 7, 15):
            values, amps = eigen_solve(p, DIMS4)
            omega = plane_wave(DIMS4, p, amps[idx])
            res = max_abs(dk_residual(omega, EquationParams(values[idx])))
            assert res <= 1e-12 * max_abs(omega)


def test_propagator_inverts_operator():
    source = random_field(DIMS3, 21)
    mass = 1.0 + 0.0j
    omega = propagator_solve(source, mass)
    res = max_abs(dk_residual(omega, EquationParams(mass)) - source)
    assert res <= 1e-11 * max_abs(source)


def test_propagator_recovers_known_field():
    psi = random_field(DIMS3, 22)
    mass = 1.0 + 0.0j
    source = dk_residual(psi, EquationParams(mass))
    recovered = propagator_solve(source, mass)
    assert max_abs(recovered - psi) <= 1e-11 * max_abs(psi)


def test_propagator_rejects_eigenvalue_mass():
    source = random_field(DIMS3, 23)
    with pytest.raises(SingularBlockError) as info:
        propagator_solve(source, 0.0)
    err = info.value
    assert err.momentum == (0, 0, 0, 0)
    assert abs(err.eigenvalue) < 1e-12
    assert "p=(0, 0, 0, 0)" in str(err)

    # nonzero momentum: s(p) = -4 at e.g. (0, 2, 0, 0) gives eigenvalues +-2
    with pytest.raises(SingularBlockError) as info:
        propagator_solve(random_field(DIMS4, 23), 2.0)
    err = info.value
    z = _z(err.momentum, DIMS4)
    assert abs(z[0] ** 2 - z[1] ** 2 - z[2] ** 2 - z[3] ** 2 + 4.0) < 1e-12
    assert abs(err.eigenvalue - 2.0) < 1e-12
    assert f"p={err.momentum}" in str(err)


def test_format_complex():
    assert format_complex(complex(2, 0)) == "2,0"
    assert format_complex(complex(0.1, -1)) == "0.10000000000000001,-1"


def test_spectrum_rows_shape():
    rows = list(spectrum_rows(DIMS4, [(0, 0, 0, 0), (1, 2, 3, 0)]))
    assert len(rows) == 32
    assert rows[0][:4] == (0, 0, 0, 0)
    assert rows[16][:4] == (1, 2, 3, 0)
    # zero momentum block is nilpotent-free and massless: all eigenvalues 0
    assert all(abs(r[4]) < 1e-13 and abs(r[5]) < 1e-13 for r in rows[:16])


def test_spectrum_csv_format():
    buffer = io.StringIO()
    write_spectrum_csv(buffer, DIMS4, [(0, 2, 0, 0)])
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "p0,p1,p2,p3,re_lambda,im_lambda"
    assert len(lines) == 17
    reader = csv.reader(io.StringIO(buffer.getvalue()))
    next(reader)
    values = [complex(float(row[4]), float(row[5])) for row in reader]
    assert all(abs(abs(v) - 2.0) < 1e-12 for v in values)
    assert all(row_starts == "0,2,0,0" for row_starts in
               [",".join(line.split(",")[:4]) for line in lines[1:]])


def test_eigen_solve_and_symbol_are_read_only():
    values, amps = eigen_solve((1, 0, 0, 0), DIMS4)
    symbol = build_symbol((1, 0, 0, 0), DIMS4)
    for array, index in ((values, 0), (amps, (0, 0)), (symbol, (0, 0))):
        with pytest.raises(ValueError):
            array[index] = 1.0


@pytest.mark.parametrize("p", [(1, 0, 0), (1, 0, 0, 0, 0), ()])
def test_eigen_solve_rejects_momentum_without_four_components(p):
    with pytest.raises(ValueError, match="four components"):
        eigen_solve(p, DIMS4)
