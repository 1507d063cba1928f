"""Command line behavior: files, reports, exit codes."""

import hashlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dklattice import algebra, verify
from dklattice.algebra import ConstantForm
from dklattice.calculus import dk_apply, dk_residual, solve_residual
from dklattice.cli import _join_signed_values, main
from dklattice.fields import (EquationParams, FormField, load_field, max_abs, plane_wave,
                              random_field, save_field)
from dklattice.spectral import build_symbol, propagator_solve
from dklattice.lattice import LatticeDims

DIMS = LatticeDims(3, 3, 3, 3)


def run_cli(*argv):
    return main(list(argv))


def test_gen_random_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen", "random", "--seed", "9", "-o", str(a)) == 0
    assert run_cli("gen", "random", "--seed", "9", "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    field = load_field(a)
    assert field.coeffs.tobytes() == random_field(DIMS, 9).coeffs.tobytes()


def test_gen_constant_unit(tmp_path):
    out = tmp_path / "unit.json"
    assert run_cli("gen", "constant", "--amp", "x=1,0", "-o", str(out)) == 0
    assert np.array_equal(load_field(out).coeffs, ConstantForm.unit().as_field(DIMS).coeffs)


def test_gen_constant_accepts_masks_and_names(tmp_path):
    out = tmp_path / "c.json"
    assert run_cli("gen", "constant", "--amp", "e01=0.5,-1", "--amp", "6=0,2",
                   "-o", str(out)) == 0
    f = load_field(out)
    assert f.coeffs[0, 0, 0, 0, 3] == complex(0.5, -1.0)   # e01 has mask 3
    assert f.coeffs[0, 0, 0, 0, 6] == complex(0.0, 2.0)    # e12 has mask 6


def test_gen_stdout(capsys):
    assert run_cli("gen", "constant", "--amp", "x=1,0", "--dims", "2,2,2,2") == 0
    text = capsys.readouterr().out
    assert text.startswith('{"dims": [2, 2, 2, 2]')


def test_gen_plane_wave_eigen_reports_mass(tmp_path, capsys):
    out = tmp_path / "w.json"
    code = run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
                   "--eigen", "15", "-o", str(out))
    assert code == 0
    mass_line = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("mass=")][0]
    assert mass_line == "mass=2,0"
    assert run_cli("residual", "dk", "-i", str(out), "--mass", mass_line[5:]) == 0


def test_gen_plane_wave_eigen_on_light_cone(tmp_path, capsys):
    # s(p) = 0 at p = (1,1,0,0) on 4^4: the block has 8 eigenvectors, mass 0
    out = tmp_path / "w.json"
    assert run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "1,1,0,0",
                   "--eigen", "8", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert "p=(1, 1, 0, 0) is defective" in err and "0..7" in err
    assert not out.exists()
    assert run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "1,1,0,0",
                   "--eigen", "7", "-o", str(out)) == 0
    assert "mass=0,0" in capsys.readouterr().out.splitlines()
    assert run_cli("residual", "dk", "-i", str(out), "--mass", "0,0") == 0


@pytest.mark.parametrize("k", [0, 3, 7])
def test_gen_plane_wave_eigen_on_light_cone_writes_closed_form_row(tmp_path, capsys, k):
    # p = (0,1,3,0) on 4^4 is on the light cone, and axes 1 and 2 tie nearest
    # half extent, so row k is S e_B / |S e_B| for the k-th blade B without e1
    dims = LatticeDims(4, 4, 4, 4)
    out = tmp_path / "w.json"
    assert run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,1,3,0",
                   "--eigen", str(k), "-o", str(out)) == 0
    assert "mass=0,0" in capsys.readouterr().out.splitlines()
    column = build_symbol((0, 1, 3, 0), dims)[:, [0, 1, 4, 5, 8, 9, 12, 13][k]]
    expected = plane_wave(dims, (0, 1, 3, 0), column / np.linalg.norm(column))
    assert max_abs(load_field(out) - expected) <= 1e-16


def test_gen_out_of_memory_exits_2(tmp_path, capsys):
    # 1000^4 sites of 16 complex128 numbers take 233 TiB, more than the user
    # address space of a 64-bit host, so the first allocation fails at once
    out = tmp_path / "x.json"
    assert run_cli("gen", "random", "--dims", "1000,1000,1000,1000", "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--amp", "x=1,0"),
    ("gen", "constant", "--p", "1,0,0,0"),
    ("gen", "plane-wave",),
    ("gen", "plane-wave", "--p", "1,0,0,0"),
    ("gen", "plane-wave", "--p", "1,0,0,0", "--amp", "x=1,0", "--eigen", "0"),
    ("gen", "plane-wave", "--p", "1,0,0,0", "--eigen", "16"),
    ("gen", "constant", "--amp", "x=1,0", "--amp", "x=2,0"),
    ("gen", "constant", "--amp", "bogus=1,0"),
    ("gen", "constant", "--amp", "17=1,0"),
    ("gen", "constant", "--amp", "x:1,0"),
    ("gen", "constant", "--amp", "x=nan,0"),
    ("gen", "constant", "--amp", "x=a,b"),
    ("gen", "plane-wave", "--p", "1,2", "--amp", "x=1,0"),
    ("gen", "plane-wave", "--p", "1,2,x,0", "--amp", "x=1,0"),
    ("gen", "random", "--dims", "3,3"),
    ("gen", "random", "--dims", "3,3,3,0"),
    ("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "1,1,0,0", "--eigen", "8"),
])
def test_gen_usage_errors(argv, tmp_path, capsys):
    assert run_cli(*argv, "-o", str(tmp_path / "x.json")) == 2
    err = capsys.readouterr().err
    assert "invalid _parse" not in err and "invalid parse value" not in err


def test_apply_matches_library(tmp_path):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    save_field(random_field(DIMS, 3), src)
    assert run_cli("apply", "dk", "-i", str(src), "-o", str(dst)) == 0
    expected = dk_apply(load_field(src))
    assert np.array_equal(load_field(dst).coeffs, expected.coeffs)


def test_residual_pass_and_fail(tmp_path, capsys):
    wave = tmp_path / "w.json"
    run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
            "--eigen", "15", "-o", str(wave))
    capsys.readouterr()
    assert run_cli("residual", "dk", "-i", str(wave), "--mass", "2,0") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "status=pass"
    assert any(l.startswith("max_abs=") for l in out)
    assert any(l.startswith("rel=") for l in out)

    noise = tmp_path / "n.json"
    save_field(random_field(DIMS, 5), noise)
    assert run_cli("residual", "dk", "-i", str(noise), "--mass", "2,0") == 1
    assert capsys.readouterr().out.splitlines()[-1] == "status=fail"


@pytest.mark.parametrize("eq", ["dk", "hestenes"])
def test_residual_reports_a_nan_past_the_first_piece_and_fails(eq, tmp_path, capsys):
    # blade x at sites (5, 5, 5, k) alternating +-1.5e308: the differences
    # overflow, and the first non-finite residual coefficient is past the
    # first piece of max_abs
    dims = LatticeDims(6, 6, 6, 6)
    coeffs = np.zeros(dims.shape + (16,), dtype=complex)
    coeffs[5, 5, 5, :, 0] = 1.5e308 * np.array([1, -1, 1, -1, 1, -1])
    huge = tmp_path / "huge.json"
    save_field(FormField(dims, coeffs), huge)
    assert run_cli("residual", eq, "-i", str(huge), "--mass", "0,0") == 1
    captured = capsys.readouterr()
    assert {"max_abs=nan", "rel=nan", "status=fail"} <= set(captured.out.splitlines())
    assert captured.err == ""


def test_residual_rms_of_a_huge_field_is_finite(tmp_path, capsys):
    # the residual of a constant field at mass 1 is minus the field, whose one
    # blade of 4e200 among 16 has root mean square 1e200
    big = tmp_path / "big.json"
    assert run_cli("gen", "constant", "--amp", "x=4e200,0", "-o", str(big)) == 0
    assert run_cli("residual", "dk", "-i", str(big), "--mass", "1,0") == 1
    captured = capsys.readouterr()
    assert {"max_abs=4e+200", "rms=1e+200"} <= set(captured.out.splitlines())
    assert captured.err == ""


@pytest.mark.parametrize("argv, expected", [
    # the residual is minus the field: one blade of 1e-200 among 16 at every site
    (("residual", "dk", "-i", "{tiny}", "--mass", "1,0"),
     {"max_abs=1e-200", "rms=2.5e-201", "status=fail"}),
    # m omega overflows: the residual really is infinite
    (("residual", "dk", "-i", "{noise}", "--mass", "1e308,1e308"),
     {"max_abs=inf", "rms=inf", "status=fail"}),
    (("residual", "hestenes", "-i", "{noise}", "--mass", "1e308,1e308"),
     {"max_abs=inf", "rms=inf", "status=fail"}),
    # m^2 overflows, but the solution, about -source / m, is finite
    (("solve", "-i", "{noise}", "--mass", "1e160,0", "-o", "{out}"), {"status=pass"}),
    (("solve", "-i", "{noise}", "--mass", "1e308,1e308", "-o", "{out}"), {"status=pass"}),
    # |m| itself is past the largest double, so the singular test and the
    # residual's scale go through m 2^-e
    (("residual", "dk", "-i", "{noise}", "--mass", "1.7e308,1.7e308"),
     {"max_abs=inf", "rms=inf", "scale=inf", "status=fail"}),
    (("solve", "-i", "{noise}", "--mass", "1.7e308,1.7e308", "-o", "{out}"), {"status=pass"}),
    # q2 is the field itself, whose residual at mass 1 is minus the field:
    # relative to the field, not to 1
    (("quadruple", "-i", "{tiny}", "--mass", "1,0", "--out-prefix", "{out}"),
     {"residual_q2=1", "status=fail"}),
])
def test_every_finite_scale_reports_without_numpy_warnings(argv, expected, tmp_path, capsys):
    files = {name: tmp_path / f"{name}.json" for name in ("tiny", "noise", "out")}
    run_cli("gen", "constant", "--dims", "2,2,2,2", "--amp", "x=1e-200,0",
            "-o", str(files["tiny"]))
    run_cli("gen", "random", "--dims", "2,2,2,2", "-o", str(files["noise"]))
    capsys.readouterr()
    code = run_cli(*(arg.format(**files) for arg in argv))
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert captured.err == ""
    assert expected <= set(out)
    assert code == (0 if "status=pass" in expected else 1)
    if argv[0] == "solve":
        assert float(out[0].removeprefix("residual_rel=")) <= 1e-11


def test_residual_hestenes_variants(tmp_path):
    wave = tmp_path / "w.json"
    run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
            "--eigen", "15", "-o", str(wave))
    parts = tmp_path / "parts"
    assert run_cli("decompose", "-i", str(wave), "--out-prefix", str(parts)) == 0
    assert run_cli("residual", "hestenes", "-i", f"{parts}.pp.json",
                   "--mass", "2,0") == 0
    assert run_cli("residual", "hestenes-flipped", "-i", f"{parts}.mp.json",
                   "--mass", "2,0") == 0
    # wrong variant must fail on a nonzero part
    assert run_cli("residual", "hestenes", "-i", f"{parts}.mp.json",
                   "--mass", "2,0") == 1


def test_spectrum_output(tmp_path):
    out = tmp_path / "s.csv"
    assert run_cli("spectrum", "--dims", "4,4,4,4", "--p", "0,2,0,0",
                   "--p", "1,0,0,0", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p0,p1,p2,p3,re_lambda,im_lambda"
    assert len(lines) == 33


def test_spectrum_all(capsys):
    assert run_cli("spectrum", "--dims", "2,2,2,2", "--all") == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 16 * 16


@pytest.mark.parametrize("argv", [
    ("spectrum", "--dims", "2,2,2,2"),
    ("spectrum", "--dims", "2,2,2,2", "--p", "0,0,0,0", "--all"),
    ("spectrum", "--p", "1,2"),
    ("spectrum", "--dims", "3,3", "--all"),
])
def test_spectrum_usage_errors(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "invalid _parse" not in err and "invalid parse value" not in err


def test_verify_command(capsys):
    assert run_cli("verify", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "status=pass"
    assert all("=" in line for line in out)


@pytest.mark.parametrize("prop,trials", [("all", "0"), ("1", "0"), ("4", "-3")])
def test_verify_rejects_trials_below_one(prop, trials, capsys):
    # a check over zero trials would pass on no work at all
    assert run_cli("verify", prop, "--trials", trials) == 2
    err = capsys.readouterr().err
    assert f"--trials: must be a positive integer, got '{trials}'" in err
    assert "negative dimensions" not in err


@pytest.mark.parametrize("trials", ["1", "20"])
def test_verify_all_covers_every_momentum(trials, capsys):
    # families 4 and spectral do not sample momenta, so --trials leaves them alone
    assert run_cli("verify", "all", "--dims", "3,3,3,3", "--trials", trials) == 0
    out = capsys.readouterr().out.splitlines()
    assert "prop4_solutions_checked=1248" in out
    assert "spectral_momenta=81" in out
    assert "prop5_realmass_momentum=0,0,1,2" in out
    assert out[-1] == "status=pass"


@pytest.mark.parametrize("prop,dims", [("all", "6,6,6,6"), ("propagator", "12,12,12,12")])
def test_verify_propagator_avoids_the_spectrum(prop, dims, capsys):
    # mass 1 is a block eigenvalue at 6^4 and 12^4
    assert run_cli("verify", prop, "--dims", dims, "--trials", "1") == 0
    out = capsys.readouterr().out.splitlines()
    assert "propagator_mass=0.5,0" in out
    assert out[-1] == "status=pass"


def test_verify_propagator_fails_without_a_usable_mass(monkeypatch, capsys):
    monkeypatch.setattr(verify, "PROPAGATOR_MASSES", (1.0 + 0.0j,))
    assert run_cli("verify", "propagator", "--dims", "6,6,6,6", "--trials", "1") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["propagator_max_rel_residual=inf", "propagator_sources=0",
                       "propagator_mass=1,0"]
    assert float(out[3].removeprefix("propagator_mass_distance=")) < 1e-12
    assert out[4:] == ["status=fail"]


def test_verify_tol_scale_tightened(capsys):
    # clifford checks are exact, so even a crushed tolerance passes
    assert run_cli("verify", "clifford", "--tol-scale", "1e-6") == 0


def test_decompose_files_and_report(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_field(random_field(DIMS, 7), src)
    prefix = tmp_path / "part"
    assert run_cli("decompose", "-i", str(src), "--out-prefix", str(prefix)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "status=pass"
    total = None
    for suffix in ("pp", "mp", "pm", "mm"):
        piece = load_field(f"{prefix}.{suffix}.json")
        total = piece if total is None else total + piece
    assert max_abs(total - load_field(src)) <= 1e-13 * max_abs(load_field(src))


def test_decompose_fails_at_tol_zero(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_field(random_field(DIMS, 7), src)
    assert run_cli("decompose", "-i", str(src), "--out-prefix", str(tmp_path / "part"),
                   "--tol", "0") == 1
    rel, status = capsys.readouterr().out.splitlines()
    assert float(rel.removeprefix("reconstruction_rel=")) > 0.0
    assert status == "status=fail"


def test_quadruple_files_and_report(tmp_path, capsys):
    wave = tmp_path / "w.json"
    run_cli("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
            "--eigen", "15", "-o", str(wave))
    prefix = tmp_path / "quad"
    capsys.readouterr()
    assert run_cli("quadruple", "-i", str(wave), "--mass", "2,0",
                   "--out-prefix", str(prefix)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "status=pass"
    assert any(l.startswith("rank=") for l in out)
    assert any(l.startswith("residual_q1=") for l in out)
    for i in (1, 2, 3, 4):
        q = load_field(f"{prefix}.q{i}.json")
        assert np.max(np.abs(q.coeffs.imag)) == 0.0


def test_quadruple_fails_when_member_residuals_do(tmp_path, capsys):
    # a random field solves no Hestenes equation, so every member's residual fails
    src = tmp_path / "f.json"
    save_field(random_field(DIMS, 8), src)
    assert run_cli("quadruple", "-i", str(src), "--mass", "1,0",
                   "--out-prefix", str(tmp_path / "quad")) == 1
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert float(report["route_rel"]) <= verify.QUADRUPLE_ROUTE_BOUND
    assert report["rank"] == "4"
    assert all(float(report[f"residual_q{i}"]) > 1e-12 for i in (1, 2, 3, 4))
    assert report["status"] == "fail"


def test_quadruple_complex_mass_skips_residuals(tmp_path, capsys):
    src = tmp_path / "f.json"
    save_field(random_field(DIMS, 8), src)
    prefix = tmp_path / "quad"
    assert run_cli("quadruple", "-i", str(src), "--mass", "1,1",
                   "--out-prefix", str(prefix)) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mass_real=false" in out
    assert not any(l.startswith("residual_q") for l in out)


def test_solve_round_trip(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "sol.json"
    save_field(random_field(DIMS, 9), src)
    assert run_cli("solve", "-i", str(src), "--mass", "1,0", "-o", str(dst)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "status=pass"
    assert load_field(dst).coeffs.shape == DIMS.shape + (16,)


def test_solve_fails_at_tol_zero(tmp_path, capsys):
    src = tmp_path / "src.json"
    save_field(random_field(DIMS, 9), src)
    assert run_cli("solve", "-i", str(src), "--mass", "1,0", "-o", str(tmp_path / "sol.json"),
                   "--tol", "0") == 1
    rel, status = capsys.readouterr().out.splitlines()
    assert float(rel.removeprefix("residual_rel=")) > 0.0
    assert status == "status=fail"


def test_solve_singular_mass(tmp_path, capsys):
    src = tmp_path / "src.json"
    save_field(random_field(DIMS, 10), src)
    code = run_cli("solve", "-i", str(src), "--mass", "0,0",
                   "-o", str(tmp_path / "out.json"))
    assert code == 2
    assert "error:" in capsys.readouterr().err

    # a nonzero momentum with s(p) = -4 has eigenvalue 2 on 4^4
    save_field(random_field(LatticeDims(4, 4, 4, 4), 10), src)
    code = run_cli("solve", "-i", str(src), "--mass", "2,0",
                   "-o", str(tmp_path / "out.json"))
    assert code == 2
    assert "matches eigenvalue 2,0 of the momentum block" in capsys.readouterr().err


@pytest.mark.parametrize("shape, slab_bytes", [((3, 3, 3, 3), None), ((5, 4, 3, 2), 1)])
def test_solve_residual_equals_whole_field_residual(shape, slab_bytes, monkeypatch):
    dims = LatticeDims(*shape)
    source = random_field(dims, 14)
    mass = 0.75 - 0.25j
    solution = propagator_solve(source, mass)
    expected = max_abs(dk_residual(solution, EquationParams(mass)) - source)
    if slab_bytes is not None:  # one site row per slab
        monkeypatch.setattr(algebra, "SLAB_BYTES", slab_bytes)
    assert solve_residual(solution, mass, source) == expected


def test_solve_residual_peak_memory_at_8_4():
    source = random_field(LatticeDims(8, 8, 8, 8), 15)
    solution = propagator_solve(source, 1.0)
    solve_residual(solution, 1.0, source)
    tracemalloc.start()
    try:
        solve_residual(solution, 1.0, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * source.coeffs.nbytes


def test_gen_random_16_4_file_is_unchanged(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("gen", "random", "--dims", "16,16,16,16", "--seed", "1", "-o", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "69cfefb653cd9967d7eee7487ae2b9b8f29add35b77519749e8c1bae96aec4cd")


@pytest.mark.parametrize("option, value, argv", [
    ("--mass", "-2,0.5", ("solve", "-i", "{src}", "-o", "{out}.json")),
    ("--mass", "-0.5,-1", ("residual", "dk", "-i", "{src}")),
    ("--mass", "-2,0", ("quadruple", "-i", "{src}", "--out-prefix", "{out}")),
    ("--p", "-1,0,0,-2", ("gen", "plane-wave", "--amp", "x=1,0", "-o", "{out}.json")),
    ("--p", "-1,0,0,-2", ("spectrum", "-o", "{out}.csv")),
    ("--p", "-.5,0,0,0", ("spectrum",)),
], ids=["solve", "residual", "quadruple", "gen", "spectrum", "spectrum-bad"])
def test_negative_values_read_as_values(option, value, argv, tmp_path, capsys):
    src = tmp_path / "src.json"
    save_field(random_field(DIMS, 15), src)
    results = []
    for name, form in (("spaced", [option, value]), ("joined", [f"{option}={value}"])):
        out = tmp_path / name
        code = run_cli(*(a.format(src=src, out=out) for a in argv), *form)
        captured = capsys.readouterr()
        files = sorted((p.name[len(name):], p.read_bytes())
                       for p in tmp_path.iterdir() if p.name.startswith(name))
        results.append((code, captured.out, captured.err, files))
    assert results[0] == results[1]
    code, out, err, files = results[0]
    assert "expected one argument" not in err
    if option == "--p" and value.startswith("-."):  # not integers: a usage error
        assert code == 2 and "expected integers p0,p1,p2,p3" in err
    else:
        assert code in (0, 1) and err == ""
        assert files or out


def test_signed_values_are_joined_only_before_double_dash():
    argv = ["spectrum", "--p", "-1,0,0,0", "--", "--p", "-1,0,0,0"]
    assert _join_signed_values(argv) == ["spectrum", "--p=-1,0,0,0", "--", "--p", "-1,0,0,0"]


@pytest.mark.parametrize("argv", [
    ("solve", "-i", "{src}", "-o", "{out}", "--mass", "inf,0"),
    ("residual", "dk", "-i", "{src}", "--mass", "nan,0"),
    ("quadruple", "-i", "{src}", "--out-prefix", "{out}", "--mass", "0,-inf"),
    ("residual", "dk", "-i", "{src}", "--tol", "-1"),
    ("residual", "dk", "-i", "{src}", "--tol", "nan"),
    ("decompose", "-i", "{src}", "--out-prefix", "{out}", "--tol", "inf"),
    ("quadruple", "-i", "{src}", "--out-prefix", "{out}", "--tol", "-0.5"),
    ("solve", "-i", "{src}", "-o", "{out}", "--tol", "x"),
    ("verify", "2", "--tol-scale", "-1"),
    ("verify", "2", "--tol-scale", "inf"),
    ("gen", "random", "-o", "{out}", "--seed", "-1"),
    ("verify", "1", "--seed", "-1"),
], ids=" ".join)
def test_non_finite_or_negative_numbers_rejected_at_parse(argv, tmp_path, capsys):
    src = tmp_path / "src.json"
    save_field(random_field(DIMS, 11), src)
    argv = [a.format(src=src, out=tmp_path / "out") for a in argv]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert f"argument {argv[-2]}: " in captured.err
    assert "status=" not in captured.out
    assert "expected non-negative integer" not in captured.err


@pytest.mark.parametrize("argv", [
    ("gen", "random", "--dims", "2,2,2,2", "--seed", str(2 ** 64), "-o", "{out}"),
    ("verify", "1", "--dims", "2,2,2,2", "--trials", "2", "--seed", str(2 ** 64 - 1)),
    ("verify", "matrix", "--seed", str(2 ** 64)),
    ("verify", "all", "--dims", "2,2,2,2", "--trials", "1", "--seed", str(2 ** 64)),
], ids=["gen", "verify-second-trial", "verify-matrix", "verify-all"])
def test_a_seed_drawn_outside_64_bits_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run_cli(*(a.format(out=out) for a in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: random seed {2 ** 64} outside 0..2^64-1\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_seed_that_is_never_drawn_is_not_checked(capsys):
    # the last seed of 64 bits draws one trial; family 2 draws nothing
    assert run_cli("verify", "1", "--dims", "2,2,2,2", "--trials", "1",
                   "--seed", str(2 ** 64 - 1)) == 0
    assert run_cli("verify", "2", "--seed", str(2 ** 70)) == 0
    assert capsys.readouterr().err == ""


def test_malformed_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [3, 3, 3, 3], "coeffs": [1, 2]}')
    assert run_cli("residual", "dk", "-i", str(bad)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_missing_input_file(tmp_path, capsys):
    assert run_cli("apply", "dk", "-i", str(tmp_path / "nope.json"),
                   "-o", str(tmp_path / "out.json")) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("prefix, offset", [
    (b"\xef\xbb\xbf", 0),  # UTF-8 byte order mark
    ('{"dims\u00e9": 1, '.encode("utf-8"), 6),
], ids=["bom", "e-acute-in-key"])
def test_non_ascii_input_file(prefix, offset, tmp_path, capsys):
    src = tmp_path / "f.json"
    save_field(random_field(DIMS, 12), src)
    src.write_bytes(prefix + src.read_bytes())
    assert run_cli("apply", "dk", "-i", str(src), "-o", str(tmp_path / "out.json")) == 2
    err = capsys.readouterr().err
    assert err == f"error: field file must be ASCII text (byte offset {offset})\n"


@pytest.mark.parametrize("target", ["missing_dir/o.json", "some_dir"])
def test_write_error_names_requested_path(target, tmp_path, capsys):
    src = tmp_path / "in.json"
    save_field(random_field(DIMS, 13), src)
    (tmp_path / "some_dir").mkdir()
    out = tmp_path / target
    assert run_cli("apply", "dk", "-i", str(src), "-o", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.endswith(f": '{out}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "some_dir"]
    assert list((tmp_path / "some_dir").iterdir()) == []


@pytest.mark.parametrize("argv", [
    (),
    ("frobnicate",),
    ("verify", "bogus"),
    ("verify", "1", "--dims", "0,3,3,3"),
    ("residual", "dk", "-i", "x.json", "--mass", "nope"),
    ("apply", "dk", "-i", "x.json"),
    ("verify", "1", "--dims", "3,3"),
    ("verify", "1", "--dims", "3,3,3,0"),
    ("residual", "dk", "-i", "x.json", "--mass", "a,b"),
    ("quadruple", "-i", "x.json", "--out-prefix", "q", "--mass", "1,x"),
])
def test_usage_errors(argv, capsys):
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "invalid _parse" not in err and "invalid parse value" not in err


def test_apply_rejects_non_finite_input(tmp_path, capsys):
    src = tmp_path / "src.json"
    coeffs = ", ".join(["NaN"] + ["0"] * 31)
    src.write_text(f'{{"dims": [1, 1, 1, 1], "coeffs": [{coeffs}]}}')
    out = tmp_path / "out.json"
    assert run_cli("apply", "dk", "-i", str(src), "-o", str(out)) == 2
    assert '"coeffs" entries must all be finite' in capsys.readouterr().err
    assert not out.exists()


def test_apply_rejects_over_long_integer(tmp_path, capsys):
    src = tmp_path / "big.json"
    coeffs = ", ".join(["9" * 5000] + ["0"] * 31)
    src.write_text(f'{{"dims": [1, 1, 1, 1], "coeffs": [{coeffs}]}}')
    out = tmp_path / "o.json"
    assert run_cli("apply", "d", "-i", str(src), "-o", str(out)) == 2
    assert capsys.readouterr().err == 'error: "coeffs" entries must all be finite numbers\n'
    assert not out.exists()


def test_module_entry_point(package_env):
    result = subprocess.run(
        [sys.executable, "-m", "dklattice", "verify", "2"],
        capture_output=True, text=True, timeout=120, env=package_env)
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "status=pass"


VERIFY_ALL_KEYS = [
    "clifford_oracle_mismatches", "clifford_rule1_violations",
    "clifford_rule2_violations", "clifford_rule3_violations",
    "clifford_anticommutator_violations", "clifford_associativity_violations",
    "prop1_max_rel_dev", "prop1_integer_max_abs", "prop2_idempotence_dev", "prop2_commutation_dev",
    "prop2_absorption_dev", "prop3_projector_sum_violations",
    "prop3_max_rel_reconstruction", "prop3_integer_max_abs", "prop4_max_rel_dk_residual",
    "prop4_max_rel_hestenes", "prop4_max_rel_flipped", "prop5_max_rel_odd",
    "prop5_max_rel_imag", "prop5_residual_mass0", "prop5_max_rel_route_dev",
    "prop5_integer_route_max_abs", "prop5_realmass_max_rel_residual", "nilpotency_dd_max_rel",
    "nilpotency_deltadelta_max_rel", "nilpotency_dd_integer_max_abs",
    "nilpotency_deltadelta_integer_max_abs", "componentwise_max_rel_dev",
    "matrix_oracle_max_rel_dev", "spectral_eigen_residual_max",
    "spectral_max_rel_dk_residual", "spectral_max_rel_symbol_dev",
    "propagator_max_rel_residual", "constant_form_violations",
    "prop1_trials", "prop3_trials", "prop4_solutions_checked", "prop5_rank",
    "prop5_sigma_0", "prop5_sigma_1", "prop5_sigma_2", "prop5_sigma_3",
    "prop5_realmass_momentum", "prop5_realmass_value", "nilpotency_trials",
    "componentwise_trials", "matrix_oracle_dimension", "spectral_momenta",
    "propagator_sources", "propagator_mass", "propagator_mass_distance", "status",
]
QUADRUPLE_KEYS = ["route_rel", "rank", "rank_threshold",
                  "sigma_0", "sigma_1", "sigma_2", "sigma_3"]


def test_report_keys_are_pinned(tmp_path, capsys):
    def keys(*argv):
        run_cli(*argv)
        return [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]

    field = str(tmp_path / "r.json")
    wave = str(tmp_path / "w.json")
    prefix = str(tmp_path / "out")
    save_field(random_field(LatticeDims(2, 2, 2, 2), 1), field)
    assert keys("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0",
                "--eigen", "15", "-o", wave) == ["mass"]
    assert keys("verify", "all", "--dims", "2,2,2,2", "--trials", "1") == VERIFY_ALL_KEYS
    assert keys("residual", "dk", "-i", field) == ["max_abs", "rms", "scale", "rel", "status"]
    assert keys("decompose", "-i", field, "--out-prefix", prefix) == [
        "reconstruction_rel", "status"]
    assert keys("quadruple", "-i", wave, "--mass", "2,0", "--out-prefix", prefix) == (
        QUADRUPLE_KEYS + ["residual_q1", "residual_q2", "residual_q3", "residual_q4",
                          "status"])
    assert keys("quadruple", "-i", field, "--mass", "1,0.5", "--out-prefix", prefix) == (
        QUADRUPLE_KEYS + ["mass_real", "status"])
    assert keys("solve", "-i", field, "--mass", "1,0", "-o", str(tmp_path / "s.json")) == [
        "residual_rel", "status"]
