"""The bench/ scripts still run on this tree.

They import private names of src/, such as fields._format, so a rename
there breaks them without any other test failing.
"""

import importlib
import json
import os
from pathlib import Path

import pytest

from dklattice import fields

BENCH = Path(__file__).resolve().parent.parent / "bench"
KERNEL_ROWS = {"copy", "d_plus_delta", "propagator_solve", "clifford_mul",
               "hestenes_quadruple", "right_mul", "fftn", "dumps_field", "loads_field",
               "format", "save_field", "load_field"}
SMALL = (2, 2, 2, 2)


@pytest.fixture
def bench(monkeypatch):
    """Import a bench/ script by module name, as the scripts import each other."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def test_kernel_rows_at_2_4(bench):
    kernels = bench("kernels")
    rows = kernels.measure(SMALL, 1)["rows"]
    assert set(rows) == KERNEL_ROWS
    for name, row in rows.items():
        assert {"median_s", "gb_per_s", "copy_frac", "peak_x", "sha256"} <= set(row), name
    json.dumps(kernels.context())


def test_kernel_rows_at_2_4_split_across_two_processes(bench, monkeypatch):
    # with the threshold at one site, every save and load of the codec rows
    # forks, so their round-trip digests cover both split paths
    kernels = bench("kernels")
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        forks.extend([pid] if pid else [])
        return pid

    monkeypatch.setattr(fields, "SPLIT_MIN_NUMBERS", 32)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    assert set(kernels.measure(SMALL, 1)["rows"]) == KERNEL_ROWS
    assert forks


def test_kernel_rows_exit_on_a_changed_round_trip(bench, monkeypatch):
    kernels = bench("kernels")
    monkeypatch.setattr(kernels, "load_field", lambda path: kernels.random_field(
        kernels.LatticeDims(*SMALL), kernels.SEED + 2))
    with pytest.raises(SystemExit, match="load_field round trip differs"):
        kernels.measure(SMALL, 1)


def test_verify_rows_at_2_4(bench, tmp_path):
    out = tmp_path / "verify.json"
    assert bench("verify").main([str(out), "--repeats", "1", "--dims", "2,2,2,2",
                                 "--trials", "1"]) == 0
    rows = json.loads(out.read_text(encoding="ascii"))["results"]["trials_1"]
    assert "all" in rows
    assert all(row["passed"] for row in rows.values())


def test_identity_of_a_tree_with_itself(bench, monkeypatch, capsys):
    identity = bench("identity")
    monkeypatch.setattr(identity, "CATALOGUE", (
        ("gen", "random", "--dims", "2,1,1,2", "--seed", "3", "-o", "f.json"),
        ("apply", "dk", "-i", "f.json", "-o", "g.json"),
        ("residual", "dk", "-i", "f.json", "--mass", "1,0"),
    ))
    src = str(BENCH.parent / "src")
    assert identity.main([src, src]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "same exit=0 files=1", "same exit=0 files=1", "same exit=1 files=0"]
    assert lines[3] == "3 of 3 invocations identical"
    # and a difference in any part is named
    run = (0, b"out", b"", {"f.json": "aa"})
    assert identity._differences(run, (1, b"out", b"err", {"f.json": "ab", "g.json": "c"})) \
        == ["exit", "stderr", "file f.json", "file g.json"]
