"""Byte identity of the command line between two trees.

Usage:
    python3 bench/identity.py PARENT_SRC SRC

PARENT_SRC and SRC are the src/ directories of two checkouts.  For each
tree the script makes a fresh temporary work directory and runs CATALOGUE
there in order, each entry as `python3 -m dklattice ARGS` with PYTHONPATH
set to the tree and every file argument a path relative to the work
directory, so later entries read the fields earlier ones wrote.  After
each invocation it records the exit code, stdout, stderr and the SHA-256
of every file the invocation wrote or changed.

It prints one line per invocation, `same` or `DIFF` with what differs,
then a count, and exits 1 if any invocation differs in any of these.  The
catalogue covers every verb, checks that pass (exit 0) and fail (exit 1),
errors (exit 2), a light-cone and a complex-mass plane wave, an 8,8,8,16
field of 2^18 numbers, which the field codec saves and loads in two
processes, and values far from 1: a residual of size 1e-200, masses whose
square overflows and one whose modulus does.  The script imports only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CATALOGUE = (
    # fields to work on
    ("gen", "random", "--dims", "3,3,3,3", "--seed", "7", "-o", "noise.json"),
    ("gen", "constant", "--dims", "2,3,1,4", "--amp", "x=1,0", "--amp", "e01=0,0.5",
     "-o", "const.json"),
    ("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "0,2,0,0", "--eigen", "15",
     "-o", "wave.json"),
    ("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "1,1,0,0", "--eigen", "0",
     "-o", "cone.json"),
    ("gen", "plane-wave", "--dims", "3,3,3,3", "--p", "1,0,2,0", "--eigen", "3",
     "-o", "complex.json"),
    ("gen", "plane-wave", "--dims", "4,4,4,4", "--p", "1,1,0,0", "--eigen", "8",
     "-o", "none.json"),
    ("gen", "random", "--dims", "8,8,8,16", "--seed", "2", "-o", "big.json"),
    # operators
    ("apply", "d", "-i", "noise.json", "-o", "d.json"),
    ("apply", "delta", "-i", "noise.json", "-o", "delta.json"),
    ("apply", "dk", "-i", "const.json", "-o", "dk.json"),
    ("apply", "hestenes", "-i", "wave.json", "-o", "hestenes.json"),
    ("apply", "dk", "-i", "big.json", "-o", "big_dk.json"),
    ("apply", "dk", "-i", "missing.json", "-o", "missing_dk.json"),
    # residuals
    ("residual", "dk", "-i", "wave.json", "--mass", "2,0"),
    ("residual", "dk", "-i", "cone.json", "--mass", "0,0"),
    ("residual", "dk", "-i", "complex.json", "--mass",
     "-1.6118548977353133,-1.6118548977353124"),
    ("residual", "dk", "-i", "noise.json", "--mass", "1,0"),
    ("residual", "hestenes", "-i", "noise.json", "--mass", "1,0"),
    ("residual", "dk", "-i", "noise.json", "--mass", "nan,0"),
    # the transfer to the Hestenes equations
    ("decompose", "-i", "wave.json", "--out-prefix", "parts"),
    ("decompose", "-i", "complex.json", "--out-prefix", "cparts"),
    ("residual", "hestenes", "-i", "parts.pp.json", "--mass", "2,0"),
    ("residual", "hestenes-flipped", "-i", "parts.mp.json", "--mass", "2,0"),
    ("residual", "hestenes", "-i", "parts.mp.json", "--mass", "2,0"),
    ("quadruple", "-i", "wave.json", "--mass", "2,0", "--out-prefix", "quad"),
    ("quadruple", "-i", "cone.json", "--out-prefix", "cquad"),
    ("quadruple", "-i", "noise.json", "--mass", "1,0", "--out-prefix", "nquad"),
    # the propagator
    ("solve", "-i", "noise.json", "--mass", "1,0", "-o", "sol.json"),
    ("solve", "-i", "const.json", "--mass", "0.75,0.25", "-o", "csol.json"),
    ("solve", "-i", "noise.json", "--mass", "0,0", "-o", "sol0.json"),
    ("solve", "-i", "big.json", "--mass", "1,0", "-o", "big_sol.json"),
    # the spectrum
    ("spectrum", "--dims", "4,4,4,4", "--p", "0,2,0,0", "--p", "1,1,0,0",
     "-o", "spectrum.csv"),
    ("spectrum", "--dims", "2,3,1,4", "--all"),
    # the checks
    ("verify", "all", "--dims", "1,1,1,1", "--trials", "1"),
    ("verify", "all", "--dims", "2,2,2,2", "--trials", "3"),
    ("verify", "all", "--dims", "3,3,3,3", "--trials", "1"),
    ("verify", "all", "--dims", "3,3,3,3", "--trials", "3"),
    ("verify", "all", "--dims", "4,4,4,4", "--trials", "1"),
    ("verify", "all", "--dims", "2,3,1,4", "--trials", "3", "--seed", "5"),
    ("verify", "componentwise", "--dims", "2,3,1,4", "--trials", "2", "--tol-scale", "0"),
    ("verify", "spectral", "--dims", "3,3,3,3", "--tol-scale", "0"),
    ("verify", "5", "--dims", "3,1,1,1"),
    ("verify", "all", "--trials", "0"),
    # every finite scale: a subnormal-square rms, overflowing residuals, and
    # solves whose m^2 overflows
    ("gen", "constant", "--dims", "2,2,2,2", "--amp", "x=1e-200,0", "-o", "tiny.json"),
    ("residual", "dk", "-i", "tiny.json", "--mass", "1,0"),
    ("residual", "dk", "-i", "noise.json", "--mass", "1e308,1e308"),
    ("residual", "hestenes", "-i", "noise.json", "--mass", "1e308,1e308"),
    ("gen", "random", "--dims", "2,2,2,2", "-o", "small.json"),
    ("solve", "-i", "small.json", "--mass", "1e160,0", "-o", "huge_sol.json"),
    ("solve", "-i", "noise.json", "--mass", "1e308,1e308", "-o", "huger_sol.json"),
    # a mass whose modulus is past the largest double
    ("solve", "-i", "noise.json", "--mass", "1.7e308,1.7e308", "-o", "hugest_sol.json"),
    ("residual", "dk", "-i", "noise.json", "--mass", "1.7e308,1.7e308"),
    # the verbs that work a site slab at a time, on a field of eight slabs
    ("apply", "hestenes", "-i", "big.json", "-o", "big_hestenes.json"),
    ("residual", "hestenes", "-i", "big.json", "--mass", "1,0"),
    ("decompose", "-i", "big.json", "--out-prefix", "bparts"),
)


def _written(work: Path, before: dict) -> dict:
    """SHA-256 of every file in work that is new or changed since before,
    and before updated in place to the files now there."""
    now = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(work.iterdir()) if path.is_file()}
    changed = {name: digest for name, digest in now.items() if before.get(name) != digest}
    before.clear()
    before.update(now)
    return changed


def run_tree(src: Path) -> list:
    """Run CATALOGUE with the CLI of the tree at src, in a fresh work directory;
    per invocation (exit code, stdout, stderr, {file: sha256 written})."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        work, files = Path(tmp), {}
        for args in CATALOGUE:
            proc = subprocess.run((sys.executable, "-m", "dklattice") + args, cwd=work,
                                  env=env, stdin=subprocess.DEVNULL, capture_output=True)
            results.append((proc.returncode, proc.stdout, proc.stderr, _written(work, files)))
    return results


def _differences(a: tuple, b: tuple) -> list:
    names = ("exit", "stdout", "stderr")
    out = [name for name, x, y in zip(names, a, b) if x != y]
    out.extend(f"file {name}" for name in sorted(set(a[3]) | set(b[3]))
               if a[3].get(name) != b[3].get(name))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("src", type=Path, help="src/ directory of the changed tree")
    args = parser.parse_args(argv)
    parent, changed = run_tree(args.parent.resolve()), run_tree(args.src.resolve())
    differing = 0
    for argv_, a, b in zip(CATALOGUE, parent, changed):
        diffs = _differences(a, b)
        differing += bool(diffs)
        status = f"DIFF ({', '.join(diffs)})" if diffs else "same"
        print(f"{status} exit={b[0]} files={len(b[3])}: dklattice {' '.join(argv_)}")
    print(f"{len(CATALOGUE) - differing} of {len(CATALOGUE)} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
