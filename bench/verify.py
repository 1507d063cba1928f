"""Time each `dklattice verify` check family in process.

Usage:
    python3 bench/verify.py OUT.json [--repeats N] [--dims N0,N1,N2,N3]
                                     [--trials T [T ...]]

Imports dklattice from the src/ directory next to this script, so it
measures the tree it sits in.  At the given extents (default 3,3,3,3) and
trial counts (default 20 and 50) it calls run_checks once per family, and
once for "all", and records per row:

- median and min wall time over the repeats (time.perf_counter);
- the work counts the family reports (trials, solutions, momenta, sources);
- whether every check of the family passed.

One untimed `verify all` at 2^4 runs first, so imports, the cached
projectors and numpy's lazy set-up are not in the first timed call.  The
timed calls run back to back in one process, so this does not show what a
fresh `dklattice verify` process pays once, such as its imports and
numpy's first-call set-up; perfbench/ measures that end to end.  The
context block is bench/kernels.py's: host, Python, numpy and BLAS setting.
Only the stdlib and numpy are used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kernels import context  # noqa: E402  (bench/kernels.py, next to this script)

from dklattice.cli import _parse_dims  # noqa: E402
from dklattice.lattice import LatticeDims  # noqa: E402
from dklattice.verify import CHECK_NAMES, run_checks  # noqa: E402

DIMS = "3,3,3,3"
TRIALS = (20, 50)
SEED = 0
WORK_COUNTS = ("prop1_trials", "prop3_trials", "prop4_solutions_checked",
               "nilpotency_trials", "componentwise_trials", "spectral_momenta",
               "propagator_sources")


def measure(name: str, dims: LatticeDims, trials: int, repeats: int) -> dict:
    times = []
    report = None
    for _ in range(repeats):
        start = time.perf_counter()
        report = run_checks(name, dims, trials=trials, seed=SEED)
        times.append(time.perf_counter() - start)
    info = dict(report.info)
    return {
        "median_s": statistics.median(times),
        "min_s": min(times),
        "repeats": repeats,
        "work": {key: int(info[key]) for key in WORK_COUNTS if key in info},
        "passed": report.passed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the results to")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed calls per family and trial count (default 7)")
    parser.add_argument("--dims", type=_parse_dims, default=DIMS,
                        help=f"lattice extents n0,n1,n2,n3 (default {DIMS})")
    parser.add_argument("--trials", type=int, nargs="+", default=list(TRIALS),
                        help="trial counts to run (default 20 50)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if min(args.trials) < 1:
        parser.error("--trials must be at least 1")
    run_checks("all", LatticeDims(2, 2, 2, 2), trials=1, seed=SEED)
    results = {}
    for trials in args.trials:
        rows = {}
        for name in CHECK_NAMES + ("all",):
            row = measure(name, args.dims, trials, args.repeats)
            rows[name] = row
            print(f"trials {trials} {name}: median {row['median_s'] * 1e3:.1f} ms, "
                  f"min {row['min_s'] * 1e3:.1f} ms, work {row['work']}, "
                  f"{'pass' if row['passed'] else 'FAIL'}")
        results[f"trials_{trials}"] = rows
    doc = {"benchmark": "verify", "dims": list(args.dims.shape), "seed": SEED,
           "context": context(), "results": results}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
