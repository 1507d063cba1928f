"""Time the kernels of `dklattice solve` against a plain copy of the field.

Usage:
    python3 bench/kernels.py OUT.json [--repeats N]

Imports dklattice from the src/ directory next to this script, so it
measures the tree it sits in.  For each lattice (8^4 and 16^4) it takes a
seeded random field and times these rows:

- copy: np.copy of the coefficient array, the memcpy roofline;
- d_plus_delta;
- propagator_solve at mass 1;
- clifford_mul of the field by a second seeded field;
- hestenes_quadruple, both of its routes and their comparison;
- load_field of the field's canonical file, in a temporary directory;
- dumps_field.

Per row it records:

- median and min wall time over the repeats (time.perf_counter);
- gb_per_s: one read and one write of the field's complex128 bytes per
  call, from the median, whatever the kernel really moves; copy_frac is
  that rate over the copy row's, so 1 means as fast as a copy;
- peak_x: the tracemalloc peak of one extra call, as a multiple of the
  field's bytes (tracing slows the call, so that run is not timed).
  tracemalloc sees this process only: dumps_field of a field large enough
  to fork a formatter does not count the child's allocations;
- the SHA-256 of the result (coefficient bytes or text; for the quadruple
  its four members in turn), so two result files show whether the trees
  compute the same bytes.

A context block records the host, Python and numpy versions, as
bench/codec.py does, and the BLAS thread setting: the thread variables of
the environment ("unset" when absent) and the BLAS library numpy uses.
Only the stdlib and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from codec import context  # noqa: E402  (bench/codec.py, next to this script)

import numpy as np  # noqa: E402

from dklattice.algebra import clifford_mul  # noqa: E402
from dklattice.calculus import d_plus_delta  # noqa: E402
from dklattice.fields import (dumps_field, load_field, random_field,  # noqa: E402
                              save_field)
from dklattice.lattice import LatticeDims  # noqa: E402
from dklattice.spectral import propagator_solve  # noqa: E402
from dklattice.transfer import hestenes_quadruple  # noqa: E402

SIZES = {"8^4": (8, 8, 8, 8), "16^4": (16, 16, 16, 16)}
SEED = 1
MASS = 1.0
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_setting() -> dict:
    setting = {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    setting["library"] = f"{blas.get('name')} {blas.get('version')}"
    return setting


def _digest(result) -> str:
    """SHA-256 of a text, a field's coefficient bytes, an array's bytes or
    the coefficient bytes of a quadruple's members in turn."""
    if isinstance(result, str):
        return hashlib.sha256(result.encode("ascii")).hexdigest()
    digest = hashlib.sha256()
    for part in result.fields() if hasattr(result, "fields") else (result,):
        digest.update(getattr(part, "coeffs", part).tobytes())
    return digest.hexdigest()


def _row(fn, arg, repeats: int, field_bytes: int) -> dict:
    fn(arg)  # untimed, so first-call set-up is not in the numbers
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(arg)
        times.append(time.perf_counter() - start)
        del result  # let each result go before the next call
    tracemalloc.start()
    try:
        result = fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    median = statistics.median(times)
    return {
        "median_s": median,
        "min_s": min(times),
        "repeats": repeats,
        "gb_per_s": 2 * field_bytes / median / 1e9,
        "peak_x": peak / field_bytes,
        "sha256": _digest(result),
    }


def measure(shape: tuple, repeats: int) -> dict:
    field = random_field(LatticeDims(*shape), SEED)
    other = random_field(field.dims, SEED + 1)
    field_bytes = field.coeffs.nbytes
    rows = {"copy": _row(np.copy, field.coeffs, repeats, field_bytes),
            "d_plus_delta": _row(d_plus_delta, field, repeats, field_bytes),
            "propagator_solve": _row(lambda f: propagator_solve(f, MASS), field,
                                     repeats, field_bytes),
            "clifford_mul": _row(lambda f: clifford_mul(f, other), field,
                                 repeats, field_bytes),
            "hestenes_quadruple": _row(hestenes_quadruple, field, repeats, field_bytes)}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.json"
        save_field(field, path)
        rows["load_field"] = _row(load_field, path, repeats, field_bytes)
        file_bytes = path.stat().st_size
    rows["dumps_field"] = _row(dumps_field, field, repeats, field_bytes)
    for row in rows.values():
        row["copy_frac"] = row["gb_per_s"] / rows["copy"]["gb_per_s"]
    return {"dims": list(shape), "seed": SEED, "mass": MASS,
            "field_bytes": field_bytes, "file_bytes": file_bytes, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the results to")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed calls per kernel and size (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = {}
    for label, shape in SIZES.items():
        results[label] = measure(shape, args.repeats)
        for name, r in results[label]["rows"].items():
            print(f"{label} {name}: median {r['median_s'] * 1e3:.2f} ms, "
                  f"min {r['min_s'] * 1e3:.2f} ms, {r['gb_per_s']:.2f} GB/s "
                  f"({r['copy_frac']:.3f} of copy), peak {r['peak_x']:.2f}x field")
    doc = {"benchmark": "kernels", "context": {**context(), "blas": blas_setting()},
           "results": results}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
