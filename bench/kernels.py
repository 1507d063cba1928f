"""Time the kernels and the field codec in process, against a plain copy of the field.

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
- right_mul by projector("++");
- fftn: np.fft.fftn over the four site axes;
- dumps_field, and loads_field of its text;
- format: fields._format alone over the field's numbers (no file, no fork);
- save_field and load_field through a file in a temporary directory.

Per row it records:

- median and min wall time over the repeats (time.perf_counter);
- gb_per_s: one read and one write of the field's complex128 bytes per
  call, from the median, whatever the kernel really moves; copy_frac is
  that rate over the copy row's, so 1 means as fast as a copy;
- peak_x: the tracemalloc peak of one extra call, as a multiple of the
  field's bytes (tracing slows the call, so that run is not timed).
  tracemalloc sees this process only: for a field large enough to be
  split across a forked child, a save does not count the formatting
  child's allocations, nor a load (loads_field, load_field) the parsing
  child's;
- the SHA-256 of the result (coefficient bytes, text, or the saved file;
  for the quadruple its four members in turn), so two result files show
  whether the trees compute the same bytes;
- text_bytes, for the codec rows: the bytes of text (of the file for
  save_field and load_field, of the coeffs body for format), so MB/s of
  text is text_bytes / median_s / 1e6.

The codec rows check their round trips: loads_field and load_field give
back the field's bytes, the saved file is dumps_field's text plus a
newline, and format's text is that text's coeffs body.  Any difference
exits non-zero.  The context block is bench/peak.py's host context plus
the numpy version and the BLAS thread setting: the thread variables of the
environment ("unset" when absent) and the BLAS library numpy uses.  Only
the stdlib and numpy are used.
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

from peak import context as host_context  # noqa: E402  (bench/peak.py, next to this script)

import numpy as np  # noqa: E402

from dklattice.algebra import clifford_mul, projector, right_mul  # noqa: E402
from dklattice.calculus import d_plus_delta  # noqa: E402
from dklattice.fields import (_format, dumps_field, load_field,  # noqa: E402
                              loads_field, random_field, save_field)
from dklattice.lattice import LatticeDims  # noqa: E402
from dklattice.spectral import propagator_solve  # noqa: E402
from dklattice.transfer import hestenes_quadruple  # noqa: E402

SIZES = {"8^4": (8, 8, 8, 8), "16^4": (16, 16, 16, 16)}
SEED = 1
MASS = 1.0
SITE_AXES = (0, 1, 2, 3)
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def context() -> dict:
    setting = {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    setting["library"] = f"{blas.get('name')} {blas.get('version')}"
    return {**host_context(), "numpy": np.__version__, "blas": setting}


def _digest(result) -> str:
    """SHA-256 of a text, a file, a field's coefficient bytes, an array's
    bytes or the coefficient bytes of a quadruple's members in turn."""
    if isinstance(result, str):
        result = result.encode("ascii")
    elif isinstance(result, Path):
        result = result.read_bytes()
    digest = hashlib.sha256()
    for part in result.fields() if hasattr(result, "fields") else (result,):
        digest.update(getattr(part, "coeffs", part))
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
    plus = projector("++")
    field_bytes = field.coeffs.nbytes
    text = dumps_field(field)
    body = text.partition('"coeffs": [')[2][:-2]
    pairs = field.coeffs.reshape(-1).view(np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.json"
        calls = {
            "copy": (np.copy, field.coeffs),
            "d_plus_delta": (d_plus_delta, field),
            "propagator_solve": (lambda f: propagator_solve(f, MASS), field),
            "clifford_mul": (lambda f: clifford_mul(f, other), field),
            "hestenes_quadruple": (hestenes_quadruple, field),
            "right_mul": (lambda f: right_mul(f, plus), field),
            "fftn": (lambda c: np.fft.fftn(c, axes=SITE_AXES), field.coeffs),
            "dumps_field": (dumps_field, field),
            "loads_field": (loads_field, text),
            "format": (lambda p: b"".join(_format(p)), pairs),
            # save_field returns None, so the row digests the file it wrote
            "save_field": (lambda f: save_field(f, path) or path, field),
            "load_field": (load_field, path),  # the file the save_field row left
        }
        rows = {name: _row(fn, arg, repeats, field_bytes) for name, (fn, arg) in calls.items()}
    expected = {"loads_field": _digest(field), "load_field": _digest(field),
                "save_field": _digest(text + "\n"), "format": _digest(body)}
    for name, digest in expected.items():
        if rows[name]["sha256"] != digest:
            raise SystemExit(f"{name} round trip differs at {shape}")
    sizes = {"dumps_field": len(text), "loads_field": len(text), "format": len(body),
             "save_field": len(text) + 1, "load_field": len(text) + 1}
    for name, text_bytes in sizes.items():
        rows[name]["text_bytes"] = text_bytes
    for row in rows.values():
        row["copy_frac"] = row["gb_per_s"] / rows["copy"]["gb_per_s"]
    return {"dims": list(shape), "seed": SEED, "mass": MASS,
            "field_bytes": field_bytes, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the results to")
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed calls per row and size (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = {}
    for label, shape in SIZES.items():
        results[label] = measure(shape, args.repeats)
        for name, r in results[label]["rows"].items():
            text = (f", {r['text_bytes'] / r['median_s'] / 1e6:.1f} MB/s"
                    if "text_bytes" in r else "")
            print(f"{label} {name}: median {r['median_s'] * 1e3:.2f} ms, "
                  f"min {r['min_s'] * 1e3:.2f} ms, {r['gb_per_s']:.2f} GB/s "
                  f"({r['copy_frac']:.3f} of copy){text}, peak {r['peak_x']:.2f}x field")
    doc = {"benchmark": "kernels", "context": context(), "results": results}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
