"""Time the canonical JSON field codec (dumps/loads, save/load_field, format).

Usage:
    python3 bench/codec.py OUT.json [--repeats N]

Imports dklattice from the src/ directory next to this script, so it
measures the tree it sits in.  For each lattice (8^4 and 16^4) it times
dumps_field and loads_field on a seeded random field, save_field and
load_field through a file in a temporary directory, and the number
formatter fields._format alone over the field's numbers in this process
(no file, no fork), and records per row:

- median and min wall time over the repeats (time.perf_counter);
- throughput in MB/s of JSON text, from the median;
- the tracemalloc peak of one extra call, as a multiple of the field's
  complex128 array size (tracing slows the call, so that run is not timed).
  tracemalloc sees this process only: on a field large enough for the
  codec to fork a second process, the child's allocations are not counted;
- the SHA-256 of the text and of the saved file, so two result files show
  whether the bytes written are the same.

A context block records the host, Python and numpy versions.  Only the
stdlib and numpy are used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from dklattice.fields import (_format, dumps_field, load_field,  # noqa: E402
                              loads_field, random_field, save_field)
from dklattice.lattice import LatticeDims  # noqa: E402

SIZES = {"8^4": (8, 8, 8, 8), "16^4": (16, 16, 16, 16)}
SEED = 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context() -> dict:
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _timed(fn, arg, repeats: int) -> tuple[list[float], object]:
    times = []
    result = None
    for _ in range(repeats):
        result = None  # let the previous result go before the next call
        start = time.perf_counter()
        result = fn(arg)
        times.append(time.perf_counter() - start)
    return times, result


def _peak_x(fn, arg, field_bytes: int) -> float:
    tracemalloc.start()
    try:
        fn(arg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / field_bytes


def _row(times: list[float], text_bytes: int, peak_x: float) -> dict:
    median = statistics.median(times)
    return {
        "median_s": median,
        "min_s": min(times),
        "repeats": len(times),
        "mb_per_s": text_bytes / median / 1e6,
        "peak_x": peak_x,
    }


def _format_all(pairs: np.ndarray) -> bytes:
    """The text _format gives for pairs, joined; its pieces are str in trees
    from before the formatter wrote bytes."""
    return b"".join(p.encode("ascii") if isinstance(p, str) else p for p in _format(pairs))


def measure(shape: tuple, repeats: int) -> dict:
    field = random_field(LatticeDims(*shape), SEED)
    field_bytes = field.coeffs.nbytes
    dump_times, text = _timed(dumps_field, field, repeats)
    dump_peak = _peak_x(dumps_field, field, field_bytes)
    load_times, loaded = _timed(loads_field, text, repeats)
    if loaded.coeffs.tobytes() != field.coeffs.tobytes():
        raise SystemExit(f"round trip changed the field at {shape}")
    del loaded
    load_peak = _peak_x(loads_field, text, field_bytes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "field.json"
        save_times, _ = _timed(lambda f: save_field(f, path), field, repeats)
        save_peak = _peak_x(lambda f: save_field(f, path), field, field_bytes)
        file_bytes = path.read_bytes()
        if file_bytes != text.encode("ascii") + b"\n":
            raise SystemExit(f"save_field and dumps_field differ at {shape}")
        del file_bytes
        read_times, loaded = _timed(load_field, path, repeats)
        if loaded.coeffs.tobytes() != field.coeffs.tobytes():
            raise SystemExit(f"file round trip changed the field at {shape}")
        del loaded
        read_peak = _peak_x(load_field, path, field_bytes)
    pairs = field.coeffs.reshape(-1).view(np.float64)
    format_times, numbers_text = _timed(_format_all, pairs, repeats)
    if numbers_text.decode("ascii") != text.partition('"coeffs": [')[2][:-2]:
        raise SystemExit(f"_format and dumps_field differ at {shape}")
    format_peak = _peak_x(_format_all, pairs, field_bytes)
    file_len = len(text) + 1
    return {
        "dims": list(shape),
        "seed": SEED,
        "numbers": 2 * field.coeffs.size,
        "field_bytes": field_bytes,
        "text_bytes": len(text),
        "text_sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "file_sha256": hashlib.sha256(text.encode("ascii") + b"\n").hexdigest(),
        "dumps": _row(dump_times, len(text), dump_peak),
        "loads": _row(load_times, len(text), load_peak),
        "save_field": _row(save_times, file_len, save_peak),
        "load_field": _row(read_times, file_len, read_peak),
        "format": _row(format_times, len(numbers_text), format_peak),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write the results to")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per codec direction and size (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    results = {}
    for label, shape in SIZES.items():
        row = measure(shape, args.repeats)
        results[label] = row
        for direction in ("dumps", "loads", "save_field", "load_field", "format"):
            r = row[direction]
            print(f"{label} {direction}: median {r['median_s']:.3f} s, "
                  f"min {r['min_s']:.3f} s, {r['mb_per_s']:.1f} MB/s, "
                  f"peak {r['peak_x']:.2f}x field")
    doc = {"benchmark": "codec", "context": context(), "results": results}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                              encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
