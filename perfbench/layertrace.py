"""Per-layer tracing of one dklattice CLI operation.

Run as a script, this executes one CLI operation in-process through
``dklattice.cli.main`` and records a span (name, start, end, parent) around
every call into the package functions listed in ``LAYERS``. Each wrapper is
installed under every module-level name that refers to the function, because
``cli``, ``verify`` and ``transfer`` import functions by name. Spans stay in
memory until ``main`` returns and are then written to disk:

    python3 perfbench/layertrace.py OUT_PREFIX -- verify 4 --dims 8,8,8,8

Imported, ``summarize`` turns the written spans into per-layer metrics. A
span's self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the duration of the root span
``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc


# (span name, module of dklattice, function, report a call count)
LAYERS = (
    ("fields.loads", "fields", "loads_field", True),
    ("fields.dumps", "fields", "dumps_field", True),
    ("fields.write", "fields", "atomic_write_text", False),
    ("spectral.propagator", "spectral", "propagator_solve", True),
    ("spectral.eigen_solve", "spectral", "eigen_solve", True),
    ("calculus.d_plus_delta", "calculus", "d_plus_delta", True),
    ("calculus.hestenes_residual", "calculus", "hestenes_residual", True),
    ("lattice.delta_mu", "lattice", "delta_mu", True),
    ("algebra.projector", "algebra", "projector", True),
    ("algebra.right_mul", "algebra", "right_mul", True),
    ("transfer.decompose", "transfer", "decompose", True),
    ("transfer.verify_prop4", "transfer", "verify_prop4", True),
    ("verify.clifford", "verify", "check_clifford", False),
    ("verify.prop1", "verify", "check_prop1", False),
    ("verify.prop2", "verify", "check_prop2", False),
    ("verify.prop3", "verify", "check_prop3", False),
    ("verify.prop4", "verify", "check_prop4", False),
    ("verify.prop5", "verify", "check_prop5", False),
    ("verify.nilpotency", "verify", "check_nilpotency", False),
    ("verify.componentwise", "verify", "check_componentwise", False),
    ("verify.matrix", "verify", "check_matrix_oracle", False),
    ("verify.spectral", "verify", "check_spectral", False),
    ("verify.propagator", "verify", "check_propagator", False),
)

ROOT_SPAN = "cli.main"

# Bytes a call moves, computed from text and array sizes (not measured).
# JSON spans count the text parsed or produced; field kernels count one
# read of the input field and one write of an output field of its size.
JSON_SPANS = {
    "fields.loads": lambda args, result: len(args[0]),
    "fields.dumps": lambda args, result: len(result),
}
COPY_SPANS = {
    "calculus.d_plus_delta": lambda args, result: 2 * args[0].coeffs.nbytes,
    "algebra.right_mul": lambda args, result: 2 * args[0].coeffs.nbytes,
}
SIZERS = {**JSON_SPANS, **COPY_SPANS}

# Spans whose first call also records the tracemalloc peak, as a multiple
# of the bytes of the field passed in.
PEAK_SPANS = ("spectral.propagator", "calculus.d_plus_delta")


class Tracer:
    """Spans of one process, as parallel lists indexed by span id."""

    def __init__(self):
        self.labels: list[str] = []
        self.label = []
        self.parent = []
        self.start = []
        self.end = []
        self.nbytes = []
        self.peak_x: dict[str, float] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        if name not in self.labels:
            self.labels.append(name)
        label_id = self.labels.index(name)
        sizer = SIZERS.get(name)
        wants_peak = name in PEAK_SPANS
        label, parent, start, end = self.label, self.parent, self.start, self.end
        nbytes, stack, peak_x = self.nbytes, self._stack, self.peak_x
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            label.append(label_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            nbytes.append(0)
            stack.append(idx)
            peak = (wants_peak and name not in peak_x
                    and not tracemalloc.is_tracing())
            if peak:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                if peak:
                    peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if peak:
                peak_x[name] = peak_bytes / args[0].coeffs.nbytes
            if sizer is not None:
                nbytes[idx] = sizer(args, result)
            return result

        return traced

    def save(self, prefix: str, import_s: float) -> None:
        import numpy as np

        np.savez(prefix + ".npz",
                 label=np.asarray(self.label, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 nbytes=np.asarray(self.nbytes, dtype=np.float64))
        with open(prefix + ".json", "w", encoding="ascii") as fh:
            json.dump({"labels": self.labels, "peak_x": self.peak_x,
                       "import_s": import_s}, fh)


def install(tracer: Tracer) -> None:
    """Replace every module-level reference to a LAYERS function in dklattice."""
    modules = [mod for name, mod in sorted(sys.modules.items())
               if name == "dklattice" or name.startswith("dklattice.")]
    for span, module, func, _ in LAYERS:
        original = getattr(importlib.import_module(f"dklattice.{module}"), func)
        wrapper = tracer.wrap(span, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def per_layer_units() -> dict[str, str]:
    """Every metric summarize() reports from spans, with its unit."""
    units = {}
    for span, _, _, calls in LAYERS:
        units[f"{span}_s"] = "s"
        if calls:
            units[f"{span}_calls"] = "count"
        if span in COPY_SPANS:
            units[f"{span}_copy_frac"] = "ratio"
        if span in PEAK_SPANS:
            units[f"{span}_peak_x"] = "x"
    units["fields.mb_per_s"] = "MB/s"
    units["cli.import_s"] = "s"
    units["cli.main_self_s"] = "s"
    units["trace.op_s"] = "s"
    return units


def summarize(prefix: str, copy_gbps: float) -> dict[str, float]:
    """Per-layer metrics from the spans written under prefix.

    ``*_copy_frac`` is the layer's computed bytes per second of inclusive
    time divided by copy_gbps, the rate of a plain copy of one field.
    """
    import numpy as np

    with open(prefix + ".json", encoding="ascii") as fh:
        meta = json.load(fh)
    with np.load(prefix + ".npz", allow_pickle=False) as data:
        label, parent = data["label"], data["parent"]
        dur = data["end"] - data["start"]
        nbytes = data["nbytes"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=len(dur))
    self_s = dur - children
    labels = meta["labels"]
    nlabels = len(labels)
    self_by = np.bincount(label, weights=self_s, minlength=nlabels)
    total_by = np.bincount(label, weights=dur, minlength=nlabels)
    calls_by = np.bincount(label, minlength=nlabels)
    bytes_by = np.bincount(label, weights=nbytes, minlength=nlabels)

    def get(array, span):
        return float(array[labels.index(span)]) if span in labels else 0.0

    metrics = {}
    for span, _, _, calls in LAYERS:
        metrics[f"{span}_s"] = get(self_by, span)
        if calls:
            metrics[f"{span}_calls"] = get(calls_by, span)
        if span in COPY_SPANS:
            total = get(total_by, span)
            rate = get(bytes_by, span) / total if total > 0 else 0.0
            metrics[f"{span}_copy_frac"] = rate / (copy_gbps * 1e9)
        if span in PEAK_SPANS:
            metrics[f"{span}_peak_x"] = float(meta["peak_x"].get(span, 0.0))
    json_s = sum(metrics[f"{span}_s"] for span in JSON_SPANS)
    json_bytes = sum(get(bytes_by, span) for span in JSON_SPANS)
    metrics["fields.mb_per_s"] = json_bytes / json_s / 1e6 if json_s > 0 else 0.0
    metrics["cli.import_s"] = float(meta["import_s"])
    metrics["cli.main_self_s"] = get(self_by, ROOT_SPAN)
    metrics["trace.op_s"] = get(total_by, ROOT_SPAN)
    return metrics


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: layertrace.py OUT_PREFIX -- CLI_ARGS...", file=sys.stderr)
        return 2
    prefix, cli_argv = argv[0], argv[2:]
    t0 = time.perf_counter()
    from dklattice import cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap(ROOT_SPAN, cli.main)(cli_argv)
    sys.stdout.flush()
    tracer.save(prefix, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
