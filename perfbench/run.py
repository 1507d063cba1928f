"""Benchmark of the dklattice command line.

    python3 perfbench/run.py --workload solve-16 --seed 1 --seconds 45 --trace 0

Runs one workload from the root of a source checkout (the package is taken
from ``src/``). Each operation is one ``python3 -m dklattice ...`` child
process, started only after the previous one has exited: a closed loop with
a single client. Operations start until ``--seconds`` have passed since the
first one, and every operation's output is checked independently of the
CLI's own report.

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics ``wall_s``, ``peak_rss_mb`` and ``setup_s``. With ``--trace 1`` the
same timed loop is followed by one traced operation (see layertrace.py),
and the last line reports per-layer metrics instead. Lines before it give
each operation and the host context.

``--smoke`` runs the workload at 2^4 with one trial, as a quick self-check of
the benchmark itself; its figures are not measurements of the workload.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is repeated and its median reported, so one slow repetition does
# not decide setup_s: at least SETUP_MIN_REPEATS times, and more while the
# repetitions so far took less than SETUP_MIN_S, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 7
SETUP_MIN_S = 6.0
# Every child still running this long after the start is killed, so that a
# run ends within the 180 s its callers allow.
RUN_LIMIT_S = 170.0
# Each operation is a fresh process, so warming up only has to bring the
# interpreter, numpy and the package's bytecode into the page cache; the
# smallest lattice does that as well as the full-size one.
WARMUP_DIMS = "2,2,2,2"
SOLVE_REL_TOL = 1e-11

# Work-count lines of `dklattice verify all`; each must be present and > 0.
WORK_COUNTS = ("prop1_trials", "prop3_trials", "prop4_solutions_checked",
               "nilpotency_trials", "componentwise_trials", "spectral_momenta",
               "propagator_sources")

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Every metric of a traced run, with its unit."""
    units = layertrace.per_layer_units()
    units["cli.cpu_s"] = "s"
    units["cli.sys_s"] = "s"
    units.update({f"verify.work.{key}": "count" for key in WORK_COUNTS})
    units["ref.copy_gbps"] = "GB/s"
    units["trace.overhead_frac"] = "ratio"
    return units


class SetupError(RuntimeError):
    """Input generation or the warm-up failed, so nothing can be measured."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One finished child process and its own resource use (from wait4)."""

    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    sys_s: float
    stdout: str
    stderr: str

    def report(self) -> dict[str, str]:
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition("=")
            if sep:
                out[key] = value
        return out

    def status_failure(self) -> str | None:
        lines = self.stdout.splitlines()
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr.strip()[-200:]}"
        if not lines or lines[-1] != "status=pass":
            return "last line is not status=pass"
        return None


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts child processes in one work directory, one at a time."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.env = env
        # Digests of output files that passed a full check in this run.
        self.verified: set[str] = set()

    def spawn(self, argv) -> Op:
        argv = tuple(str(a) for a in argv)
        out_path, err_path = self.work / "op.out", self.work / "op.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - t0), _kill, (proc.pid,))
            timer.start()
            try:
                # wait4 on this child alone: RUSAGE_CHILDREN would keep the
                # maximum RSS over every child reaped so far.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Op(code=proc.returncode, wall_s=wall,
                  peak_rss_mb=usage.ru_maxrss / 1024.0,
                  cpu_s=usage.ru_utime, sys_s=usage.ru_stime,
                  stdout=out_path.read_text(errors="replace"),
                  stderr=err_path.read_text(errors="replace"))

    def cli(self, *args) -> Op:
        return self.spawn((sys.executable, "-m", "dklattice") + args)

    def expect_ok(self, *args) -> None:
        op = self.cli(*args)
        if op.code != 0:
            raise SetupError(f"dklattice {' '.join(args)} exited {op.code}: "
                             f"{op.stderr.strip()[-200:]}")


@dataclasses.dataclass(frozen=True)
class Solve:
    """`dklattice solve` of a seeded random source; the residual is recomputed."""

    name: str
    dims: str
    mass: str = "1,0"

    def smoke(self) -> "Solve":
        return dataclasses.replace(self, name=self.name + "-smoke", dims=WARMUP_DIMS)

    def generate(self, run: Runner, seed: int) -> None:
        run.expect_ok("gen", "random", "--dims", self.dims, "--seed", str(seed),
                      "-o", "src.json")
        run.expect_ok("gen", "random", "--dims", WARMUP_DIMS, "--seed", str(seed),
                      "-o", "warm.json")

    def warm_up(self, run: Runner, seed: int) -> None:
        run.expect_ok("solve", "-i", "warm.json", "--mass", self.mass,
                      "-o", "warm_sol.json")

    def argv(self, seed: int) -> tuple:
        return ("solve", "-i", "src.json", "--mass", self.mass, "-o", "sol.json")

    def before_op(self, run: Runner) -> None:
        (run.work / "sol.json").unlink(missing_ok=True)

    def check(self, run: Runner, op: Op, seed: int) -> str | None:
        failure = op.status_failure()
        if failure:
            return failure
        path = run.work / "sol.json"
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        # An output byte-identical to one that passed the full check passes.
        if digest in run.verified:
            return None
        failure = self.check_residual(path, seed)
        if failure is None:
            run.verified.add(digest)
        return failure

    def check_residual(self, path: Path, seed: int) -> str | None:
        from dklattice import (EquationParams, LatticeDims, dk_residual,
                               load_field, max_abs, random_field)

        source = random_field(LatticeDims.parse(self.dims), seed)
        solution = load_field(path)
        if solution.dims != source.dims:
            return f"solution dims {solution.dims.shape} != {source.dims.shape}"
        re, im = (float(v) for v in self.mass.split(","))
        residual = dk_residual(solution, EquationParams(complex(re, im))) - source
        rel = max_abs(residual) / max_abs(source)
        if not rel <= SOLVE_REL_TOL:
            return f"recomputed residual {rel:.3e} > {SOLVE_REL_TOL:g}"
        return None


@dataclasses.dataclass(frozen=True)
class Verify:
    """`dklattice verify`; requires status=pass and nonzero work counts."""

    name: str
    prop: str
    dims: str
    trials: int
    work_counts: tuple

    def smoke(self) -> "Verify":
        return dataclasses.replace(self, name=self.name + "-smoke", dims=WARMUP_DIMS,
                                   trials=1)

    def generate(self, run: Runner, seed: int) -> None:
        pass

    def warm_up(self, run: Runner, seed: int) -> None:
        run.expect_ok("verify", self.prop, "--dims", WARMUP_DIMS, "--trials", "1",
                      "--seed", str(seed))

    def argv(self, seed: int) -> tuple:
        return ("verify", self.prop, "--dims", self.dims,
                "--trials", str(self.trials), "--seed", str(seed))

    def before_op(self, run: Runner) -> None:
        pass

    def check(self, run: Runner, op: Op, seed: int) -> str | None:
        failure = op.status_failure()
        if failure:
            return failure
        report = op.report()
        for key in self.work_counts:
            try:
                count = int(report[key])
            except (KeyError, ValueError):
                return f"work count {key} missing or not an integer"
            if count <= 0:
                return f"work count {key}={count} is not positive"
        return None


WORKLOADS = {
    w.name: w for w in (
        Solve("solve-16", "16,16,16,16"),
        Verify("verify-3", "all", "3,3,3,3", 20, WORK_COUNTS),
    )
}


def set_up(workload, run: Runner, seed: int) -> float:
    t0 = time.perf_counter()
    workload.generate(run, seed)
    workload.warm_up(run, seed)
    return time.perf_counter() - t0


def timed_ops(workload, run: Runner, seed: int, seconds: float) -> list:
    """(op, failure or None) for each operation started within seconds."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if results and now + results[-1][0].wall_s > run.deadline:
            break
        workload.before_op(run)
        op = run.cli(*workload.argv(seed))
        failure = workload.check(run, op, seed)
        results.append((op, failure))
        print(f"op {len(results)} wall_s={op.wall_s:.4f} "
              f"peak_rss_mb={op.peak_rss_mb:.1f} cpu_s={op.cpu_s:.3f} "
              f"sys_s={op.sys_s:.3f} {failure or 'ok'}", flush=True)
    return results


def copy_gbps(shape: tuple) -> float:
    """Rate of a plain ndarray.copy() of one field, counting read plus write."""
    import numpy as np

    field = np.ones(shape, dtype=np.complex128)
    field.copy()
    times = []
    stop = time.perf_counter() + 0.5
    while len(times) < 5 or (time.perf_counter() < stop and len(times) < 2000):
        t0 = time.perf_counter()
        field.copy()
        times.append(time.perf_counter() - t0)
    return 2 * field.nbytes / statistics.median(times) / 1e9


def _cpu_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    values = [int(v) for v in fields[1:]]
    # guest time is already counted in user time
    return values[7], sum(values[:8])


def host_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "loadavg": loadavg,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def trace_metrics(workload, run: Runner, seed: int, results: list) -> tuple[dict, str | None]:
    """Per-layer metrics from one traced operation appended to results."""
    prefix = run.work / "spans"
    workload.before_op(run)
    op = run.spawn((sys.executable, HERE / "layertrace.py", prefix, "--")
                   + workload.argv(seed))
    failure = workload.check(run, op, seed)
    results.append((op, failure))
    print(f"traced op wall_s={op.wall_s:.4f} {failure or 'ok'}", flush=True)
    if failure:
        return {}, failure
    untraced = [o for o, _ in results[:-1]]
    shape = tuple(int(n) for n in workload.dims.split(",")) + (16,)
    gbps = copy_gbps(shape)
    metrics = layertrace.summarize(str(prefix), gbps)
    total = metrics["cli.main_self_s"] + sum(
        metrics[f"{span}_s"] for span, *_ in layertrace.LAYERS)
    if abs(total - metrics["trace.op_s"]) > 1e-6 * metrics["trace.op_s"]:
        return {}, f"layer self times sum to {total} s, not {metrics['trace.op_s']} s"
    report = op.report()
    metrics["cli.cpu_s"] = statistics.median(o.cpu_s for o in untraced)
    metrics["cli.sys_s"] = statistics.median(o.sys_s for o in untraced)
    for key in WORK_COUNTS:
        metrics[f"verify.work.{key}"] = float(report.get(key, 0))
    base = statistics.median(o.wall_s for o in untraced)
    metrics["ref.copy_gbps"] = gbps
    metrics["trace.overhead_frac"] = (op.wall_s - base) / base
    return metrics, None


def measure(workload, run: Runner, seed: int, seconds: float, trace: bool):
    """Run the workload and return (results, metrics, extra failure)."""
    if trace:
        set_up(workload, run, seed)
        results = timed_ops(workload, run, seed, seconds)
        metrics, failure = trace_metrics(workload, run, seed, results)
        units = per_layer_units()
    else:
        setups = []
        while len(setups) < SETUP_MIN_REPEATS or (
                len(setups) < SETUP_MAX_REPEATS and sum(setups) < SETUP_MIN_S):
            setups.append(set_up(workload, run, seed))
            print(f"setup {len(setups)} s={setups[-1]:.4f}", flush=True)
        results = timed_ops(workload, run, seed, seconds)
        ops = [op for op, _ in results]
        walls = [o.wall_s for o in ops]
        print(f"ops n={len(walls)} wall_s mean={statistics.fmean(walls):.4f} "
              f"median={statistics.median(walls):.4f} min={min(walls):.4f} "
              f"max={max(walls):.4f}", flush=True)
        # The mean, not the median: the host's slow phases last about as
        # long as a run, and the mean over back-to-back operations averages
        # them by the time they cover, where the median jumps to the phase
        # that covers most operations.
        metrics = {"wall_s": statistics.fmean(walls),
                   "peak_rss_mb": statistics.median(o.peak_rss_mb for o in ops),
                   "setup_s": statistics.median(setups)}
        failure = None
        units = END_TO_END_UNITS
    named = {name: {"value": metrics[name], "unit": unit}
             for name, unit in units.items() if name in metrics}
    return results, named, failure


def result_line(results: list, metrics: dict, failure: str | None) -> str:
    failed = sum(1 for _, f in results if f is not None)
    return json.dumps({"correct": failed == 0 and failure is None,
                       "attempted": len(results), "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at 2^4 with one trial to check the benchmark")
    args = parser.parse_args(argv)
    if not (SRC / "dklattice" / "cli.py").is_file():
        print(f"error: no dklattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Runner(work, deadline=time.perf_counter() + RUN_LIMIT_S)
    jiffies_before = _cpu_jiffies()
    try:
        results, metrics, failure = measure(workload, run, args.seed,
                                            args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context = host_context()
    jiffies_after = _cpu_jiffies()
    if jiffies_before and jiffies_after:
        context["steal_jiffies"] = jiffies_after[0] - jiffies_before[0]
        context["total_jiffies"] = jiffies_after[1] - jiffies_before[1]
    context["workload"] = workload.name
    context["argv"] = list(workload.argv(args.seed))
    if failure:
        print(f"failure: {failure}")
    print("context " + json.dumps(context, sort_keys=True))
    print(result_line(results, metrics, failure))
    return 0


if __name__ == "__main__":
    sys.exit(main())
