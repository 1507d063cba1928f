"""Peak memory and wall time of the CLI `solve` process at 16^4, two trees in turn.

Usage:
    python3 bench/peak.py BEFORE_SRC AFTER_SRC OUT_PREFIX [--pairs N]

BEFORE_SRC and AFTER_SRC are the src/ directories of two checkouts.  In a
temporary directory the script writes a 16^4 random field (seed 1) with the
after tree's `gen random`, then runs

    python3 -m dklattice solve -i src.json --mass 1,0 -o sol.json

from each tree in turn, N pairs (default 5), the before tree first in even
pairs and the after tree first in odd ones.  Each run is a child process
of this script, and its peak RSS (ru_maxrss) and wall time come from
os.wait4 on that child alone.  The script imports only the standard
library, so it stays small: a child started by vfork and exec inherits its
parent's high-water RSS in ru_maxrss, and a large parent would set the
floor of every reading.  ru_maxrss of a process that forked also covers
the children it reaped, so the load's parsing child and the save's
formatting child are counted.

It writes OUT_PREFIX_before.json and OUT_PREFIX_after.json, each with
every run (peak MiB, wall s, SHA-256 of the solution file and of stdout),
the median and quartiles of both metrics, and a host/Python context.  Equal
digests across the two files show that the trees wrote the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DIMS = "16,16,16,16"
SEED = 1
MASS = "1,0"


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
    }


def run_cli(src: Path, work: Path, *args) -> dict:
    """Run the CLI of the tree at src in work; its wait4 peak, wall time and stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(work / "stdout", "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen((sys.executable, "-m", "dklattice") + args, cwd=work,
                                env=env, stdin=subprocess.DEVNULL, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"dklattice {' '.join(args)} exited {proc.returncode}")
    return {"peak_mib": usage.ru_maxrss / 1024.0, "wall_s": wall,
            "stdout": (work / "stdout").read_bytes()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path, help="src/ directory of the parent tree")
    parser.add_argument("after", type=Path, help="src/ directory of the changed tree")
    parser.add_argument("out_prefix", help="writes OUT_PREFIX_before.json and _after.json")
    parser.add_argument("--pairs", type=int, default=5)
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_cli(trees["after"], work, "gen", "random", "--dims", DIMS, "--seed", str(SEED),
                "-o", "src.json")
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for name in order:
                (work / "sol.json").unlink(missing_ok=True)
                run = run_cli(trees[name], work, "solve", "-i", "src.json", "--mass", MASS,
                              "-o", "sol.json")
                runs[name].append({
                    "pair": pair,
                    "peak_mib": run["peak_mib"],
                    "wall_s": run["wall_s"],
                    "solution_sha256": hashlib.sha256((work / "sol.json").read_bytes()).hexdigest(),
                    "stdout_sha256": hashlib.sha256(run["stdout"]).hexdigest(),
                })
                print(f"pair {pair} {name}: peak {run['peak_mib']:.1f} MiB, "
                      f"wall {run['wall_s']:.3f} s", file=sys.stderr)
    for name, records in runs.items():
        result = {
            "benchmark": "peak",
            "tree": name,
            "command": f"solve -i <gen random --dims {DIMS} --seed {SEED}> --mass {MASS}",
            "pairs": args.pairs,
            "peak_mib": summary([r["peak_mib"] for r in records]),
            "wall_s": summary([r["wall_s"] for r in records]),
            "runs": records,
            "context": context(),
        }
        with open(f"{args.out_prefix}_{name}.json", "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
