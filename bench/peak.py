"""Peak memory and wall time of CLI processes, two trees in turn.

Usage:
    python3 bench/peak.py BEFORE_SRC AFTER_SRC OUT_PREFIX [--pairs N]

BEFORE_SRC and AFTER_SRC are the src/ directories of two checkouts.  In a
temporary directory the script writes a 16^4 random field (seed 1) with the
after tree's `gen random`, then runs seven rows, each
`python3 -m dklattice ARGS`:

    solve:             solve -i src.json --mass 1,0 -o out.json
    gen:               gen random --dims 16,16,16,16 --seed 1 -o out.json
    verify:            verify all --dims 3,3,3,3 --trials 20
    apply_dk:          apply dk -i src.json -o out.json
    residual_dk:       residual dk -i src.json --mass 1,0
    residual_hestenes: residual hestenes -i src.json --mass 1,0
    decompose:         decompose -i src.json --out-prefix out

from each tree in turn, N pairs (default 5, at least 2 for the
quartiles), the before tree first in even
pairs and the after tree first in odd ones.  The two residual rows exit 1,
as a random field solves neither equation; every other row exits 0, and
any other exit code stops the script.  Each run is a child process
of this script, and its peak RSS (ru_maxrss) and wall time come from
os.wait4 on that child alone.  The script imports only the standard
library, so it stays small: a child started by vfork and exec inherits its
parent's high-water RSS in ru_maxrss, and a large parent would set the
floor of every reading.  ru_maxrss of a process that forked also covers
the children it reaped, so the load's parsing child and the save's
formatting child are counted.

It writes OUT_PREFIX_before.json and OUT_PREFIX_after.json with one entry
per row under "rows": every run (peak MiB, wall s, SHA-256 of each file it
wrote, by name, and of stdout), and the median and quartiles of both
metrics; and a host/Python context.  Equal digests across the two files
show that the trees wrote the same bytes.
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
VERIFY_DIMS = "3,3,3,3"
SEED = 1
MASS = "1,0"


def rows() -> dict:
    """The exit code and CLI arguments of each row; the verbs with an input
    read the field made first."""
    return {
        "solve": (0, ("solve", "-i", "src.json", "--mass", MASS, "-o", "out.json")),
        "gen": (0, ("gen", "random", "--dims", DIMS, "--seed", str(SEED), "-o", "out.json")),
        "verify": (0, ("verify", "all", "--dims", VERIFY_DIMS, "--trials", "20")),
        "apply_dk": (0, ("apply", "dk", "-i", "src.json", "-o", "out.json")),
        "residual_dk": (1, ("residual", "dk", "-i", "src.json", "--mass", MASS)),
        "residual_hestenes": (1, ("residual", "hestenes", "-i", "src.json", "--mass", MASS)),
        "decompose": (0, ("decompose", "-i", "src.json", "--out-prefix", "out")),
    }


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


def run_cli(src: Path, work: Path, *args, expect: int = 0) -> dict:
    """Run the CLI of the tree at src in work, which must exit with expect;
    its wait4 peak, wall time and stdout."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(work / "stdout", "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen((sys.executable, "-m", "dklattice") + args, cwd=work,
                                env=env, stdin=subprocess.DEVNULL, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != expect:
        raise RuntimeError(f"dklattice {' '.join(args)} exited {proc.returncode}")
    return {"peak_mib": usage.ru_maxrss / 1024.0, "wall_s": wall,
            "stdout": (work / "stdout").read_bytes()}


def file_sha256(path: Path) -> str:
    """SHA-256 of a file, read in blocks, so that this script's own
    high-water RSS stays below its children's."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def outputs(work: Path) -> list:
    """The files in work that a run wrote: all but the input and stdout."""
    return [path for path in sorted(work.iterdir()) if path.name not in ("src.json", "stdout")]


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
    if args.pairs < 2:  # the quartiles of a row need two runs of each tree
        parser.error("--pairs must be at least 2")
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    commands = rows()
    runs = {name: {row: [] for row in commands} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_cli(trees["after"], work, "gen", "random", "--dims", DIMS, "--seed", str(SEED),
                "-o", "src.json")
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for row, (expect, command) in commands.items():
                for name in order:
                    for path in outputs(work):
                        path.unlink()
                    run = run_cli(trees[name], work, *command, expect=expect)
                    runs[name][row].append({
                        "pair": pair,
                        "peak_mib": run["peak_mib"],
                        "wall_s": run["wall_s"],
                        "files_sha256": {path.name: file_sha256(path)
                                         for path in outputs(work)},
                        "stdout_sha256": hashlib.sha256(run["stdout"]).hexdigest(),
                    })
                    print(f"pair {pair} {row} {name}: peak {run['peak_mib']:.2f} MiB, "
                          f"wall {run['wall_s']:.3f} s", file=sys.stderr)
    for name, by_row in runs.items():
        result = {
            "benchmark": "peak",
            "tree": name,
            "pairs": args.pairs,
            "rows": {row: {
                "command": " ".join(commands[row][1]).replace(
                    "src.json", f"<gen random --dims {DIMS} --seed {SEED}>"),
                "peak_mib": summary([r["peak_mib"] for r in records]),
                "wall_s": summary([r["wall_s"] for r in records]),
                "runs": records,
            } for row, records in by_row.items()},
            "context": context(),
        }
        with open(f"{args.out_prefix}_{name}.json", "w", encoding="ascii") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
