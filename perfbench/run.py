"""veq benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh single-threaded Python process
(perfbench/worker.py), one after another, with VEQ_BUDGET unset, the
repository root as working directory and a fixed hash seed.

--trace 0: one timed worker gives the end-to-end metrics; set-up time is the
median over it and SETUP_REPEATS set-up-only workers.
--trace 1: an untraced worker runs for half the time, then a traced worker
runs the same queries; the per-layer metrics come from the traced one, and
trace.overhead_frac compares the two walls.

Every time is scaled to the reference speed of perfbench/calibrate.py, which
cancels most of a shared host's drift in speed; the records keep raw times.

The last line of standard output is the result as one JSON object; the full
record, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4
WORKER_TIMEOUT_S = 150


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(args, **extra):
    env = {k: v for k, v in os.environ.items()
           if k not in ("VEQ_BUDGET", "PYTHONPATH")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    for k, v in extra.items():
        cmd += [f"--{k}", str(v)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: worker failed: {' '.join(cmd[1:])}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "veq").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def main(argv=None):
    # SystemExit on SIGTERM lets subprocess.run kill and reap a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "veq" / "__init__.py").is_file():
        raise SystemExit("perfbench: run from a veq checkout (src/veq is missing)")
    bench = spec()
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = {}
    if args.trace == 0:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        main_run = runs["timed"] = worker(args, mode="timed", seconds=args.seconds)
        runs["setups"] = [worker(args, mode="setup") for _ in range(SETUP_REPEATS)]
        setups = [r["setup_s"] for r in [main_run] + runs["setups"]]
        values = dict(main_run, setup_s=statistics.median(setups))
        checked = [main_run]
    else:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        base = runs["untraced"] = worker(args, mode="timed", seconds=args.seconds / 2)
        traced = runs["traced"] = worker(
            args, mode="count", count=base["queries"], trace=1,
            spans=results / f"{stem}-spans.json.gz")
        values = dict(traced["per_layer"])
        values["trace.overhead_frac"] = traced["wall_s"] / base["wall_s"] - 1
        checked = [base, traced]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": all(r["failed"] == 0 for r in checked),
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "result": result, "runs": runs,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
