"""Steadiness check: run one or more workloads on several seeds and print,
for each end-to-end metric, the median and the spread (q3 - q1) / median
over the runs, next to a third of the metric's bound.

    python3 perfbench/steady.py --workloads proofs series --seeds 1-10

The runs go one after another; each result line is kept in
perfbench/results/steady-<workload>.jsonl. With --baseline, the medians and
quartiles replace the workload's entry under baseline.end_to_end in
perfbench/design.json, and a traced run of the first seed replaces its
entry under baseline.per_layer_seed1 (the nonzero per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def traced(workload, args):
    seed = args.seeds[0]
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, check=True)
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace1.json").read_text())
    run = record["runs"]["traced"]
    entry = {k: round(m["value"], 6) for k, m in record["result"]["metrics"].items()
             if m["value"]}
    entry["layer_self_s"] = {k: round(v, 4) for k, v in run["layer_self_s"].items()}
    entry["traced_wall_s"] = round(run["wall_s"], 4)
    return entry


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    design_path = HERE / "design.json"
    design = json.loads(design_path.read_text())
    (HERE / "results").mkdir(exist_ok=True)
    for workload in args.workloads:
        rows = []
        log = HERE / "results" / f"steady-{workload}.jsonl"
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with log.open("a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
            rows.append(result)
        failed = sum(r["failed"] for r in rows)
        print(f"{workload}: {len(rows)} runs, failed {failed}")
        entry = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry[m["name"]] = {"median": round(med, 6), "q1": round(q1, 6),
                                "q3": round(q3, 6), "runs": len(rows)}
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {m['name']:<16} median {med:12.5g} {m['unit']:<6}"
                  f" spread {spread:.3f} (a third of the bound: {m['bound'] / 3:.3f})")
        entry.update(attempted=sum(r["attempted"] for r in rows), failed=failed)
        design["baseline"]["end_to_end"][workload] = entry
        if args.baseline:
            design["baseline"]["per_layer_seed1"][workload] = traced(workload, args)
    if args.baseline:
        design_path.write_text(json.dumps(design, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
