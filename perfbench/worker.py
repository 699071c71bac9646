"""Run one workload in this (fresh, single-threaded) process.

Set-up covers importing veq, parsing the corpus, generating the seeded
inputs and one warm-up query. The timed phase is a closed loop with one
client: each query starts when the previous one has returned. Answers are
checked against the oracle between queries, outside their timed spans. Every time reported is
scaled to the reference speed of calibrate.py, from kernel timings taken
between queries and after set-up; the raw times are kept under "raw".
Prints one JSON object.

    PYTHONPATH=src python3 perfbench/worker.py --workload cli --seed 1 \
        --mode timed --seconds 20
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

MIN_QUERIES = 100  # so that at least ten latencies lie beyond p90


def nearest_rank(sorted_values, pct):
    return sorted_values[max(1, math.ceil(pct / 100 * len(sorted_values))) - 1]


def schedule(pool, seed):
    """Endless passes over the pool, each in its own seeded order. Strata are
    spread evenly through a pass, so any stretch of the schedule holds each
    stratum in its pool share and a run that ends mid-pass keeps the mix."""
    rng = random.Random(f"{seed}/order")
    strata: dict[str, list] = {}
    for q in pool:
        strata.setdefault(q.stratum, []).append(q)
    while True:
        keyed = []
        for members in strata.values():
            rng.shuffle(members)
            offset = rng.random()
            keyed += [((i + offset) / len(members), q) for i, q in enumerate(members)]
        keyed.sort(key=lambda pair: (pair[0], pair[1].key))
        yield from (q for _, q in keyed)


def timed_phase(workload, queries, seconds, count, pass_len, quiet):
    """Closed loop until `seconds` have passed and MIN_QUERIES are done (and,
    for a workload timed in whole passes, the pass is complete), or for
    exactly `count` queries. A query runs `workload.repeats` times back to
    back; its latency is the median of those runs. Each answer is checked
    right after its query, inside `quiet()`, and then dropped, so that the
    peak memory does not grow with the number of queries. The calibration
    kernel runs every CAL_EVERY_S of query time and its (time, duration)
    samples are returned. Neither checks nor kernel count towards `seconds`
    or towards the wall. Records are (query, latency, verdicts, start,
    span), where span is the query's whole share of the wall."""
    stride = pass_len if workload.whole_passes else 1
    records, cal = [], []
    start = perf_counter()
    deadline = start + seconds
    next_cal = start
    paused = 0.0
    for q in queries:
        if perf_counter() >= next_cal:
            t = perf_counter()
            cal.append((t, calibrate.slice_s()))
            paused += perf_counter() - t
            next_cal = perf_counter() + calibrate.CAL_EVERY_S
        times, answers = [], []
        t_query = perf_counter()
        for _ in range(workload.repeats):
            t0 = perf_counter()
            try:
                answers.append(workload.run(q))
            except Exception as e:  # counted as a failed query, never fatal
                answers.append(e)
            times.append(perf_counter() - t0)
        t_check = perf_counter()
        with quiet():
            verdicts = [verdict(workload, q, answer) for answer in answers]
        paused += perf_counter() - t_check
        next_cal += perf_counter() - t_check
        records.append((q, statistics.median(times), verdicts, t_query, t_check - t_query))
        if count is not None:
            if len(records) >= count:
                break
        elif (perf_counter() >= deadline + paused and len(records) >= MIN_QUERIES
              and len(records) % stride == 0):
            break
    wall = perf_counter() - start - paused
    cal.append((perf_counter(), calibrate.slice_s()))
    return records, wall, cal


def tally(records):
    failed = positives = decided = 0
    for _, _, verdicts, *_ in records:
        for ok, truth, answered in verdicts:
            failed += not ok
            positives += truth
            decided += truth and answered
    return failed, positives, decided


def verdict(workload, q, answer):
    """(ok, truth_positive, answered_positive); an exception is a failure."""
    if isinstance(answer, Exception):
        return False, False, False
    try:
        return workload.check(q, answer)
    except Exception:
        return False, False, False


def main(argv=None):
    t_start = perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "count"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="gzipped span dump (traced runs)")
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parent.parent

    import workloads  # imports veq: part of set-up

    workload = workloads.WORKLOADS[args.workload](root)
    pool = workload.generate(random.Random(args.seed))
    workload.run(pool[0])  # warm-up
    setup_s = perf_counter() - t_start
    setup_cal = [calibrate.slice_s() for _ in range(calibrate.SETUP_SLICES)]
    out = {"setup_s": setup_s / calibrate.factor(setup_cal), "pool": len(pool),
           "raw": {"setup_s": setup_s, "setup_cal_s": setup_cal}}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer, quiet = None, contextlib.nullcontext
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        quiet = tracer.paused
    try:
        records, raw_wall, cal = timed_phase(
            workload, schedule(pool, args.seed), args.seconds,
            args.count if args.mode == "count" else None, len(pool), quiet)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # each query is scaled by the host speed measured around it
    factors = calibrate.local_factors(cal, [t for *_, t, _ in records])
    speed = calibrate.factor([dt for _, dt in cal])
    wall = sum(span / f for (*_, span), f in zip(records, factors))
    latencies = sorted(dt / f for (_, dt, *_), f in zip(records, factors))
    strata: dict[str, list] = {}
    for (q, dt, *_), f in zip(records, factors):
        entry = strata.setdefault(q.stratum, [0, 0.0])
        entry[0] += 1
        entry[1] += dt / f
    failed, positives, decided = tally(records)
    attempted = len(records) * workload.repeats
    out.update({
        "queries": len(records),
        "attempted": attempted,
        "failed": failed,
        "positives": positives,
        "decided": decided,
        "wall_s": wall,
        "throughput_qps": attempted / wall,
        "latency_p50_ms": 1000 * nearest_rank(latencies, 50),
        "latency_p90_ms": 1000 * nearest_rank(latencies, 90),
        "beyond_p90": sum(1 for x in latencies if x > nearest_rank(latencies, 90)),
        "decided_frac": decided / positives if positives else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "strata": strata,
        "latencies_ms": [round(1000 * x, 4) for x in latencies],
    })
    out["raw"].update(wall_s=raw_wall, speed_factor=speed, cal_s=[dt for _, dt in cal],
                      latencies_ms=[round(1000 * dt, 4) for _, dt, *_ in records])
    if tracer is not None:
        out["per_layer"] = tracer.metrics(speed)
        out["layer_self_s"] = tracer.layer_self_s(speed)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
