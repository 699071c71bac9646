"""Self-check of the benchmark: metric names match BENCHMARK.json, every
oracle counts a deliberately corrupted answer as failed, and the host-speed
calibration scales each query by the kernel timings near it.

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from veq.algebras import Identity  # noqa: E402
from veq.series import Nonzero, ZeroWithinPrecision  # noqa: E402
from veq.theories import CongruenceResult, Var  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def _run(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "cli", "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metric_names_match_spec(trace, section):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH[section]]
    for m in BENCH[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_per_layer_names_are_the_tracers():
    assert [m["name"] for m in BENCH["per_layer"]] == tracing.per_layer_names()


@pytest.fixture(scope="module")
def pools():
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(ROOT)
        out[name] = (w, w.generate(random.Random(SEED)))
    return out


def _first(pool, pred):
    return next(q for q in pool if pred(q))


def _failed(w, q, answer):
    return worker.tally([(q, 0.0, [worker.verdict(w, q, answer)])])[0]


def _corruptions(name, w, pool):
    """(query, true answer, corrupted answer) triples for one workload."""
    if name == "varieties":
        q = _first(pool, lambda q: q.kind == "transport" and len(q.data["elements"]) == 3)
        good = w.run(q)
        yield q, good, good[:3] + (False,)
        yield q, good, (good[0][1:],) + good[1:]
        q = _first(pool, lambda q: q.kind == "hsp" and len(q.data["B"].carrier) >= 3)
        good = w.run(q)
        yield q, good, dataclasses.replace(
            good, witness=dataclasses.replace(good.witness, k=q.data["k"] + 1))
        yield q, good, dataclasses.replace(good, status="NoWithinBounds", witness=None)
    elif name == "proofs":
        q = _first(pool, lambda q: q.stratum == "Mon-not-3")
        yield q, w.run(q), CongruenceResult("provable", (), 1)
        q = _first(pool, lambda q: q.stratum == "Mon-derivable-4")
        good = w.run(q)
        assert good.provable and good.certificate
        yield q, good, dataclasses.replace(good, certificate=good.certificate[:-1])
        q = _first(pool, lambda q: q.kind == "basis")
        good = w.run(q)
        yield q, good, good + [Identity(Var(0), Var(1), 2)]
    elif name == "series":
        for q in (_first(pool, lambda q: q.stratum == "rec4-at4"),
                  _first(pool, lambda q: q.stratum == "rec4-at3")):
            good = w.run(q)
            flipped = Nonzero(0) if isinstance(good, ZeroWithinPrecision) \
                else ZeroWithinPrecision(q.data["f"].precision - 2 * q.data["order"])
            yield q, good, flipped
    else:
        q = _first(pool, lambda q: q.data["name"] == "decide-cmon")
        code, out = good = w.run(q)
        yield q, good, (code, out.replace("provable", "unknown"))
        yield q, good, (1, out)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_oracles_count_corrupted_answers_as_failed(pools, name):
    w, pool = pools[name]
    cases = list(_corruptions(name, w, pool))
    assert cases
    for q, good, bad in cases:
        assert _failed(w, q, good) == 0, q.stratum
        assert _failed(w, q, bad) == 1, q.stratum
    assert _failed(w, cases[0][0], RuntimeError("raised")) == 1


def test_layer_map_names_real_workloads_and_metrics():
    design = json.loads((HERE / "design.json").read_text())
    workload_names = {w["name"] for w in BENCH["workloads"]}
    metric_names = {m["name"] for m in BENCH["end_to_end"]} | {"failed"}
    assert isinstance(design["held_out_seed"], int)
    for entry in design["layer_map"]:
        for workload, metric in entry["moves"]:
            assert workload in workload_names and metric in metric_names, entry
        assert set(entry.get("still", [])) <= workload_names


def test_calibration_scales_by_nearby_kernel_timings():
    ref, near = calibrate.REF_S, calibrate.CAL_WINDOW_S
    samples = [(0.0, ref), (0.5 * near, ref), (10 * near, 2 * ref)]
    assert calibrate.local_factors(samples, [0.0, 10 * near, 5 * near]) == [
        1.0, 2.0, pytest.approx(4 / 3)]
    assert calibrate.kernel() == calibrate.kernel()
