"""The proof search's answers on perfbench's proofs pool, pinned.

One in-process pass over the seed-1 proofs pool hashes the repr of every
result: 384 word problems in Mon and CMon at budget 100 (status,
certificate and expansion count) and the identity bases of the 16
two-element tables at budget 20. A refactor of the proof search or of
identity extraction must leave every one of them as it was. The digest was
recorded before the search became resumable (BENCH_16.json has its first
16 digits, and those of seeds 2 and 20231007). Only reads perfbench/."""

import hashlib
import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED1_DIGEST = "c31d4ce6f2d152f86cab5fd6971711161365e513eacbdd00b893eba30bf10707"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # for its oracle
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_seed1_proofs_pass_gives_the_recorded_answers(monkeypatch):
    proofs = load_workloads(monkeypatch).Proofs(ROOT)
    pool = proofs.generate(random.Random(1))
    digest = hashlib.sha256()
    for q in pool:
        digest.update(repr(proofs.run(q)).encode())
    assert len(pool) == 400
    assert digest.hexdigest() == SEED1_DIGEST
