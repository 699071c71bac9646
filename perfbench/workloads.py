"""The four seeded workloads: inputs, the veq calls a query makes, and the
check of each answer against the benchmark's own oracle.

A workload builds a pool of queries from its seed (plus the corpus files it
draws on). ``run`` calls only veq's public functions and is the only part
that is timed; ``check`` runs after the timed phase and returns
``(ok, truth_positive, answered_positive)``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import itertools
from dataclasses import dataclass
from pathlib import Path

import oracle
from veq import algebras as alg
from veq import birkhoff, cli, dsl, theories
from veq import series as ser
from veq.theories import App, Budget, Signature, Var, replay_certificate

ONE_BINARY = Signature((("mul", 2),))


@dataclass
class Query:
    key: int
    kind: str
    data: dict
    stratum: str  # the schedule keeps each stratum's share of every stretch


def _pool_terms():
    """The 2-variable, depth-2 identity pool over one binary symbol."""
    layer01 = [Var(0), Var(1)]
    layer01 += [App("mul", (s, t)) for s in layer01 for t in layer01]
    seen = set(layer01)
    deeper = []
    for s in layer01:
        for t in layer01:
            cand = App("mul", (s, t))
            if cand not in seen:
                seen.add(cand)
                deeper.append(cand)
    return layer01 + deeper


def _algebra(name, elements, table):
    return alg.make_algebra(name, ONE_BINARY, elements, {"mul": table})


def _random_table(rng, elements):
    return {(a, b): rng.choice(elements) for a in elements for b in elements}


class Workload:
    name = ""
    corpus: tuple[str, ...] = ()
    repeats = 1  # back-to-back runs of one query; its latency is their median
    whole_passes = False  # stop the timed phase only at the end of a pass

    def __init__(self, root: Path):
        self.root = root
        self.ws = dsl.parse_files([str(root / "corpus" / f) for f in self.corpus])

    def generate(self, rng) -> list[Query]:
        raise NotImplementedError

    def run(self, q: Query):
        raise NotImplementedError

    def check(self, q: Query, answer) -> tuple[bool, bool, bool]:
        raise NotImplementedError


class Varieties(Workload):
    """Identity transport on random algebras, and HSP membership of
    relabelled quotients of subalgebras of powers."""

    name = "varieties"
    corpus = ("algebras.veq",)
    # (carrier size, count) of transport queries
    TRANSPORT = ((2, 200), (3, 600))
    # (|A|, k, |B|, count) of hsp queries; |S| <= 8 = hsp_member's default
    # congruence_bound, so every instance is a member within bounds. Other
    # strata (|B| >= 4 over A^3, or A^2 with |A| = 3) hold rare instances of
    # 0.5-2 s whose presence in a seed's pool moves throughput by 10-20%.
    HSP = ((2, 2, 3, 40), (2, 2, 4, 40), (2, 3, 3, 40), (3, 1, 3, 20))
    MAX_SUB = 8

    def __init__(self, root):
        super().__init__(root)
        self.terms = _pool_terms()

    def generate(self, rng):
        pool = []
        for size, count in self.TRANSPORT:
            elements = [str(i) for i in range(size)]
            for _ in range(count):
                table = _random_table(rng, elements)
                pool.append(Query(len(pool), "transport", {
                    "A": _algebra("A", elements, table),
                    "table": table, "elements": elements}, f"transport{size}"))
        meet2 = self.ws.get("algebra", "Meet2")
        chain3 = self.ws.get("algebra", "Chain3")
        pool.append(Query(len(pool), "hsp", {"A": meet2, "B": chain3, "k": 2}, "hsp-corpus"))
        for n, k, bsize, count in self.HSP:
            for _ in range(count):
                pool.append(Query(len(pool), "hsp", self._hsp_instance(rng, n, k, bsize),
                                  f"hsp{n}.{k}.{bsize}"))
        return pool

    def _hsp_instance(self, rng, n, k, bsize):
        elements = [str(i) for i in range(n)]
        while True:
            table = _random_table(rng, elements)
            elems, ptable = oracle.power(table, elements, k)
            sub = sorted(oracle.closure(ptable, rng.sample(elems, rng.randint(1, 3))))
            if not bsize <= len(sub) <= self.MAX_SUB:
                continue
            rep = {x: x for x in sub}
            pairs = list(itertools.combinations(sub, 2))
            rng.shuffle(pairs)
            for pair in [None] + pairs[:12]:
                if pair is not None:
                    rep = oracle.congruence_generated(ptable, sub, [pair])
                if len(set(rep.values())) == bsize:
                    break
            else:
                continue
            classes = sorted(set(rep.values()))
            perm = rng.sample(range(bsize), bsize)
            label = {c: f"b{perm[i]}" for i, c in enumerate(classes)}
            btable = {(label[rep[a]], label[rep[b]]): label[rep[ptable[(a, b)]]]
                      for a in sub for b in sub}
            B = _algebra("B", [f"b{i}" for i in range(bsize)], btable)
            return {"A": _algebra("A", elements, table), "B": B, "k": k}

    def run(self, q):
        A = q.data["A"]
        if q.kind == "hsp":
            return birkhoff.hsp_member(q.data["B"], A, k_max=q.data["k"])
        groups: dict[tuple, list[int]] = {}
        for i, t in enumerate(self.terms):
            groups.setdefault(alg.term_function(A, t, 2), []).append(i)
        classes = [g for g in groups.values() if len(g) > 1]
        subs = [S for S, _ in alg.subalgebras(A)]
        thetas = alg.congruences(A)
        quotients = [alg.quotient_algebra(A, theta)[0] for theta in thetas]
        square = alg.product_algebra([A, A]).obj
        coarsens = all(
            len({alg.term_function(C, self.terms[i], 2) for i in g}) == 1
            for C in subs + quotients + [square] for g in classes)
        partition = tuple(sorted(tuple(g) for g in groups.values()))
        return partition, len(subs), len(thetas), coarsens

    def check(self, q, answer):
        if q.kind == "hsp":
            ok = answer.yes and self._witness_ok(q, answer.witness)
            return ok, True, answer.yes
        table, elements = q.data["table"], q.data["elements"]
        expected = (
            oracle.term_partition(table, elements, self.terms),
            oracle.count_subalgebras(table, elements),
            oracle.count_congruences(table, elements),
            True,  # Birkhoff: identities survive H, S and P
        )
        return answer == expected, False, False

    def _witness_ok(self, q, w):
        A, B = q.data["A"], q.data["B"]
        if w.k > q.data["k"] or not birkhoff.replay_hsp_witness(B, A, w):
            return False
        Q = w.quotient
        return oracle.is_isomorphism(
            Q.tables["mul"], Q.carrier.elements, B.tables["mul"],
            B.carrier.elements, w.isomorphism.mapping())


class Proofs(Workload):
    """Bounded proof search: Mon/CMon word problems and identity bases."""

    name = "proofs"
    corpus = ("theories.veq",)
    DECIDE_BUDGET = 100
    BASIS_BUDGET = 20
    # (theory, derivable, word length, count) of decide queries; derivable
    # pairs are kept short enough to be found well within the budget
    DECIDE = (("Mon", True, 3, 24), ("Mon", True, 4, 24), ("CMon", True, 3, 48),
              ("Mon", False, 3, 72), ("Mon", False, 4, 72),
              ("CMon", False, 3, 72), ("CMon", False, 4, 72))
    VARIABLES = 4

    def generate(self, rng):
        pool = []
        for theory, derivable, length, count in self.DECIDE:
            T = self.ws.get("theory", theory)
            for _ in range(count):
                lhs, rhs = self._pair(rng, theory, derivable, length)
                pool.append(Query(len(pool), "decide", {
                    "T": T, "lhs": lhs, "rhs": rhs, "theory": theory},
                    f"{theory}-{'derivable' if derivable else 'not'}-{length}"))
        # every one-operation table on two elements, under a seeded relabelling
        for flat in itertools.product((0, 1), repeat=4):
            names = rng.sample(["p", "q"], 2)
            table = {(names[a], names[b]): names[flat[2 * a + b]]
                     for a in (0, 1) for b in (0, 1)}
            pool.append(Query(len(pool), "basis", {
                "A": _algebra("A", sorted(names), table), "table": table,
                "elements": sorted(names)}, "basis"))
        return pool

    def _pair(self, rng, theory, derivable, length):
        while True:
            word = [rng.randrange(self.VARIABLES) for _ in range(length)]
            other = list(word)
            if derivable and theory == "CMon":
                rng.shuffle(other)
            elif not derivable:
                i = rng.randrange(len(word))
                if theory == "Mon" and i + 1 < len(word) and word[i] != word[i + 1]:
                    other[i], other[i + 1] = other[i + 1], other[i]
                else:
                    other[i] = (other[i] + 1 + rng.randrange(self.VARIABLES - 1)) \
                        % self.VARIABLES
            sides = [self._bracket(rng, word), self._bracket(rng, other)]
            # exactly one unit per pair keeps term sizes fixed within a stratum
            i = rng.randrange(2)
            sides[i] = self._with_unit(rng, sides[i])
            if sides[0] != sides[1]:
                return tuple(sides)

    def _bracket(self, rng, word):
        if len(word) == 1:
            return Var(word[0])
        cut = rng.randrange(1, len(word))
        return App("m", (self._bracket(rng, word[:cut]), self._bracket(rng, word[cut:])))

    def _with_unit(self, rng, t):
        if isinstance(t, App) and rng.random() < 0.5:
            args = list(t.args)
            j = rng.randrange(2)
            args[j] = self._with_unit(rng, args[j])
            return App("m", tuple(args))
        unit = App("e", ())
        return App("m", (unit, t) if rng.random() < 0.5 else (t, unit))

    def run(self, q):
        if q.kind == "decide":
            return theories.congruent(q.data["T"], q.data["lhs"], q.data["rhs"],
                                      Budget(steps=self.DECIDE_BUDGET))
        return birkhoff.identities_of(q.data["A"], 2, 2, budget=self.BASIS_BUDGET)

    def check(self, q, answer):
        if q.kind == "decide":
            nf = oracle.mon_normal_form if q.data["theory"] == "Mon" \
                else oracle.cmon_normal_form
            derivable = nf(q.data["lhs"]) == nf(q.data["rhs"])
            if answer.status == "unknown":
                return answer.certificate is None, derivable, False
            ok = (answer.status == "provable" and derivable
                  and replay_certificate(q.data["T"], q.data["lhs"], q.data["rhs"],
                                         answer.certificate))
            return ok, derivable, True
        table, elements = q.data["table"], q.data["elements"]
        ok = bool(answer) and all(
            oracle.term_values(table, elements, i.lhs, i.context)
            == oracle.term_values(table, elements, i.rhs, i.context)
            for i in answer)
        return ok, False, False


class Series(Workload):
    """Wronskian recurrence detection on seeded windows."""

    name = "series"
    corpus = ("series.veq",)
    PRECISION = 24
    # order -> (windows from a recurrence, windows following none). Each
    # window is queried at its order and one below, so a query at order k
    # comes from windows of order k and k + 1. The counts put p50 in the
    # middle of the 108 queries at order 3 (ranks 127-234 of 378) and p90
    # in the middle of the 45 at order 5 (ranks 316-360), never on the edge
    # between two orders, whose costs differ about twofold.
    WINDOWS = {1: (12, 6), 2: (12, 6), 3: (36, 18), 4: (36, 18), 5: (18, 9), 6: (12, 6)}

    def generate(self, rng):
        windows = [(self.ws.get("series", "fib").truncate(self.PRECISION), 2, "corpus")]
        for order, (recurrent, free) in self.WINDOWS.items():
            for _ in range(recurrent):
                coeffs = [rng.randint(-3, 3) for _ in range(order)]
                coeffs[0] = coeffs[0] or 1
                inits = [rng.randint(-4, 4) for _ in range(order)]
                inits[-1] = inits[-1] or 1
                windows.append(
                    (ser.from_recurrence(inits, coeffs, self.PRECISION), order, "rec"))
            for _ in range(free):
                coeffs = [rng.randint(-5, 5) for _ in range(self.PRECISION)]
                windows.append((ser.series(coeffs), order, "free"))
        pool = []
        for f, order, origin in windows:
            for o in (order, order - 1):
                pool.append(Query(len(pool), "recurrence", {"f": f, "order": o},
                                  f"{origin}{order}-at{o}"))
        return pool

    def run(self, q):
        return ser.is_linear_recurrence(q.data["f"], q.data["order"])

    def check(self, q, answer):
        f, order = q.data["f"], q.data["order"]
        truth = oracle.has_recurrence(f.coeffs, order)
        zero = isinstance(answer, ser.ZeroWithinPrecision)
        ok = zero == truth and (
            answer.precision == f.precision - 2 * order if zero
            else isinstance(answer, ser.Nonzero)
            and 0 <= answer.index < f.precision - 2 * order)
        return ok, truth, zero


class Cli(Workload):
    """The bundled golden invocations through veq.cli.main, in-process."""

    name = "cli"
    # p90 falls just inside the fifth-slowest of the 42 commands. A partial
    # last pass could hold more than a tenth of slow commands and put p90 on
    # the fourth-slowest (3x higher), and one slow moment of the shared host
    # on those few samples moved p90 by up to 40% between runs; whole passes
    # and the median of three back-to-back runs remove both.
    repeats = 3
    whole_passes = True
    corpus = ("algebras.veq", "cats.veq", "finset.veq", "groups.veq",
              "series.veq", "theories.veq")

    def generate(self, rng):
        spec = importlib.util.spec_from_file_location(
            "cli_manifest", self.root / "tests" / "cli_manifest.py")
        manifest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(manifest)
        golden = self.root / "tests" / "golden"
        return [
            Query(i, "cli", {"name": name, "argv": list(argv), "exit": code,
                             "golden": (golden / f"{name}.txt").read_text()}, "cli")
            for i, (name, argv, code) in enumerate(manifest.GOLDEN_COMMANDS)
        ]

    def run(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(q.data["argv"]))
        return code, out.getvalue()

    def check(self, q, answer):
        ok = answer == (q.data["exit"], q.data["golden"])
        return ok, True, ok


WORKLOADS = {w.name: w for w in (Varieties, Proofs, Series, Cli)}
