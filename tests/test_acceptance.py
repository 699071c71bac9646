"""Acceptance suite: nine pinned criteria, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every comparison is exact (Fraction arithmetic or label equality); there are
no tolerances anywhere in this file.
"""

import itertools
import os
import random
from fractions import Fraction

import pytest

from cli_manifest import GOLDEN_COMMANDS
from group_oracle import (
    algebra_to_group,
    oracle_centralizer,
    oracle_commutator_subgroup,
    oracle_is_abelian,
)
from poset_oracle import random_galois_instance
from term_helpers import compose_subst, is_idempotent
from veq import birkhoff, cats, cli, dsl
from veq import finset as fs
from veq import groups as grp
from veq import inserters as insr
from veq import posets as po
from veq import series as ser
from veq.algebras import (
    congruences,
    find_alg_isomorphism,
    make_algebra,
    product_algebra,
    quotient_algebra,
    satisfies,
    sub_algebra,
    subalgebras,
    term_function,
)
from veq.equations import (
    Equation,
    EquationSystem,
    act,
    general_solution,
    generated_equation,
    generated_variety,
    implies,
    is_solution,
    leq,
    single_equation_reduction,
)
from veq.errors import InvariantError, PrecisionExhausted
from veq.instances import FinPosetCat, FinSetCat
from veq.series import (
    OP_D,
    OP_ID,
    Nonzero,
    TruncatedSeries,
    ZeroWithinPrecision,
    is_linear_recurrence,
    op_const,
    op_mul,
    recurrence_equivalence_check,
    wronskian_monotonicity_check,
)
from veq.theories import (
    App,
    Budget,
    Signature,
    Var,
    congruent,
    print_term,
    quotient_theory,
    replay_certificate,
    substitute,
    unify,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SC, PC = FinSetCat(), FinPosetCat()


def _corpus(name):
    return os.path.join(ROOT, "corpus", name)


def _report(num, label, body):
    try:
        body()
    except BaseException:
        print(f"acceptance {num} ({label}): FAIL")
        raise
    print(f"acceptance {num} ({label}): PASS")


# --- 1: the equation calculus over finite sets ------------------------------


def _random_system(rng, max_size=5, max_eqs=3):
    dom = fs.finset(*[f"a{i}" for i in range(rng.randint(1, max_size))])
    eqs = []
    for _ in range(rng.randint(1, max_eqs)):
        cod = fs.finset(*[f"b{i}" for i in range(rng.randint(1, max_size))])
        p = fs.FinFunction(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))
        q = fs.FinFunction(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))
        eqs.append(Equation(p, q))
    return EquationSystem(SC, tuple(eqs))


def _brute_elements(E):
    return tuple(
        x for x in E.domain.elements
        if all(eq.lhs(x) == eq.rhs(x) for eq in E.equations)
    )


def test_criterion_1_finite_set_calculus():
    def body():
        rng = random.Random(101)
        systems = [_random_system(rng) for _ in range(220)]

        # general solution is exactly the brute-force filter
        for E in systems:
            assert general_solution(E).carrier.elements == _brute_elements(E)

        # every solution factors through the general one exactly once
        for E in systems[:60]:
            v = general_solution(E)
            for xsize in (1, 2):
                X = fs.finset(*[f"x{i}" for i in range(xsize)])
                for a in SC.hom(X, E.domain):
                    if not is_solution(a, E):
                        continue
                    mediators = [
                        u for u in SC.hom(X, v.carrier)
                        if fs.compose(v.inclusion, u) == a
                    ]
                    assert len(mediators) == 1

        # acting by g transports solutions: a solves E.g iff g(a) solves E
        for E in systems[:40]:
            G = fs.finset("g0", "g1")
            for g in SC.hom(G, E.domain)[:6]:
                Eg = act(E, g)
                X = fs.finset("x")
                for a in SC.hom(X, G):
                    assert is_solution(a, Eg) == is_solution(fs.compose(g, a), E)

        # acting preserves implication; acting by the general solution
        # trivializes every equation
        found = 0
        i = 0
        while found < 15:
            E, K = systems[i], systems[i + 1]
            i += 1
            if K.domain != E.domain or not implies(E, K):
                continue
            found += 1
            G = fs.finset("g0", "g1", "g2")
            for g in SC.hom(G, E.domain)[:6]:
                assert implies(act(E, g), act(K, g))
        for E in systems[:40]:
            Ev = act(E, general_solution(E).inclusion)
            assert all(SC.morphisms_equal(eq.lhs, eq.rhs) for eq in Ev.equations)

        # implication is reflexive and coincides with solution-set inclusion
        count = 0
        i = 0
        while count < 40:
            E, K = systems[i], systems[i + 1]
            i += 1
            assert implies(E, E)
            if K.domain != E.domain:
                continue
            count += 1
            expected = set(_brute_elements(E)) <= set(_brute_elements(K))
            assert implies(E, K) == expected

        # the one-equation reduction has the same solutions as the system
        for E in systems[:40]:
            red = EquationSystem(SC, (single_equation_reduction(E),))
            assert _brute_elements(red) == _brute_elements(E)
            X = fs.finset("x", "y")
            for a in SC.hom(X, E.domain)[:10]:
                assert is_solution(a, E) == is_solution(a, red)

        # the generated equation is solved by its generators and implies
        # every equation all of them solve
        for n in range(10):
            A = fs.finset(*[f"a{i}" for i in range(rng.randint(1, 4))])
            x = fs.finset("x")
            S = [
                fs.fin_function(x, A, {"x": rng.choice(A.elements)})
                for _ in range(rng.randint(1, 3))
            ]
            p_q = generated_equation(SC, S)
            gen = EquationSystem(SC, (p_q,))
            for f in S:
                assert SC.morphisms_equal(
                    SC.compose(p_q.lhs, f), SC.compose(p_q.rhs, f))
            B = fs.finset("0", "1")
            for r in SC.hom(A, B):
                for s in SC.hom(A, B):
                    if all(fs.compose(r, f) == fs.compose(s, f) for f in S):
                        assert implies(gen, EquationSystem(SC, (Equation(r, s),)))

        # pulling the general solution back along any map lands on the
        # general solution of the acted system
        for E in systems[:25]:
            A2 = fs.finset("u", "v", "w")
            for f in SC.hom(A2, E.domain)[:8]:
                to_dom, _ = SC.pullback(f, general_solution(E).inclusion)
                direct = general_solution(act(E, f))
                assert set(to_dom.image()) == set(direct.carrier.elements)

        # the generated variety agrees with both characterizations: the
        # intersection of the subobjects the generators factor through, and
        # the union of their images
        for n in range(20):
            A = fs.finset(*[f"a{i}" for i in range(rng.randint(1, 4))])
            S = []
            for _ in range(rng.randint(1, 3)):
                X = fs.finset(*[f"x{i}" for i in range(rng.randint(1, 3))])
                S.append(fs.FinFunction(
                    X, A, tuple(rng.choice(A.elements) for _ in X)))
            v = generated_variety(SC, S)
            union = set().union(*[set(f.image()) for f in S])
            meet = set(A.elements)
            for r in range(len(A) + 1):
                for combo in itertools.combinations(A.elements, r):
                    if all(set(f.image()) <= set(combo) for f in S):
                        meet &= set(combo)
            assert set(v.carrier.elements) == union == meet
            for f in S:
                assert leq(f, v.inclusion, SC).holds

    _report(1, "finite-set equation calculus", body)


# --- 2: group centralizers and abelianizations ------------------------------


def _isomorphic(G, H) -> bool:
    return find_alg_isomorphism(G, H) is not None


def test_criterion_2_groups():
    def body():
        corpus = grp.corpus()
        assert len(corpus) == 14
        rng = random.Random(202)
        for name in sorted(corpus):
            G, O = corpus[name], algebra_to_group(corpus[name])
            subsets = [[g] for g in G.carrier.elements]
            subsets.append(list(rng.sample(G.carrier.elements, min(2, len(G)))))
            for S in subsets:
                got = birkhoff.centralizer(G, S)
                assert set(got.carrier.elements) == set(oracle_centralizer(O, S))

            ab = birkhoff.abelianization(G)
            comm = oracle_commutator_subgroup(O)
            Q, proj = grp.quotient_group(G, comm)
            assert ab.is_surjective()
            assert oracle_is_abelian(algebra_to_group(ab.cod))
            kernel = {g for g in G.carrier.elements if ab(g) == grp.identity(ab.cod)}
            assert kernel == set(comm)
            assert _isomorphic(ab.cod, Q)

        s3_ab = birkhoff.abelianization(corpus["S3"]).cod
        q8_ab = birkhoff.abelianization(corpus["Q8"]).cod
        assert len(s3_ab) == 2
        assert _isomorphic(s3_ab, corpus["C2"])
        assert len(q8_ab) == 4
        assert _isomorphic(q8_ab, corpus["V4"])

    _report(2, "group centralizer and abelianization", body)


# --- 3: syntactic unification ------------------------------------------------


def _terms_up_to_depth(depth, vars_, consts, binary):
    layers = [[Var(i) for i in range(vars_)] + [App(c, ()) for c in consts]]
    for _ in range(depth - 1):
        pool = [t for layer in layers for t in layer]
        layers.append([App(binary, (s, t)) for s in pool for t in pool])
    out = []
    seen = set()
    for layer in layers:
        for t in layer:
            if t not in seen:
                seen.add(t)
                out.append(t)
    return out


def _random_term(rng, depth, vars_):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return Var(rng.randrange(vars_))
        return App(rng.choice(["a", "b"]), ())
    return App("f", (_random_term(rng, depth - 1, vars_),
                     _random_term(rng, depth - 1, vars_)))


def test_criterion_3_unification():
    def body():
        a, b = App("a", ()), App("b", ())
        x, y = Var(0), Var(1)
        t1 = App("f", (x, b))
        t2 = App("f", (a, y))
        theta = unify(t1, t2)
        assert theta == {0: a, 1: b}
        assert substitute(t1, theta) == substitute(t2, theta)

        # idempotence over a random pair corpus
        rng = random.Random(303)
        unified = 0
        for _ in range(300):
            s = _random_term(rng, 3, 3)
            t = _random_term(rng, 3, 3)
            sub = unify(s, t)
            if sub is None:
                continue
            unified += 1
            assert is_idempotent(sub)
            assert compose_subst(sub, sub) == sub
            assert substitute(s, sub) == substitute(t, sub)
        assert unified >= 30

        # most generality against every enumerated unifier of bounded depth:
        # a unifier sigma of an idempotent mgu theta satisfies sigma = sigma.theta
        pool = _terms_up_to_depth(3, 2, ["a", "b"], "f")
        pairs = [
            (App("f", (x, b)), App("f", (a, y))),
            (App("f", (x, y)), App("f", (y, x))),
            (App("f", (x, b)), App("f", (y, y))),
        ]
        for s, t in pairs:
            theta = unify(s, t)
            assert theta is not None and is_idempotent(theta)
            hits = 0
            for img0 in pool:
                for img1 in pool:
                    sigma = {0: img0, 1: img1}
                    if substitute(s, sigma) != substitute(t, sigma):
                        continue
                    hits += 1
                    for v in (0, 1):
                        assert substitute(theta.get(v, Var(v)), sigma) == \
                            sigma.get(v, Var(v))
            assert hits >= 1

    _report(3, "most general unifiers", body)


# --- 4: quotient theories ----------------------------------------------------


MONOID_CONSEQUENCES = [
    "m(m(x,y),z) ~ m(y,m(x,z))",
    "m(x,m(y,z)) ~ m(z,m(x,y))",
    "m(m(x,y),z) ~ m(m(y,z),x)",
    "m(e,x) ~ m(x,e)",
    "m(m(x,e),y) ~ m(y,x)",
    "m(x,m(e,y)) ~ m(y,x)",
    "m(e,m(e,x)) ~ x",
    "m(m(x,y),e) ~ m(y,x)",
    "m(m(e,x),m(y,e)) ~ m(x,y)",
    "m(m(x,y),m(z,w)) ~ m(m(w,z),m(y,x))",
]


def test_criterion_4_theory_quotients():
    def body():
        ws = dsl.parse_files([_corpus("theories.veq")])
        Mon = ws.get("theory", "Mon")
        ax = lambda s: dsl.parse_axiom_text(s, Mon.signature)
        budget = Budget(steps=10_000)

        CMon, canon = quotient_theory(Mon, [ax("m(x,y) ~ m(y,x)")])
        assert len(MONOID_CONSEQUENCES) == 10
        for text in MONOID_CONSEQUENCES:
            l, r = ax(text)
            res = congruent(CMon, l, r, budget)
            assert res.provable, text
            assert replay_certificate(CMon, l, r, res.certificate)

        # the canonical morphism into the quotient maps every symbol to
        # itself applied to fresh variables: full and bijective on objects
        assert canon.source is Mon and canon.target is CMon
        for sym, arity in Mon.signature.ops:
            assert canon.image_of(sym) == App(
                sym, tuple(Var(i) for i in range(arity)))

        # interprovable axiom sets give isomorphic quotients
        Q1, _ = quotient_theory(Mon, [ax("m(x,y) ~ m(y,x)")], name="Q1")
        Q2, _ = quotient_theory(
            Mon, [ax("m(x,m(y,z)) ~ m(y,m(x,z))")], name="Q2")
        for Qa, Qb in ((Q1, Q2), (Q2, Q1)):
            for l, r in Qb.axioms:
                assert congruent(Qa, l, r, budget).provable

    _report(4, "theory quotients by added axioms", body)


# --- 5: variety membership for finite algebras -------------------------------


ONE_BINARY = Signature((("mul", 2),))


def _algebra_from_flat(size, flat, name="A"):
    elems = [str(i) for i in range(size)]
    table = {}
    for k, (i, j) in enumerate(itertools.product(range(size), repeat=2)):
        table[(str(i), str(j))] = str(flat[k])
    return make_algebra(name, ONE_BINARY, elems,
                        {"mul": lambda p, q, t=table: t[(p, q)]})


def _canonical_flat(size, flat):
    cells = list(itertools.product(range(size), repeat=2))
    best = None
    for perm in itertools.permutations(range(size)):
        inv = [0] * size
        for i, pi in enumerate(perm):
            inv[pi] = i
        out = tuple(
            perm[flat[cells.index((inv[i], inv[j]))]] for i, j in cells
        )
        if best is None or out < best:
            best = out
    return best


def _identity_pool():
    layer0 = [Var(0), Var(1)]
    layer1 = [App("mul", (s, t)) for s in layer0 for t in layer0]
    pool01 = layer0 + layer1
    seen = set(pool01)
    layer2 = []
    for s in pool01:
        for t in pool01:
            cand = App("mul", (s, t))
            if cand not in seen:
                seen.add(cand)
                layer2.append(cand)
    return pool01 + layer2


def _term_partition(A, terms):
    groups = {}
    for idx, t in enumerate(terms):
        groups.setdefault(term_function(A, t, 2), []).append(idx)
    return tuple(sorted(tuple(g) for g in groups.values()))


def _coarsens(A_partition, C, terms):
    for group in A_partition:
        if len(group) == 1:
            continue
        first = term_function(C, terms[group[0]], 2)
        for idx in group[1:]:
            if term_function(C, terms[idx], 2) != first:
                return False
    return True


@pytest.mark.slow
def test_criterion_5_variety_membership():
    def body():
        ws = dsl.parse_files([_corpus("algebras.veq")])
        meet2 = ws.get("algebra", "Meet2")
        chain3 = ws.get("algebra", "Chain3")
        flip2 = ws.get("algebra", "Flip2")

        rendered = {
            f"{print_term(i.lhs)} ~ {print_term(i.rhs)}"
            for i in birkhoff.identities_of(meet2, 2, 2)
        }
        both_ways = rendered | {
            " ~ ".join(reversed(s.split(" ~ "))) for s in rendered
        }
        assert "mul(x0,x1) ~ mul(x1,x0)" in both_ways
        assert "x0 ~ mul(x0,x0)" in both_ways

        res = birkhoff.hsp_member(chain3, meet2)
        assert res.yes and res.witness.k == 2
        assert birkhoff.replay_hsp_witness(chain3, meet2, res.witness)

        rej = birkhoff.hsp_member(flip2, meet2)
        assert rej.status == "NoWithinBounds"
        cert = rej.violated_identity
        assert cert is not None
        assert satisfies(meet2, cert) and not satisfies(flip2, cert)

        # identity transport over every algebra of size <= 3 with one binary
        # operation: identities survive into subalgebras, quotients, and the
        # square. Constructions run once per isomorphism-class representative;
        # a full sweep then pins every member's identity set to its
        # representative's, so no table is skipped.
        terms = _identity_pool()
        partitions = {}
        for size in (1, 2, 3):
            reps = {}
            for flat in itertools.product(range(size), repeat=size * size):
                canon = _canonical_flat(size, flat)
                reps.setdefault(canon, []).append(flat)
            for canon, members in reps.items():
                A = _algebra_from_flat(size, canon)
                part = _term_partition(A, terms)
                partitions[(size, canon)] = part
                for S, _inc in subalgebras(A):
                    assert _coarsens(part, S, terms)
                for theta in congruences(A):
                    Q, _ = quotient_algebra(A, theta)
                    assert _coarsens(part, Q, terms)
                square = product_algebra([A, A]).obj
                assert _coarsens(part, square, terms)
                for flat in members:
                    if flat == canon:
                        continue
                    B = _algebra_from_flat(size, flat)
                    assert _term_partition(B, terms) == part

    _report(5, "finite variety membership", body)


# --- 6: pair categories and their forgetful functors -------------------------


def test_criterion_6_inserters():
    def body():
        ws = dsl.parse_files([_corpus("cats.veq")])
        functors = [ws.get("functor", n)
                    for _, n in ws.order if _ == "functor"]
        pairs = [
            (F, G) for F in functors for G in functors
            if F.source is G.source and F.target is G.target
        ]
        assert len(pairs) >= 9
        for F, G in pairs:
            r = insr.inserter(F, G)
            flags = insr.verify_forgetful(r.forgetful)
            assert all(flags.values()), flags
            report = insr.limit_creation_report(F, G)
            for entry in report.values():
                if entry["hypothesis"]:
                    assert entry["created"] is True

        rng = random.Random(606)
        lim_hits = 0
        for n in range(50):
            A, B, G, H = random_galois_instance(rng)
            adj = po.adjunction_from_galois(H, G)
            F = po.to_functor(rng.choice(PC.hom(A, B)))

            r = insr.inserter(F, adj.right)
            flags = insr.verify_forgetful(r.forgetful)
            assert all(flags.values()), flags

            there, back = insr.shift_left(F, adj.right, adj)
            assert cats.functors_equal(
                cats.compose_functors(back, there),
                cats.identity_functor(there.source))
            assert cats.functors_equal(
                cats.compose_functors(there, back),
                cats.identity_functor(there.target))

            second = po.to_functor(rng.choice(PC.hom(B, A)))
            there2, back2 = insr.shift_right(adj.left, second, adj)
            assert cats.functors_equal(
                cats.compose_functors(back2, there2),
                cats.identity_functor(there2.source))
            assert cats.functors_equal(
                cats.compose_functors(there2, back2),
                cats.identity_functor(there2.target))

            if n < 12:
                report = insr.limit_creation_report(F, adj.right)
                for entry in report.values():
                    if entry["hypothesis"]:
                        assert entry["created"] is True
                        lim_hits += 1
        assert lim_hits > 0

    _report(6, "pair categories and shifts", body)


# --- 7: algebras over a signature as a pair category -------------------------


def test_criterion_7_signature_algebras():
    def body():
        no_ops = insr.SortedSignature(("s",), ())
        unary = insr.SortedSignature(("s",), (("u", ("s",), "s"),))
        binary = insr.SortedSignature(("s",), (("mul", ("s", "s"), "s"),))
        for sig in (no_ops, unary, binary):
            report = insr.sigma_alg_as_inserter(sig, 2)
            assert report["matched"] is True
            assert report["object_count"] == len(report["ins_category"].objects)
            assert report["morphism_count"] == len(report["ins_category"].morphisms)
        # one carrier of each size 0..2, one binary table per choice
        rep = insr.sigma_alg_as_inserter(binary, 2)
        assert rep["object_count"] == 1 + 1 + 16

    _report(7, "signature algebras as pairs", body)


# --- 8: truncated series and recurrence detection ----------------------------


def _oracle_has_recurrence(f, order):
    """Exact Gaussian elimination: does a nonzero coefficient vector
    (a_0..a_order) satisfy sum a_i f_{k+i} = 0 on the whole window?"""
    rows = [
        [f.coeffs[k + i] for i in range(order + 1)]
        for k in range(f.precision - order)
    ]
    cols = order + 1
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank < cols


def test_criterion_8_series():
    def body():
        ws = dsl.parse_files([_corpus("series.veq")])
        names = [n for _, n in ws.order]
        corpus = {n: ws.get("series", n) for n in names}
        fib = corpus["fib"]
        assert fib.precision == 64
        assert is_linear_recurrence(fib, 2) == ZeroWithinPrecision(60)
        assert is_linear_recurrence(fib, 1) == Nonzero(0)

        squares = TruncatedSeries(tuple(
            Fraction(2) ** (k * k) for k in range(32)))
        assert isinstance(is_linear_recurrence(squares, 1), Nonzero)
        assert isinstance(is_linear_recurrence(squares, 2), Nonzero)

        rng = random.Random(808)
        for n in range(100):
            if n % 2 == 0:
                coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
                if all(c == 0 for c in coeffs):
                    coeffs[0] = Fraction(1)
                inits = [Fraction(rng.randint(-4, 4)) for _ in coeffs]
                f = ser.from_recurrence(inits, coeffs, 24)
                vec = coeffs + [Fraction(-1)]
                assert recurrence_equivalence_check(f, vec) is True
            else:
                f = TruncatedSeries(tuple(
                    Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(6, 20))))
                vec = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))]
                if all(c == 0 for c in vec):
                    vec[-1] = Fraction(1)
                recurrence_equivalence_check(f, vec)

        op_sets = [
            (OP_ID, OP_D),
            (OP_ID, op_mul(op_const(2), OP_ID), OP_D),
            (OP_D, op_mul(OP_ID, OP_ID)),
        ]
        for f in corpus.values():
            for ops in op_sets:
                try:
                    verdictes = wronskian_monotonicity_check(ops, f)
                except PrecisionExhausted:
                    continue
                assert verdictes["counterexample_at_precision"] is False

        for f in corpus.values():
            for order in range(4):
                try:
                    verdict = is_linear_recurrence(f, order)
                except PrecisionExhausted:
                    continue
                found = isinstance(verdict, ZeroWithinPrecision)
                assert found == _oracle_has_recurrence(f, order), (f, order)

    _report(8, "series recurrence detection", body)


# --- 9: command-line surface --------------------------------------------------


def test_criterion_9_cli(capsys, monkeypatch):
    def body():
        monkeypatch.chdir(ROOT)
        monkeypatch.delenv("VEQ_BUDGET", raising=False)
        golden_dir = os.path.join(ROOT, "tests", "golden")
        observed = set()
        for name, argv, want_exit in GOLDEN_COMMANDS:
            code = cli.main(list(argv))
            out = capsys.readouterr().out
            with open(os.path.join(golden_dir, name + ".txt")) as fh:
                assert out == fh.read(), name
            assert code == want_exit, name
            observed.add(code)

        for fname in sorted(os.listdir(os.path.join(ROOT, "corpus"))):
            with open(os.path.join(ROOT, "corpus", fname)) as fh:
                src = fh.read()
            ws = dsl.parse(src, where=fname)
            printed = dsl.print_workspace(ws)
            assert dsl.parse(printed, where="<printed>") == ws

        assert cli.main(["frobnicate"]) == 2
        assert cli.main(["solve", "Nope", "-f", "corpus/finset.veq"]) == 2
        observed.add(2)

        def boom(ws, args, opts):
            raise InvariantError("synthetic breakage")

        monkeypatch.setitem(cli.HANDLERS, "genvar", boom)
        assert cli.main(["genvar", "good", "-f", "corpus/finset.veq"]) == 3
        observed.add(3)
        capsys.readouterr()
        assert observed == {0, 1, 2, 3}

    _report(9, "command-line golden outputs", body)
