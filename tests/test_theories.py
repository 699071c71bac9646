import itertools
import random

import pytest

from term_helpers import is_idempotent, subterms, term_depth
from veq import theories as th
from veq.errors import BudgetInvalid, NotParallel, SignatureMismatch, SourceMismatch
from veq.theories import App, Budget, Signature, TheoryPresentation, Var

x, y, z = Var(0), Var(1), Var(2)


def mul(a, b):
    return App("mul", (a, b))


def inv(a):
    return App("inv", (a,))


E = App("e")

MONOID = TheoryPresentation(
    "monoid",
    Signature((("mul", 2), ("e", 0))),
    (
        (mul(mul(x, y), z), mul(x, mul(y, z))),
        (mul(E, x), x),
        (mul(x, E), x),
    ),
)

GROUP = TheoryPresentation(
    "group",
    Signature((("mul", 2), ("inv", 1), ("e", 0))),
    MONOID.axioms
    + (
        (mul(x, inv(x)), E),
        (mul(inv(x), x), E),
    ),
)

UNIF_SIG = Signature((("f", 2), ("g", 1), ("a", 0), ("b", 0)))


def test_substitute():
    assert th.substitute(x, {0: App("a")}) == App("a")
    theta = {0: App("a"), 1: App("b")}
    assert th.substitute(App("f", (x, App("b"))), theta) == App("f", (App("a"), App("b")))
    t = mul(x, y)
    assert th.substitute(t, {}) == t


def test_unify_pins_the_classic_example():
    t1 = App("f", (x, App("b")))
    t2 = App("f", (App("a"), y))
    theta = th.unify(t1, t2)
    assert theta == {0: App("a"), 1: App("b")}
    assert th.substitute(t1, theta) == th.substitute(t2, theta)
    assert is_idempotent(theta)


def test_unify_trivial_and_occurs():
    assert th.unify(x, x) == {}
    assert th.unify(x, App("g", (x,))) is None
    assert th.unify(App("a"), App("b")) is None


def enumerate_terms(sig: Signature, n_vars: int, depth: int):
    level = [Var(i) for i in range(n_vars)]
    out = list(level)
    for _ in range(depth):
        new = []
        for name, ar in sig.ops:
            for args in itertools.product(out, repeat=ar):
                t = App(name, args)
                if t not in out and t not in new and term_depth(t) <= depth:
                    new.append(t)
        out.extend(n for n in new if n not in out)
    return out


def unification_corpus():
    terms = enumerate_terms(Signature((("f", 2), ("a", 0), ("b", 0))), 2, 2)
    return [(t1, t2) for t1 in terms for t2 in terms]


def test_unify_soundness_and_idempotence_on_corpus():
    for t1, t2 in unification_corpus():
        theta = th.unify(t1, t2)
        if theta is None:
            continue
        assert th.substitute(t1, theta) == th.substitute(t2, theta)
        assert is_idempotent(theta)
        assert set(theta) <= th.term_vars(t1) | th.term_vars(t2)


def test_unify_most_general_against_enumerated_unifiers():
    # every enumerated unifier u at depth <= 3 factors through the mgu: u = u o theta
    sig = Signature((("f", 2), ("a", 0), ("b", 0)))
    ground_pool = enumerate_terms(sig, 0, 2)
    pairs = [
        (App("f", (x, App("b"))), App("f", (App("a"), y))),
        (App("f", (x, y)), App("f", (y, x))),
        (App("f", (x, x)), App("f", (y, App("b")))),
    ]
    for t1, t2 in pairs:
        theta = th.unify(t1, t2)
        assert theta is not None
        vs = sorted(th.term_vars(t1) | th.term_vars(t2))
        for images in itertools.product(ground_pool, repeat=len(vs)):
            u = dict(zip(vs, images))
            if th.substitute(t1, u) != th.substitute(t2, u):
                continue
            for v in vs:
                assert th.substitute(th.substitute(Var(v), theta), u) == th.substitute(
                    Var(v), u
                )


def test_congruent_reflexive():
    res = th.congruent(MONOID, mul(x, y), mul(x, y))
    assert res.provable and res.certificate == ()


def test_congruent_direct_axiom_instance():
    res = th.congruent(GROUP, mul(x, inv(x)), E, Budget(steps=200))
    assert res.provable
    assert th.replay_certificate(GROUP, mul(x, inv(x)), E, res.certificate)


def test_congruent_commutative_monoid_consequence():
    cm, _ = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])
    lhs, rhs = mul(mul(x, y), z), mul(y, mul(x, z))
    res = th.congruent(cm, lhs, rhs, Budget(steps=10_000))
    assert res.provable
    assert th.replay_certificate(cm, lhs, rhs, res.certificate)


def test_congruent_unknown_stays_unknown():
    free = TheoryPresentation("free", Signature((("f", 2),)), ())
    res = th.congruent(free, App("f", (x, y)), App("f", (y, x)), Budget(steps=50))
    assert res.status == "unknown"
    assert res.certificate is None


def test_congruent_rejects_bad_budget():
    with pytest.raises(BudgetInvalid):
        th.congruent(MONOID, x, x, Budget(steps=0))


def test_certificate_replay_rejects_tampering():
    res = th.congruent(GROUP, mul(x, inv(x)), E, Budget(steps=200))
    assert res.provable and len(res.certificate) >= 1
    bad = (th.ProofStep(res.certificate[0].position, res.certificate[0].axiom,
                        res.certificate[0].subst, not res.certificate[0].forward),)
    assert not th.replay_certificate(GROUP, mul(x, inv(x)), E, bad + res.certificate[1:])


def test_quotient_theory_shape():
    cm, m = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])
    assert cm.axioms == MONOID.axioms + ((mul(x, y), mul(y, x)),)
    # canonical morphism is identity on symbols, hence full: syntax fixed pointwise
    for t in enumerate_terms(MONOID.signature, 2, 2):
        assert m.apply(t) == t
    assert th.congruent(cm, mul(x, y), mul(y, x), Budget(steps=100)).provable

    same, m0 = th.quotient_theory(MONOID, [])
    assert same.axioms == MONOID.axioms


def test_quotient_abelian_group_consequence():
    ab, _ = th.quotient_theory(GROUP, [(mul(x, y), mul(y, x))])
    lhs = mul(mul(x, y), inv(x))
    res = th.congruent(ab, lhs, y, Budget(steps=10_000))
    assert res.provable
    assert th.replay_certificate(ab, lhs, y, res.certificate)


FREE_BIN = TheoryPresentation("freebin", Signature((("b", 2),)), ())


def binmor(image):
    return th.TheoryMorphismData(FREE_BIN, MONOID, (("b", image),))


def test_general_cosolution_theories_commutativity():
    P = binmor(mul(x, y))
    Q = binmor(mul(y, x))
    T2, M = th.general_cosolution_theories([(P, Q)])
    assert (mul(x, y), mul(y, x)) in T2.axioms
    # M coequalizes on the generator
    comp_p = M.apply(P.apply(App("b", (x, y))))
    comp_q = M.apply(Q.apply(App("b", (x, y))))
    assert th.congruent(T2, comp_p, comp_q, Budget(steps=100)).provable


def test_general_cosolution_trivial_pair():
    P = binmor(mul(x, y))
    T2, M = th.general_cosolution_theories([(P, P)])
    assert T2.axioms == MONOID.axioms


def test_general_cosolution_rejects_mixed_targets():
    P = binmor(mul(x, y))
    Q = th.TheoryMorphismData(FREE_BIN, GROUP, (("b", mul(x, y)),))
    with pytest.raises(SourceMismatch):
        th.general_cosolution_theories([(P, Q)])


def test_general_cosolution_factorization_through_quotient():
    # any quotient killing the same pair admits the canonical map symbol-wise
    P = binmor(mul(x, y))
    Q = binmor(mul(y, x))
    T2, M = th.general_cosolution_theories([(P, Q)])
    bigger, M2 = th.quotient_theory(
        MONOID, [(mul(x, y), mul(y, x)), (mul(x, x), x)]
    )
    # symbol-wise factorization: images of T2's symbols map to provably equal
    # terms under the candidate cosolution
    for sym, ar in T2.signature.ops:
        t = App(sym, tuple(Var(i) for i in range(ar)))
        assert th.congruent(bigger, M2.apply(t), t, Budget(steps=100)).provable


def test_kernel_pair_membership():
    cm, m = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])
    assert th.kernel_pair_membership(m, mul(x, y), mul(x, y)) == "InKernel"
    assert th.kernel_pair_membership(m, mul(x, y), mul(y, x)) == "InKernel"
    free_id = th.identity_morphism(FREE_BIN)
    assert (
        th.kernel_pair_membership(free_id, App("b", (x, y)), App("b", (y, x)), 100)
        == "Unknown"
    )


def test_is_lawvere_equation():
    P = binmor(mul(x, y))
    Q = binmor(mul(y, x))
    res = th.is_lawvere_equation(P, Q)
    assert res.holds
    # witness: agreement on symmetric source terms, tri-state elsewhere
    assert res.witness.contains(App("b", (x, x)), 100) == "InSubtheory"
    assert res.witness.contains(App("b", (x, y)), 100) == "Unknown"

    same = th.is_lawvere_equation(P, P)
    assert same.holds
    assert same.witness.contains(App("b", (x, y)), 10) == "InSubtheory"

    cm_monoid, _ = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])
    Pc = th.TheoryMorphismData(FREE_BIN, cm_monoid, (("b", mul(x, y)),))
    Qc = th.TheoryMorphismData(FREE_BIN, cm_monoid, (("b", mul(y, x)),))
    assert th.is_lawvere_equation(Pc, Qc).witness.contains(App("b", (x, y)), 500) == "InSubtheory"

    with pytest.raises(NotParallel):
        th.is_lawvere_equation(P, th.TheoryMorphismData(FREE_BIN, GROUP, (("b", mul(x, y)),)))


def test_cowellpoweredness_shadow_interprovable_axioms():
    # two quotients with interprovable extra axioms prove each other's axioms
    q1, _ = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])
    q2, _ = th.quotient_theory(MONOID, [(mul(y, x), mul(x, y))])
    for a, b in q2.axioms:
        assert th.congruent(q1, a, b, Budget(steps=1000)).provable
    for a, b in q1.axioms:
        assert th.congruent(q2, a, b, Budget(steps=1000)).provable


def test_term_validation():
    with pytest.raises(SignatureMismatch):
        th.check_term(MONOID.signature, App("mul", (x,)))
    with pytest.raises(SignatureMismatch):
        th.check_term(MONOID.signature, App("nosuch"))


def test_deep_terms_walk_without_recursion():
    depth = 5000
    deep, twin = x, x
    for _ in range(depth):
        deep, twin = App("f", (deep,)), App("f", (twin,))
    assert deep == twin and hash(deep) == hash(twin)
    assert th.term_size(deep) == depth + 1 and term_depth(deep) == depth
    assert th.term_vars(deep) == {0}
    assert th.print_term(deep) == "f(" * depth + "x0" + ")" * depth
    assert th.substitute(deep, {0: y}) == th.substitute(twin, {0: y}) != deep
    bottom = (0,) * depth
    assert th.subterm_at(th.replace_at(deep, bottom, E), bottom) == E
    assert sum(1 for _ in subterms(deep)) == depth + 1
    th.check_term(Signature((("f", 1),)), deep)
    assert th.unify(deep, y) == {1: deep}
    assert th.unify(deep, th.substitute(twin, {0: y})) == {0: y}


def test_large_variable_index():
    big = Var(10**12)
    t = App("f", (big, x))
    assert th.term_vars(t) == {0, 10**12}
    assert th.substitute(t, {10**12: y}) == App("f", (y, x))
    assert th.unify(t, App("f", (x, x))) == {10**12: x}


# -- the term store of one proof search ----------------------------------------

def test_equal_successors_in_one_search_are_one_object():
    """Every term a search builds goes through its store, so equal
    successors of different frontier terms are one id, and no two ids
    stand for equal terms."""
    store, memo = GROUP._rules[0].copy(), {}
    start = store.add(mul(mul(x, inv(y)), mul(E, mul(y, z))))
    assert store.add(mul(mul(x, inv(y)), mul(E, mul(y, z)))) == start
    seen = {start}
    frontier, duplicates = [start], 0
    for _ in range(3):
        found = []
        for t in frontier:
            for new, *_ in th._rewrites(GROUP._rules, store, t, 16, memo):
                if new in seen:
                    duplicates += 1
                else:
                    seen.add(new)
                    found.append(new)
        frontier = found
    assert duplicates > 1000
    # the store holds one id per key, built from smaller ids, and reads
    # back to pairwise distinct terms
    assert len(store.ids) == len(store.keys) == len(store.sizes)
    terms = [store.term(i) for i in range(len(store.keys))]
    assert len(set(terms)) == len(terms)
    for i, key in enumerate(store.keys):
        assert store.ids[key] == i and all(a < i for a in key[1:])
        assert store.sizes[i] == th.term_size(terms[i])


def random_term(rng, sig, size):
    """A random term over sig with about `size` nodes, variables 0..3."""
    arities = [(s, n) for s, n in sig.ops if n == 0 or size > 1]
    if size <= 1 and rng.random() < 0.7:
        return Var(rng.randrange(4))
    symbol, n = rng.choice(arities)
    return App(symbol, tuple(random_term(rng, sig, (size - 1) // max(n, 1))
                             for _ in range(n)))


CMONOID = th.quotient_theory(MONOID, [(mul(x, y), mul(y, x))])[0]


@pytest.mark.parametrize("theory", [MONOID, CMONOID, GROUP], ids=lambda T: T.name)
def test_term_store_round_trip(theory):
    rng = random.Random(5)
    seed = theory._rules[0]
    seeded = len(seed.keys)
    store = seed.copy()
    for _ in range(200):
        t = random_term(rng, theory.signature, rng.randrange(1, 16))
        i = store.add(t)
        back = store.term(i)
        assert back == t and hash(back) == hash(t) and repr(back) == repr(t)
        assert store.add(back) == i and store.sizes[i] == th.term_size(t)
    # searches copy the theory's seed store and never grow it
    assert len(seed.keys) == seeded and len(store.keys) > seeded


def test_certificate_binding_holds_a_deep_term():
    T = TheoryPresentation("fgh", Signature((("f", 1), ("h", 1), ("g", 1), ("a", 0))),
                           ((App("f", (x,)), App("h", (x,))),))
    deep = chain(600, App("a"), "g")
    lhs, rhs = App("f", (deep,)), App("h", (deep,))
    res = th.congruent(T, lhs, rhs, Budget(steps=2, max_term_size=602))
    assert res.certificate == (th.ProofStep((), 0, ((0, deep),), True),)
    assert th.replay_certificate(T, lhs, rhs, res.certificate)


def test_replay_rejects_an_axiom_that_does_not_exist():
    lhs = mul(E, x)
    good = th.ProofStep((), 1, ((0, x),), True)
    assert th.replay_certificate(MONOID, lhs, x, (good,))
    for axiom in (-2, 99):
        step = th.ProofStep((), axiom, ((0, x),), True)
        assert not th.replay_certificate(MONOID, lhs, x, (step,))


def test_replay_rejects_a_position_that_does_not_exist():
    lhs, rhs = inv(mul(E, x)), inv(x)
    assert th.replay_certificate(MONOID, lhs, rhs, (th.ProofStep((0,), 1, ((0, x),), True),))
    for position in ((1,), (0, 0, 0), (-1,)):
        step = th.ProofStep(position, 1, ((0, x),), True)
        assert not th.replay_certificate(MONOID, lhs, rhs, (step,))


def chain(depth, leaf, symbol="f"):
    for _ in range(depth):
        leaf = App(symbol, (leaf,))
    return leaf


def test_congruent_on_a_2000_deep_endpoint():
    T = TheoryPresentation("fab", Signature((("f", 1), ("a", 0), ("b", 0))),
                           ((App("f", (App("a"),)), App("b")),))
    lhs, rhs = chain(2000, App("a")), chain(1999, App("b"))
    res = th.congruent(T, lhs, rhs, Budget(steps=10, max_term_size=4096))
    assert res.provable and res.expansions == 1
    assert res.certificate == (th.ProofStep((0,) * 1999, 0, (), True),)
    assert th.replay_certificate(T, lhs, rhs, res.certificate)
    # at the default size cap no successor of either endpoint fits
    assert th.congruent(T, lhs, rhs) == th.CongruenceResult("unknown", None, 2)
    deep = x
    for _ in range(2000):
        deep = mul(deep, y)
    assert th.congruent(MONOID, mul(E, deep), deep, 3).status == "unknown"
