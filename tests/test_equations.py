import random

import pytest

from veq import finset as fs
from veq import groups as grp
from veq.equations import (
    CoEquationSystem,
    CompCategory,
    Equation,
    EquationSystem,
    act,
    general_cosolution,
    general_solution,
    generated_equation,
    generated_variety,
    implies,
    is_solution,
    leq,
    single_equation_reduction,
)
from veq.errors import (
    CapabilityMissing,
    CodMismatch,
    DomainMismatch,
    EmptyList,
    NotParallel,
    TargetMismatch,
)
from veq.instances import FinGrpCat, FinSetCat

SC = FinSetCat()
GC = FinGrpCat()


def random_system(rng, max_size=4, max_eqs=3):
    dom = fs.finset(*[f"a{i}" for i in range(rng.randint(1, max_size))])
    eqs = []
    for _ in range(rng.randint(1, max_eqs)):
        cod = fs.finset(*[f"b{i}" for i in range(rng.randint(1, max_size))])
        p = fs.FinFunction(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))
        q = fs.FinFunction(dom, cod, tuple(rng.choice(cod.elements) for _ in dom))
        eqs.append(Equation(p, q))
    return EquationSystem(SC, tuple(eqs))


def brute_solution_elements(E):
    """Elements of the domain at which every equation agrees."""
    return tuple(
        x
        for x in E.domain.elements
        if all(eq.lhs(x) == eq.rhs(x) for eq in E.equations)
    )


def test_system_validation():
    A = fs.finset("a", "b")
    B = fs.finset("0", "1")
    p = fs.fin_function(A, B, {"a": "0", "b": "1"})
    with pytest.raises(EmptyList):
        EquationSystem(SC, ())
    q_other = fs.fin_function(B, B, {"0": "0", "1": "1"})
    with pytest.raises(NotParallel):
        EquationSystem(SC, (Equation(p, q_other),))
    r = fs.fin_function(B, B, {"0": "0", "1": "0"})
    with pytest.raises(DomainMismatch):
        EquationSystem(SC, (Equation(p, p), Equation(r, r)))


def test_general_solution_matches_brute_filter():
    rng = random.Random(11)
    for _ in range(60):
        E = random_system(rng)
        v = general_solution(E)
        assert v.carrier.elements == brute_solution_elements(E)


def test_general_solution_factorization_unique():
    rng = random.Random(12)
    for _ in range(25):
        E = random_system(rng, max_size=3, max_eqs=2)
        v = general_solution(E)
        for xsize in (1, 2):
            X = fs.finset(*[f"x{i}" for i in range(xsize)])
            for a in SC.hom(X, E.domain):
                if not is_solution(a, E):
                    continue
                factorizations = [
                    u
                    for u in SC.hom(X, v.carrier)
                    if fs.compose(v.inclusion, u) == a
                ]
                assert len(factorizations) == 1


def test_solutions_of_acted_system_transport():
    # a solves E.g exactly when g(a) solves E, over every enumerable a
    rng = random.Random(13)
    for _ in range(25):
        E = random_system(rng, max_size=3, max_eqs=2)
        Adom = E.domain
        G = fs.finset("g0", "g1")
        for g in SC.hom(G, Adom):
            Eg = act(E, g)
            assert Eg.domain == G
            assert len(Eg.equations) == len(E.equations)
            X = fs.finset("x")
            for a in SC.hom(X, G):
                assert is_solution(a, Eg) == is_solution(fs.compose(g, a), E)


def test_action_preserves_implication():
    rng = random.Random(14)
    checked = 0
    while checked < 12:
        E = random_system(rng, max_size=3, max_eqs=2)
        K = random_system(rng, max_size=3, max_eqs=2)
        if K.domain != E.domain or not implies(E, K):
            continue
        checked += 1
        G = fs.finset("g0", "g1", "g2")
        for g in SC.hom(G, E.domain)[:10]:
            assert implies(act(E, g), act(K, g))


def test_degenerate_after_acting_by_own_solution():
    rng = random.Random(15)
    E = random_system(rng)
    v = general_solution(E)
    Ev = act(E, v.inclusion)
    assert all(SC.morphisms_equal(eq.lhs, eq.rhs) for eq in Ev.equations)


def test_leq_and_implies():
    A = fs.finset("a", "b", "c")
    vac = fs.sub(A, ["a", "c"])
    va = fs.sub(A, ["a"])
    r = leq(va.inclusion, vac.inclusion, SC)
    assert r.holds
    assert fs.compose(vac.inclusion, r.witness) == va.inclusion
    assert not leq(vac.inclusion, va.inclusion, SC).holds
    B = fs.finset("0")
    with pytest.raises(CodMismatch):
        leq(va.inclusion, fs.fin_function(A, B, {x: "0" for x in A.elements}), SC)


def test_implies_matches_subset_of_solution_sets():
    rng = random.Random(16)
    count = 0
    while count < 30:
        E = random_system(rng, max_size=3, max_eqs=2)
        K = random_system(rng, max_size=3, max_eqs=2)
        if K.domain != E.domain:
            continue
        count += 1
        expected = set(brute_solution_elements(E)) <= set(brute_solution_elements(K))
        assert implies(E, K) == expected


def test_single_equation_reduction_preserves_solutions():
    rng = random.Random(17)
    for _ in range(30):
        E = random_system(rng, max_size=3, max_eqs=3)
        red = single_equation_reduction(E)
        E1 = EquationSystem(SC, (red,))
        assert brute_solution_elements(E1) == brute_solution_elements(E)
        X = fs.finset("x", "y")
        for a in SC.hom(X, E.domain)[:12]:
            assert is_solution(a, E) == is_solution(a, E1)


def test_generated_equation_universal():
    A = fs.finset("a", "b", "c")
    x = fs.finset("x")
    S = [fs.fin_function(x, A, {"x": "a"}), fs.fin_function(x, A, {"x": "c"})]
    p_q = generated_equation(SC, S)
    for f in S:
        assert SC.morphisms_equal(
            SC.compose(p_q.lhs, f), SC.compose(p_q.rhs, f)
        )
    # every equation all of S solves is implied by the generated one
    gen_system = EquationSystem(SC, (p_q,))
    B = fs.finset("0", "1")
    for r in SC.hom(A, B):
        for s in SC.hom(A, B):
            if all(fs.compose(r, f) == fs.compose(s, f) for f in S):
                assert implies(gen_system, EquationSystem(SC, (Equation(r, s),)))


def test_generated_equation_epi_gives_degenerate():
    A = fs.finset("a", "b")
    x = fs.finset("x")
    S = [fs.fin_function(x, A, {"x": "a"}), fs.fin_function(x, A, {"x": "b"})]
    p_q = generated_equation(SC, S)
    assert SC.morphisms_equal(p_q.lhs, p_q.rhs)


def test_generated_variety_is_union_of_images():
    A = fs.finset("a", "b", "c")
    x = fs.finset("x")
    picks = [fs.fin_function(x, A, {"x": "a"}), fs.fin_function(x, A, {"x": "c"})]
    v = generated_variety(SC, picks)
    assert v.carrier.elements == ("a", "c")
    m = fs.sub(A, ["b", "c"]).inclusion
    assert generated_variety(SC, [m]).carrier.elements == ("b", "c")


def test_generated_variety_matches_subobject_intersection_oracle():
    import itertools

    rng = random.Random(18)
    for _ in range(15):
        A = fs.finset(*[f"a{i}" for i in range(rng.randint(1, 4))])
        S = []
        for _ in range(rng.randint(1, 3)):
            X = fs.finset(*[f"x{i}" for i in range(rng.randint(1, 3))])
            S.append(
                fs.FinFunction(X, A, tuple(rng.choice(A.elements) for _ in X))
            )
        v = generated_variety(SC, S)
        # oracle: intersect every subobject all of S factor through
        candidates = []
        for r in range(len(A) + 1):
            for combo in itertools.combinations(A.elements, r):
                if all(set(f.image()) <= set(combo) for f in S):
                    candidates.append(set(combo))
        expected = set(A.elements)
        for c in candidates:
            expected &= c
        assert set(v.carrier.elements) == expected


def test_pullback_stability_of_general_solutions():
    rng = random.Random(19)
    for _ in range(25):
        E = random_system(rng, max_size=3, max_eqs=2)
        A2 = fs.finset("u", "v", "w")
        for f in SC.hom(A2, E.domain)[:8]:
            to_f_dom, _ = SC.pullback(f, general_solution(E).inclusion)
            direct = general_solution(act(E, f))
            assert set(to_f_dom.image()) == set(direct.carrier.elements)


def test_factor_of_variety_through_mono_is_variety():
    rng = random.Random(20)
    for _ in range(20):
        E = random_system(rng, max_size=4, max_eqs=2)
        u = general_solution(E)
        # pick a mono v whose image contains the solution set
        extra = [x for x in E.domain.elements if x not in u.carrier.elements]
        rng.shuffle(extra)
        members = sorted(
            set(u.carrier.elements) | set(extra[: rng.randint(0, len(extra))]),
            key=E.domain.elements.index,
        )
        v = fs.sub(E.domain, members)
        w = SC.factor(u, v)
        assert w is not None
        gs = general_solution(act(E, v.inclusion))
        assert set(gs.carrier.elements) == set(w.image())


def test_cosystem_validation_and_cosolution():
    A = fs.finset("a", "b", "c")
    B = fs.finset("0", "1", "2")
    p = fs.fin_function(A, B, {"a": "0", "b": "1", "c": "2"})
    q = fs.fin_function(A, B, {"a": "1", "b": "1", "c": "2"})
    E = CoEquationSystem(SC, (Equation(p, q),))
    c = general_cosolution(E)
    assert fs.compose(c, p) == fs.compose(c, q)
    assert c.is_surjective()
    assert c.cod.elements == ("0", "2")
    # identity cosolution on a degenerate cosystem
    E0 = CoEquationSystem(SC, (Equation(p, p),))
    assert general_cosolution(E0) == fs.identity(B)


def test_cosolution_universal_property():
    rng = random.Random(21)
    for _ in range(20):
        B = fs.finset(*[f"b{i}" for i in range(rng.randint(1, 4))])
        A = fs.finset(*[f"a{i}" for i in range(rng.randint(1, 3))])
        eqs = tuple(
            Equation(
                fs.FinFunction(A, B, tuple(rng.choice(B.elements) for _ in A)),
                fs.FinFunction(A, B, tuple(rng.choice(B.elements) for _ in A)),
            )
            for _ in range(rng.randint(1, 3))
        )
        E = CoEquationSystem(SC, eqs)
        c = general_cosolution(E)
        for eq in eqs:
            assert fs.compose(c, eq.lhs) == fs.compose(c, eq.rhs)
        # every cosolution factors through c, uniquely since c is epi
        X = fs.finset("x0", "x1")
        for a in SC.hom(B, X):
            if all(fs.compose(a, eq.lhs) == fs.compose(a, eq.rhs) for eq in eqs):
                table = {}
                well_defined = True
                for x in B.elements:
                    key = c(x)
                    if key in table and table[key] != a(x):
                        well_defined = False
                    table[key] = a(x)
                assert well_defined
                h = fs.fin_function(c.cod, X, table)
                assert fs.compose(h, c) == a


def test_multi_equation_cosolution_group_instance():
    S3 = grp.corpus()["S3"]
    cosys = CoEquationSystem(
        GC,
        tuple(
            Equation(grp.conjugation_hom(S3, g), GC.identity(S3))
            for g in S3.carrier.elements
        ),
    )
    c = general_cosolution(cosys)
    assert len(c.cod) == 2
    for eq in cosys.equations:
        assert GC.morphisms_equal(GC.compose(c, eq.lhs), GC.compose(c, eq.rhs))


def test_capability_errors():
    class Bare(CompCategory):
        name = "bare"

        def source(self, f):
            return f[0]

        def target(self, f):
            return f[1]

    A = fs.finset("a")
    bare = Bare()
    with pytest.raises(CapabilityMissing):
        bare.equalizer(None, None)
    with pytest.raises(CapabilityMissing):
        bare.coproduct([A])
    with pytest.raises(CapabilityMissing):
        bare.factor(None, None)


def test_precondition_errors():
    A = fs.finset("a", "b")
    B = fs.finset("0")
    p = fs.fin_function(A, B, {"a": "0", "b": "0"})
    E = EquationSystem(SC, (Equation(p, p),))
    a_bad = fs.fin_function(B, B, {"0": "0"})
    with pytest.raises(TargetMismatch):
        is_solution(a_bad, E)
    with pytest.raises(TargetMismatch):
        act(E, a_bad)
    K = EquationSystem(SC, (Equation(a_bad, a_bad),))
    with pytest.raises(DomainMismatch):
        implies(E, K)
    with pytest.raises(EmptyList):
        generated_equation(SC, [])
