import random

import pytest

from group_oracle import (
    algebra_to_group,
    group_to_algebra,
    oracle_normal_closure,
    oracle_quotient_group,
)
from poset_oracle import antichain, oracle_coprojections, oracle_poset_collapse, random_poset
from veq import algebras as alg
from veq import cats
from veq import finset as fs
from veq import groups as grp
from veq import posets as po
from veq.equations import (
    CoEquationSystem,
    Equation,
    EquationSystem,
    general_cosolution,
    general_solution,
)
from veq.errors import (
    CapabilityMissing,
    CarrierTooLarge,
    DomainMismatch,
    EmptyList,
    InvariantError,
    NotParallel,
    TargetMismatch,
)
from veq.instances import FinAlgCat, FinCatCat, FinGrpCat, FinPosetCat, FinSetCat
from veq.theories import Signature

GC = FinGrpCat()
AC = FinAlgCat()
PC = FinPosetCat()
CC = FinCatCat()

SL = Signature((("meet", 2),))


def sl(name, labels):
    return alg.make_algebra(name, SL, labels, {"meet": min})


def test_algebra_equalizer_is_agreement_subalgebra():
    A = sl("A", ["0", "1", "2"])
    B = sl("B", ["0", "1"])
    p = alg.alg_hom(A, B, {"0": "0", "1": "0", "2": "1"})
    q = alg.alg_hom(A, B, {"0": "0", "1": "1", "2": "1"})
    v = AC.equalizer(p, q)
    assert v.dom.carrier.elements == ("0", "2")
    with pytest.raises(NotParallel):
        AC.equalizer(p, alg.identity_alg_hom(A))


def test_algebra_general_solution_through_calculus():
    A = sl("A", ["0", "1", "2"])
    B = sl("B", ["0", "1"])
    p = alg.alg_hom(A, B, {"0": "0", "1": "0", "2": "1"})
    q = alg.alg_hom(A, B, {"0": "0", "1": "1", "2": "1"})
    r = alg.alg_hom(A, B, {"0": "0", "1": "0", "2": "0"})
    s = alg.alg_hom(A, B, {"0": "0", "1": "0", "2": "1"})
    E = EquationSystem(AC, (Equation(p, q), Equation(r, s)))
    v = general_solution(E)
    assert v.dom.carrier.elements == ("0",)


def test_algebra_coequalizer_universal():
    A = sl("A", ["0", "1"])
    B = sl("B", ["0", "1", "2"])
    f = alg.alg_hom(A, B, {"0": "0", "1": "1"})
    g = alg.alg_hom(A, B, {"0": "0", "1": "2"})
    c = AC.coequalizer(f, g)
    assert AC.morphisms_equal(AC.compose(c, f), AC.compose(c, g))
    assert c.is_surjective()
    assert len(c.cod.carrier) == 2  # 1 and 2 merge


def test_algebra_coequalizer_congruence_not_just_partition():
    A = sl("pt", ["x"])
    B = sl("B", ["0", "1", "2"])
    # identifying the endpoints of the chain drags the middle in:
    # min(1,0) ~ min(1,2) forces 0 ~ 1
    f = alg.alg_hom(A, B, {"x": "0"})
    g = alg.alg_hom(A, B, {"x": "2"})
    c = AC.coequalizer(f, g)
    assert len(c.cod.carrier) == 1
    # identifying adjacent elements is already compatible with meet
    f2 = alg.alg_hom(A, B, {"x": "1"})
    g2 = alg.alg_hom(A, B, {"x": "2"})
    c2 = AC.coequalizer(f2, g2)
    assert len(c2.cod.carrier) == 2
    assert c2("1") == c2("2") and c2("0") != c2("1")


def test_algebra_product_and_pullback():
    A = sl("A", ["0", "1"])
    prod = AC.product([A, A])
    assert len(prod.obj.carrier) == 4
    diag = prod.tuple_of([alg.identity_alg_hom(A), alg.identity_alg_hom(A)])
    assert diag.table == ("(0,0)", "(1,1)")
    B = sl("B", ["0", "1", "2"])
    f = alg.alg_hom(B, A, {"0": "0", "1": "0", "2": "1"})
    m = alg.alg_hom(A, A, {"0": "0", "1": "1"})
    p0, p1 = AC.pullback(f, m)
    assert p0.dom is p1.dom
    for x in p0.dom.carrier.elements:
        assert f(p0(x)) == m(p1(x))


def test_algebra_cosolution_via_iterated_coequalizers():
    B = sl("B", ["0", "1", "2", "3"])
    A = sl("pt", ["x"])
    eqs = (
        Equation(alg.alg_hom(A, B, {"x": "0"}), alg.alg_hom(A, B, {"x": "1"})),
        Equation(alg.alg_hom(A, B, {"x": "2"}), alg.alg_hom(A, B, {"x": "3"})),
    )
    c = general_cosolution(CoEquationSystem(AC, eqs))
    assert c("0") == c("1") and c("2") == c("3") and c("0") != c("2")


def test_algebra_capability_flags():
    assert not AC.has_coproducts and not AC.has_cokernel_pairs
    with pytest.raises(CapabilityMissing):
        AC.coproduct([sl("A", ["0"])])


def test_poset_equalizer_and_factor():
    P = po.chain("P", ["a", "b", "c"])
    f = po.identity_map(P)
    g = po.MonotoneMap(P, P, ("a", "b", "b"))
    v = PC.equalizer(f, g)
    assert v.dom.elements == ("a", "b")
    w = PC.factor(v, po.identity_map(P))
    assert w is not None


def test_monotone_map_rejects_labels_outside_its_posets():
    P = po.chain("P", ["a", "b"])
    with pytest.raises(DomainMismatch):
        po.identity_map(P)("zz")
    with pytest.raises(InvariantError, match="outside codomain"):
        po.MonotoneMap(P, P, ("a", "zz"))


def test_poset_product_is_componentwise_order():
    P = po.chain("P", ["0", "1"])
    prod = PC.product([P, P])
    assert len(prod.obj) == 4
    assert prod.obj.leq("(0,0)", "(1,1)")
    assert not prod.obj.leq("(0,1)", "(1,0)")
    legs = [po.identity_map(P), po.MonotoneMap(P, P, ("0", "0"))]
    t = prod.tuple_of(legs)
    assert t.table == ("(0,0)", "(1,0)")


def test_poset_coequalizer_collapses_cycles():
    P = po.chain("P", ["0", "1", "2"])
    pt = antichain("pt", ["*"])
    c = PC.coequalizer(
        po.MonotoneMap(pt, P, ("0",)), po.MonotoneMap(pt, P, ("2",))
    )
    # merging the endpoints of a chain traps the middle in an order cycle
    assert len(c.cod) == 1
    # merging incomparable elements collapses nothing else
    V = po.poset_from_cover("V", ["a", "b", "c"], [("a", "b"), ("a", "c")])
    c2 = PC.coequalizer(
        po.MonotoneMap(pt, V, ("b",)), po.MonotoneMap(pt, V, ("c",))
    )
    assert len(c2.cod) == 2
    assert c2("b") == c2("c")


def test_poset_quotient_matches_oracle():
    rng = random.Random(11)
    merged = 0
    for _ in range(400):
        P = random_poset(rng, rng.randint(1, 7), "P")
        pairs = [(rng.choice(P.elements), rng.choice(P.elements))
                 for _ in range(rng.randint(0, 3))]
        got, want = PC.quotient(P, pairs), oracle_poset_collapse(P, pairs)
        assert got == want  # name, carrier order, relation and table
        merged += len(got.cod) < len(P) - len({frozenset(p) for p in pairs if p[0] != p[1]})
    assert merged > 0  # some quotients had to merge an order-cycle


def test_poset_coproduct_legs_match_oracle():
    rng = random.Random(3)
    for _ in range(50):
        objs = [random_poset(rng, rng.randint(0, 4), f"P{i}")
                for i in range(rng.randint(1, 3))]
        cop = PC.coproduct(objs)
        assert cop.coprojections == oracle_coprojections(objs, cop.obj)


def test_poset_coequalizer_universal():
    rng = random.Random(5)
    for _ in range(20):
        P = random_poset(rng, rng.randint(1, 4), "P")
        Q = random_poset(rng, rng.randint(1, 4), "Q")
        maps = PC.hom(Q, P)
        if len(maps) < 2:
            continue
        f, g = rng.choice(maps), rng.choice(maps)
        c = PC.coequalizer(f, g)
        assert PC.morphisms_equal(PC.compose(c, f), PC.compose(c, g))
        # universal: any map coequalizing f,g factors through c
        T = po.chain("T", ["t0", "t1"])
        for a in PC.hom(P, T):
            if po.compose_maps(a, f) != po.compose_maps(a, g):
                continue
            table = {}
            ok = True
            for x in P.elements:
                k = c(x)
                if k in table and table[k] != a(x):
                    ok = False
                table[k] = a(x)
            assert ok
            h = po.monotone(c.cod, T, table)
            assert po.compose_maps(h, c) == a


def test_poset_cokernel_pair_detects_epis():
    P = po.chain("P", ["0", "1"])
    Q = po.chain("Q", ["a", "b", "c"])
    m = po.MonotoneMap(P, Q, ("a", "b"))
    p, q = PC.cokernel_pair(m)
    assert p.table != q.table  # not epi: the pair separates the escape
    e = po.MonotoneMap(Q, P, ("0", "0", "1"))
    p2, q2 = PC.cokernel_pair(e)
    assert p2.table == q2.table  # epi: cokernel pair degenerates


def test_cat_equalizer_agreement_subcategory():
    C = po.to_category(po.chain("P", ["0", "1"]))
    D = po.to_category(po.chain("Q", ["a", "b", "c"]))
    fs_ = cats.all_functors(C, D)
    F = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "b"})
    G = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "c"})
    v = CC.equalizer(F, G)
    assert v.source.objects == ("0",)
    E = EquationSystem(CC, (Equation(F, G),))
    assert general_solution(E).source.objects == ("0",)


def test_cat_product_projections_and_tupling():
    C = po.to_category(po.chain("P", ["0", "1"]))
    prod = CC.product([C, C])
    assert len(prod.obj.objects) == 4
    d = prod.tuple_of([CC.identity(C), CC.identity(C)])
    assert d.obj_map["0"] == "(0,0)"
    p0, p1 = prod.projections
    assert CC.morphisms_equal(CC.compose(p0, d), CC.identity(C))
    assert CC.morphisms_equal(CC.compose(p1, d), CC.identity(C))


def test_cat_pullback_and_mono():
    C = po.to_category(po.chain("P", ["0", "1"]))
    D = po.to_category(po.chain("Q", ["a", "b", "c"]))
    fs_ = cats.all_functors(C, D)
    F = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "b"})
    assert CC.is_mono(F)
    collapse = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "a"})
    assert not CC.is_mono(collapse)
    q0, q1 = CC.pullback(F, F)
    for x in q0.source.objects:
        assert F.obj_map[q0.obj_map[x]] == F.obj_map[q1.obj_map[x]]


def test_cat_factorization():
    C = po.to_category(po.chain("P", ["0", "1"]))
    D = po.to_category(po.chain("Q", ["a", "b", "c"]))
    fs_ = cats.all_functors(C, D)
    F = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "b"})
    h = CC.factor(F, F)
    assert h is not None and CC.morphisms_equal(CC.compose(F, h), F)
    # inclusion of the full subcategory of D on {a, b}, built as an
    # equalizer inside the category of categories
    endos = cats.all_functors(D, D)
    ident = CC.identity(D)
    squash = next(
        f for f in endos if f.obj_map == {"a": "a", "b": "b", "c": "b"}
    )
    sub = CC.equalizer(ident, squash)
    assert set(sub.source.objects) == {"a", "b"}
    w = CC.factor(F, sub)
    assert w is not None and CC.morphisms_equal(CC.compose(sub, w), F)
    # no factorization when the image escapes the subcategory
    big = next(f for f in fs_ if f.obj_map == {"0": "a", "1": "c"})
    assert CC.factor(big, sub) is None


def test_cat_capability_flags():
    assert not CC.has_coequalizers and not CC.has_coproducts
    with pytest.raises(CapabilityMissing):
        CC.coequalizer(None, None)


# -- finite groups ---------------------------------------------------------------

GROUPS = grp.corpus()


def _endo_pairs(G):
    homs = GC.hom(G, G)
    return [(p, q) for p in homs for q in homs]


def test_group_equalizer_is_agreement_subgroup():
    for name in ("C4", "V4", "S3"):
        G = GROUPS[name]
        for p, q in _endo_pairs(G):
            v = GC.equalizer(p, q)
            agree = tuple(x for x in G.carrier.elements if p(x) == q(x))
            assert v.cod == G and v.dom.carrier.elements == agree and v.table == agree
    S3 = GROUPS["S3"]
    with pytest.raises(NotParallel):
        GC.equalizer(GC.identity(S3), GC.hom(S3, GROUPS["C2"])[0])


def test_group_intersection_is_image_intersection():
    D4 = GROUPS["D4"]
    subs = {grp.subgroup_closure(D4, [x]) for x in D4.carrier.elements}
    subs |= {grp.subgroup_closure(D4, [x, y]) for x in ("r1", "s0") for y in ("s1", "r2")}
    monos = [GC.sub(D4, members) for members in sorted(subs)]
    for a in monos:
        for b in monos:
            got = GC.intersection([a, b])
            want = tuple(x for x in D4.carrier.elements if x in set(a.table) & set(b.table))
            assert got.cod == D4 and got.dom.carrier.elements == want
            assert GC.is_mono(got)


def test_group_coequalizer_matches_oracle_quotient():
    for src, dst in (("C2", "S3"), ("C3", "S3"), ("C2", "D4"), ("C4", "Q8"), ("V4", "A4")):
        G, H = GROUPS[src], GROUPS[dst]
        homs = GC.hom(G, H)
        for p in homs:
            for q in homs:
                c = GC.coequalizer(p, q)
                O = algebra_to_group(H)
                diffs = [O.mul(p(x), O.inverse(q(x))) for x in G.carrier.elements]
                want_Q, want = oracle_quotient_group(O, oracle_normal_closure(O, diffs),
                                                     f"{H.name}/~")
                assert c.dom == H and c.table == want.table
                assert c.cod == group_to_algebra(want_Q)  # algebra equality compares tables
                assert GC.morphisms_equal(GC.compose(c, p), GC.compose(c, q))


def test_group_factor_matches_hom_search():
    cases = [
        ("C2", "C2", "C4"),  # g: C4 -> C2 is not injective
        ("C4", "C2", "C4"),
        ("C2", "C2", "S3"),  # g: S3 -> C2, the sign and the trivial map
        ("C3", "S3", "C3"),
        ("C2", "S3", "S3"),
        ("C2", "V4", "C4"),
        ("C4", "D4", "C4"),
        ("Q8", "V4", "Q8"),  # g: Q8 -> V4, the quotient by the centre
        ("C4", "C2", "D8"),  # g: D8 -> C2, order 16
        ("D8", "C2", "C4"),  # f from D8: 2^16 pool tables, 16 generator images
    ]
    non_injective = 0
    for f_src, cod, g_src in cases:
        A, H, K = GROUPS[f_src], GROUPS[cod], GROUPS[g_src]
        for g in GC.hom(K, H):
            non_injective += not GC.is_mono(g)
            for f in GC.hom(A, H):
                want = [h.table for h in GC.hom(A, K)
                        if GC.compose(g, h).table == f.table]
                h = GC.factor(f, g)
                if not want:
                    assert h is None
                else:  # the first factorization in hom order
                    assert h is not None and h.table == want[0]
                    assert h.dom == A and h.cod == K
    assert non_injective >= 5


def test_algebra_factor_through_non_injective_map_is_capped(monkeypatch):
    chain = [f"{i:02d}" for i in range(21)]  # meet is min on the labels
    A, B, C = sl("A", chain), sl("B", ["0", "1", "2", "3"]), sl("C", ["0", "1"])
    g = alg.alg_hom(B, C, {"0": "0", "1": "0", "2": "1", "3": "1"})
    f = alg.alg_hom(A, C, {x: "0" if int(x) < 10 else "1" for x in chain})
    # 2^21 pool tables, but the search tries 21 candidates
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 21)
    h = AC.factor(f, g)
    assert h.table == ("0",) * 10 + ("2",) * 11
    assert AC.compose(g, h) == f
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 20)
    with pytest.raises(CarrierTooLarge, match="more than 20 candidates"):
        AC.factor(f, g)
    monkeypatch.undo()
    small = sl("S", chain[:12])
    f = alg.alg_hom(small, C, {x: "0" if int(x) < 6 else "1" for x in chain[:12]})
    h = AC.factor(f, g)
    assert h.table == ("0",) * 6 + ("2",) * 6
    assert AC.compose(g, h) == f


def test_group_capabilities():
    S3 = GROUPS["S3"]
    assert not GC.has_products and not GC.has_pullbacks
    assert not GC.has_coproducts and not GC.has_cokernel_pairs
    ident = GC.identity(S3)
    with pytest.raises(CapabilityMissing):
        GC.pullback(ident, ident)
    with pytest.raises(CapabilityMissing):
        GC.coproduct([S3])


FLAGS = ("has_equalizers", "has_intersections", "has_products", "has_coequalizers",
         "has_coproducts", "has_cokernel_pairs", "has_pullbacks", "has_mono_test",
         "has_factorization")


OFFERED = [
    (FinSetCat(), set(FLAGS)),
    (GC, set(FLAGS) - {"has_products", "has_coproducts", "has_cokernel_pairs",
                       "has_pullbacks"}),
    (AC, set(FLAGS) - {"has_coproducts", "has_cokernel_pairs"}),
    (PC, set(FLAGS)),
    (CC, set(FLAGS) - {"has_coequalizers", "has_coproducts", "has_cokernel_pairs"}),
]


@pytest.mark.parametrize("cat,offered", OFFERED, ids=[c.name for c, _ in OFFERED])
def test_capability_flags_per_instance(cat, offered):
    assert {f for f in FLAGS if getattr(cat, f)} == offered


@pytest.mark.parametrize("cat,offered", OFFERED, ids=[c.name for c, _ in OFFERED])
def test_intersection_of_no_subobjects_is_refused(cat, offered):
    assert "has_intersections" in offered
    with pytest.raises(EmptyList):
        cat.intersection([])


TWO_AND_ONE = [  # per instance, an object on two points and one on one point
    (FinSetCat(), fs.finset("a", "b"), fs.finset("u")),
    (GC, GROUPS["C2"], GROUPS["C1"]),
    (AC, sl("A", ["0", "1"]), sl("B", ["0"])),
    (PC, po.chain("P", ["0", "1"]), po.chain("Q", ["0"])),
    (CC, cats.discrete_category("X", ["x", "y"]), cats.discrete_category("T", ["t"])),
]


@pytest.mark.parametrize("cat,two,one", TWO_AND_ONE, ids=[c.name for c, _, _ in TWO_AND_ONE])
def test_intersection_rejects_non_monos_and_target_mismatches(cat, two, one):
    collapse = next(iter(cat.hom(two, one)))
    assert not cat.is_mono(collapse)
    with pytest.raises(InvariantError):
        cat.intersection([cat.identity(one), collapse])
    with pytest.raises(TargetMismatch):
        cat.intersection([cat.identity(two), cat.identity(one)])
