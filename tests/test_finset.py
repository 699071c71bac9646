import itertools
import re

import pytest

from finset_oracle import coequalizer, cokernel_pair, equalizer, intersect, pullback
from veq import algebras as alg
from veq import finset as fs
from veq import posets as po
from veq.errors import (
    CarrierTooLarge,
    CodMismatch,
    DomainMismatch,
    EmptyList,
    InvariantError,
    NotParallel,
    TargetMismatch,
    VeqError,
)
from veq.instances import FinSetCat
from veq.theories import Signature

A = fs.finset("a", "b", "c")
BITS = fs.finset("0", "1")
P = fs.FinFunction(A, BITS, ("0", "1", "1"))
Q = fs.FinFunction(A, BITS, ("0", "0", "1"))
SC = FinSetCat()


def small_objects(max_size=3):
    """Canonical test objects of each size up to max_size, empty included."""
    atoms = "uvwxyz"
    return [fs.FinSetObj(tuple(atoms[:n])) for n in range(max_size + 1)]


def test_finsetobj_rejects_duplicates():
    with pytest.raises(InvariantError):
        fs.FinSetObj(("a", "a"))


def test_function_table_validated():
    with pytest.raises(InvariantError):
        fs.FinFunction(A, BITS, ("0", "1"))
    with pytest.raises(InvariantError):
        fs.FinFunction(A, BITS, ("0", "1", "2"))


def test_compose_and_identity():
    ida = fs.identity(A)
    assert fs.compose(P, ida) == P
    assert fs.compose(fs.identity(BITS), P) == P
    swap = fs.FinFunction(BITS, BITS, ("1", "0"))
    assert fs.compose(swap, P).table == ("1", "0", "0")


SL = Signature((("meet", 2),))

# per map class: its old mapping constructor and compose, two objects on
# the labels 0 < 1 and 0 < 1 < 2, and its length and codomain messages
TABLE_MAPS = {
    "FinFunction": (
        fs.FinFunction, fs.fin_function, fs.compose, fs.finset("0", "1"), fs.finset("0", "1", "2"),
        "table length differs from domain size", "image label '9' not in codomain",
    ),
    "AlgHom": (
        alg.AlgHom, alg.alg_hom, alg.compose_alg_homs,
        alg.make_algebra("A", SL, ["0", "1"], {"meet": min}),
        alg.make_algebra("B", SL, ["0", "1", "2"], {"meet": min}),
        "homomorphism table length mismatch", "homomorphism value 9 outside codomain",
    ),
    "MonotoneMap": (
        po.MonotoneMap, po.monotone, po.compose_maps,
        po.chain("A", ["0", "1"]), po.chain("B", ["0", "1", "2"]),
        "monotone map table length mismatch", "monotone map value 9 outside codomain",
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE_MAPS))
def test_the_three_table_maps_share_their_checks(name):
    cls, from_mapping, compose, A, B, length_error, value_error = TABLE_MAPS[name]
    with pytest.raises(InvariantError, match=f"^{re.escape(length_error)}$"):
        cls(A, B, ("0",))
    with pytest.raises(InvariantError, match=f"^{re.escape(value_error)}$"):
        cls(A, B, ("0", "9"))
    f = from_mapping(A, B, {"0": "0", "1": "2"})
    assert f == cls(A, B, ("0", "2")) and f("1") == "2"
    assert f.mapping() == {"0": "0", "1": "2"} and f.image() == ("0", "2")
    assert f.is_injective() and not f.is_surjective()
    with pytest.raises(DomainMismatch, match="^'7' not in domain$"):
        f("7")
    with pytest.raises(InvariantError, match=r"^mapping misses domain labels \['1'\]$"):
        from_mapping(A, B, {"0": "0"})
    assert compose(f, cls.identity(A)) == f == compose(cls.identity(B), f)
    with pytest.raises(CodMismatch, match="^compose: codomain of first leg differs"):
        compose(f, f)


def test_hom_is_every_function_in_product_order():
    for dom in small_objects(3):
        for cod in small_objects(3):
            want = [fs.FinFunction(dom, cod, t)
                    for t in itertools.product(cod.elements, repeat=len(dom))]
            assert SC.hom(dom, cod) == want
    empty = fs.finset()
    assert SC.hom(empty, A) == [fs.FinFunction(empty, A, ())]
    assert SC.hom(A, empty) == []


def test_hom_shares_the_table_search_budget(monkeypatch):
    # The budget counts candidate values, not functions: 12 points into 3
    # take 797 160 of the 2 000 000, 14 points into 3 would take 7 174 452.
    # morphism is stubbed so that no 531 441 FinFunctions are kept in memory.
    monkeypatch.setattr(FinSetCat, "morphism", lambda self, dom, cod, table: None)
    three = fs.finset("0", "1", "2")
    assert len(SC.hom(fs.FinSetObj(tuple(f"x{i}" for i in range(12))), three)) == 3 ** 12
    with pytest.raises(CarrierTooLarge, match="more than 2000000 candidates"):
        SC.hom(fs.FinSetObj(tuple(f"x{i}" for i in range(14))), three)


def test_hom_raises_on_the_budget_before_building_a_morphism(monkeypatch):
    # 5 points into 3 take 3 + 9 + 27 + 81 + 243 = 363 candidates
    built = []
    real = FinSetCat.morphism
    monkeypatch.setattr(FinSetCat, "morphism", lambda self, *a: built.append(a) or real(self, *a))
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 362)
    three, five = fs.finset("0", "1", "2"), fs.FinSetObj(tuple(f"x{i}" for i in range(5)))
    with pytest.raises(CarrierTooLarge, match="more than 362 candidates"):
        SC.hom(five, three)
    assert built == []
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 363)
    assert len(SC.hom(five, three)) == len(built) == 3 ** 5


def test_equalizer_matches_brute_filter():
    e = equalizer(P, Q)
    assert e.carrier.elements == ("a", "c")
    assert e.inclusion.table == ("a", "c")


def test_equalizer_identity_and_empty_cases():
    assert equalizer(P, P).carrier == A
    r = fs.FinFunction(A, BITS, ("1", "0", "0"))
    assert equalizer(P, r).carrier.elements == ()


def test_equalizer_requires_parallel_pair():
    other = fs.FinFunction(BITS, BITS, ("0", "1"))
    with pytest.raises(NotParallel):
        equalizer(P, other)


def test_equalizer_agrees_with_filter_exhaustively():
    # every parallel pair over sets of size <= 3 (size 6 total is too many tables)
    for dom in small_objects(3):
        for cod in small_objects(2):
            for p in SC.hom(dom, cod):
                for q in SC.hom(dom, cod):
                    want = tuple(x for x in dom.elements if p(x) == q(x))
                    assert equalizer(p, q).carrier.elements == want


def test_product_sizes_and_labels():
    r = fs.product([BITS, fs.finset("x", "y")])
    assert len(r.obj) == 4
    assert r.obj.elements == ("(0,x)", "(0,y)", "(1,x)", "(1,y)")
    assert r.projections[0].table == ("0", "0", "1", "1")
    assert r.projections[1].table == ("x", "y", "x", "y")
    assert len(fs.product([BITS, BITS, BITS]).obj) == 8
    single = fs.product([A])
    assert len(single.obj) == 3


def test_product_rejects_empty_list():
    with pytest.raises(EmptyList):
        fs.product([])


def test_product_universal_property_exhaustive():
    factors = [BITS, fs.finset("x", "y")]
    r = fs.product(factors)
    for apex in small_objects(2):
        for f in SC.hom(apex, factors[0]):
            for g in SC.hom(apex, factors[1]):
                med = r.tuple_of([f, g])
                assert fs.compose(r.projections[0], med) == f
                assert fs.compose(r.projections[1], med) == g
                # uniqueness among all candidates
                others = [
                    h
                    for h in SC.hom(apex, r.obj)
                    if fs.compose(r.projections[0], h) == f
                    and fs.compose(r.projections[1], h) == g
                ]
                assert others == [med]


def test_coproduct_tags_and_sizes():
    r = fs.coproduct([fs.finset("a"), fs.finset("a")])
    assert r.obj.elements == ("in0:a", "in1:a")
    assert len(fs.coproduct([BITS, fs.finset("x", "y", "z")]).obj) == 5
    assert len(fs.coproduct([A]).obj) == 3
    for i, cp in enumerate(r.coprojections):
        assert cp.is_injective()
    with pytest.raises(EmptyList):
        fs.coproduct([])


def test_coproduct_universal_property_exhaustive():
    summands = [BITS, fs.finset("x")]
    r = fs.coproduct(summands)
    cod = fs.finset("u", "v")
    for f in SC.hom(summands[0], cod):
        for g in SC.hom(summands[1], cod):
            med = r.cotuple_of([f, g])
            assert fs.compose(med, r.coprojections[0]) == f
            assert fs.compose(med, r.coprojections[1]) == g
            others = [
                h
                for h in SC.hom(r.obj, cod)
                if fs.compose(h, r.coprojections[0]) == f
                and fs.compose(h, r.coprojections[1]) == g
            ]
            assert others == [med]


def test_coequalizer_glues_named_pair():
    pt = fs.finset("pt")
    three = fs.finset("0", "1", "2")
    p = fs.FinFunction(pt, three, ("0",))
    q = fs.FinFunction(pt, three, ("1",))
    c = coequalizer(p, q)
    assert c.cod.elements == ("0", "2")
    assert c.table == ("0", "0", "2")


def test_coequalizer_identity_and_total_collapse():
    assert coequalizer(P, P).cod == BITS
    pair = fs.finset("u", "v")
    p = fs.FinFunction(pair, A, ("a", "b"))
    q = fs.FinFunction(pair, A, ("b", "c"))
    c = coequalizer(p, q)
    assert len(c.cod) == 1
    assert c.cod.elements == ("a",)


def test_coequalizer_universal_property_exhaustive():
    pair = fs.finset("u", "v")
    for p in SC.hom(pair, A):
        for q in SC.hom(pair, A):
            c = coequalizer(p, q)
            for cod in small_objects(2):
                for h in SC.hom(A, cod):
                    if fs.compose(h, p) != fs.compose(h, q):
                        continue
                    mediators = [
                        m for m in SC.hom(c.cod, cod) if fs.compose(m, c) == h
                    ]
                    assert len(mediators) == 1


def test_cokernel_pair_cases():
    pt = fs.finset("pt")
    f = fs.FinFunction(pt, BITS, ("0",))
    p, q = cokernel_pair(f)
    assert p.cod == q.cod
    assert len(p.cod) == 3
    assert fs.compose(p, f) == fs.compose(q, f)
    # p and q differ exactly off the image of f
    assert [x for x in BITS.elements if p(x) != q(x)] == ["1"]

    surj = fs.FinFunction(A, BITS, ("0", "1", "0"))
    p2, q2 = cokernel_pair(surj)
    assert p2 == q2
    assert p2.is_injective() and p2.is_surjective()

    empty = fs.FinSetObj(())
    f3 = fs.FinFunction(empty, fs.finset("0"), ())
    p3, q3 = cokernel_pair(f3)
    assert p3.cod.elements == ("in0:0", "in1:0")
    assert (p3.table, q3.table) == (("in0:0",), ("in1:0",))


def test_cokernel_pair_trivial_iff_epi():
    for dom in small_objects(3):
        for f in SC.hom(dom, BITS):
            p, q = cokernel_pair(f)
            assert (p == q) == f.is_surjective()


def test_pullback_cases():
    U = fs.finset("u", "v")
    f = fs.FinFunction(BITS, U, ("u", "v"))
    m = fs.FinFunction(fs.finset("a"), U, ("u",))
    sq = pullback(f, m)
    assert sq.apex.elements == ("(0,a)",)
    assert sq.to_f_dom.table == ("0",)
    assert sq.to_m_dom.table == ("a",)

    ident = fs.identity(U)
    sq2 = pullback(f, ident)
    assert sq2.to_m_dom.table == f.table

    miss = fs.FinFunction(fs.finset("a"), U, ("v",))
    const_u = fs.FinFunction(BITS, U, ("u", "u"))
    assert len(pullback(const_u, miss).apex) == 0

    with pytest.raises(CodMismatch):
        pullback(f, fs.FinFunction(fs.finset("a"), BITS, ("0",)))


def test_pullback_preserves_monos_and_universal_property():
    U = fs.finset("u", "v", "w")
    for f in SC.hom(BITS, U):
        for m_table in itertools.permutations(U.elements, 2):
            m = fs.FinFunction(BITS, U, m_table)
            sq = pullback(f, m)
            assert sq.to_f_dom.is_injective()
            # universal property over small apexes
            for apex in small_objects(2):
                for u in SC.hom(apex, BITS):
                    for v in SC.hom(apex, BITS):
                        if fs.compose(f, u) != fs.compose(m, v):
                            continue
                        mediators = [
                            h
                            for h in SC.hom(apex, sq.apex)
                            if fs.compose(sq.to_f_dom, h) == u
                            and fs.compose(sq.to_m_dom, h) == v
                        ]
                        assert len(mediators) == 1


def test_intersect():
    ac = fs.sub(A, ["a", "c"])
    ab = fs.sub(A, ["a", "b"])
    assert intersect([ac, ab]).carrier.elements == ("a",)
    assert intersect([ac]).carrier.elements == ("a", "c")
    bc = fs.sub(A, ["b"])
    assert intersect([ac, bc]).carrier.elements == ()
    with pytest.raises(EmptyList):
        intersect([])
    with pytest.raises(TargetMismatch):
        intersect([ac, fs.sub(BITS, ["0"])])


def test_factor_through():
    inc = fs.sub(BITS, ["0"]).inclusion
    const0 = fs.FinFunction(A, BITS, ("0", "0", "0"))
    h = fs.factor_through(const0, inc)
    assert h is not None and fs.compose(inc, h) == const0

    assert fs.factor_through(P, inc) is None

    h2 = fs.factor_through(P, P)
    assert h2 is not None and fs.compose(P, h2) == P

    with pytest.raises(CodMismatch):
        fs.factor_through(P, fs.identity(A))


def test_factor_through_agrees_with_search():
    for dom in small_objects(2):
        for f in SC.hom(dom, BITS):
            for g in SC.hom(A, BITS):
                h = fs.factor_through(f, g)
                all_h = [k for k in SC.hom(dom, A) if fs.compose(g, k) == f]
                if h is None:
                    assert all_h == []
                else:
                    assert h in all_h
                    if g.is_injective():
                        assert all_h == [h]


def test_determinism():
    r1 = fs.product([A, BITS])
    r2 = fs.product([A, BITS])
    assert r1 == r2
    assert coequalizer(P, Q) == coequalizer(P, Q)


def outcome(construction, *args):
    """What a construction returns, or the class of the error it raises."""
    try:
        return construction(*args)
    except VeqError as err:
        return type(err)


def oracle_pullback_legs(f, m):
    sq = pullback(f, m)
    return sq.to_f_dom, sq.to_m_dom


def test_finset_category_matches_oracle_exhaustively():
    """Every FinSetCat construction from the table-category base against the
    finset functions it replaced, over all functions between sets of size
    <= 3, errors included."""
    objs = small_objects(3)
    arrows = [f for dom in objs for cod in objs for f in SC.hom(dom, cod)]
    seen = set()
    for p in arrows:
        for q in arrows:
            for mine, theirs in ((SC.equalizer, equalizer), (SC.coequalizer, coequalizer)):
                got, want = outcome(mine, p, q), outcome(theirs, p, q)
                assert got == want
                seen.add(want if isinstance(want, type) else mine.__name__)
            assert outcome(SC.pullback, p, q) == outcome(oracle_pullback_legs, p, q)
            assert outcome(SC.factor, p, q) == outcome(fs.factor_through, p, q)
            assert SC.morphisms_equal(p, q) == (p == q)
    assert {"equalizer", "coequalizer", NotParallel} <= seen
    for f in arrows:
        assert SC.cokernel_pair(f) == cokernel_pair(f)
        assert SC.is_mono(f) == f.is_injective()
    assert outcome(SC.pullback, P, fs.identity(A)) == CodMismatch
    assert outcome(SC.factor, P, fs.identity(A)) == CodMismatch
    # monos given as canonical subobjects and as plain functions, and non-monos
    subs = [fs.sub(T, labels) for T in objs
            for n in range(len(T) + 1) for labels in itertools.combinations(T, n)]
    candidates = subs + arrows
    kinds = set()
    for a in candidates:
        for b in candidates:
            got, want = outcome(SC.intersection, [a, b]), outcome(intersect, [a, b])
            assert got == want
            kinds.add(want if isinstance(want, type) else fs.SubobjectMono)
    assert kinds == {fs.SubobjectMono, TargetMismatch, InvariantError}
    assert outcome(SC.intersection, []) == outcome(intersect, []) == EmptyList
