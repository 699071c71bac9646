import random
import time

import pytest

from poset_oracle import random_galois_instance, random_poset
from veq import cats
from veq import finset as fs
from veq import posets as po
from veq.errors import (
    AdjunctionInvalid,
    BoundsTooLarge,
    BoundTooLarge,
    CarrierTooLarge,
    DepthTooSmall,
    InvariantError,
    NotParallel,
    SourceMismatch,
)
from veq.inserters import (
    IDENTITY_POLY,
    PolyFunctor,
    SortedSignature,
    _FamilyCatBuilder,
    free_f_algebra,
    free_universal_map,
    inserter,
    inserter_poset,
    limit_creation_report,
    mediating_functor,
    parse_poly,
    shift_left,
    shift_right,
    sigma_alg_as_inserter,
    verify_forgetful,
    verify_universal_property,
)
from veq.instances import FinPosetCat

PC = FinPosetCat()
ALL_TRUE = {
    "faithful": True,
    "conservative": True,
    "amnestic": True,
    "uniquely_transportable": True,
}


def thin(f):
    return po.to_functor(f)


def test_identity_pair_category_is_the_base():
    P = po.chain("P", ["0", "1", "2"])
    C = po.to_category(P)
    one = cats.identity_functor(C)
    r = inserter(one, one)
    assert len(r.category.objects) == 3
    assert len(r.category.morphisms) == len(C.morphisms)
    assert verify_forgetful(r.forgetful) == ALL_TRUE


def test_matches_pointwise_oracle_on_random_posets():
    rng = random.Random(11)
    done = 0
    while done < 25:
        P = random_poset(rng, rng.randint(1, 4), "P")
        Q = random_poset(rng, rng.randint(1, 4), "Q")
        maps = PC.hom(P, Q)
        if not maps:
            continue
        f, g = rng.choice(maps), rng.choice(maps)
        CP, CQ = po.to_category(P), po.to_category(Q)
        r = inserter(po.to_functor(f, CP, CQ), po.to_functor(g, CP, CQ))
        sub, _ = inserter_poset(f, g)
        assert tuple(r.pairs[p][0] for p in r.category.objects) == sub.elements
        assert len(r.category.morphisms) == len(sub.rel)
        assert verify_forgetful(r.forgetful) == ALL_TRUE
        done += 1


def test_constant_functor_at_bottom_gives_whole_base():
    P = po.chain("P", ["0", "1", "2"])
    const = po.MonotoneMap(P, P, ("0", "0", "0"))
    r = inserter(thin(const), thin(po.identity_map(P)))
    assert len(r.category.objects) == 3
    assert len(r.category.morphisms) == len(P.rel)


def test_inserter_rejects_non_parallel():
    P = po.chain("P", ["0", "1"])
    Q = po.chain("Q", ["a", "b", "c"])
    with pytest.raises(NotParallel):
        inserter(thin(po.identity_map(P)), thin(po.identity_map(Q)))


def _two_parallel_arrows():
    objects = ("a", "b")
    morphisms = ("ida", "idb", "f", "g")
    src = {"ida": "a", "idb": "b", "f": "a", "g": "a"}
    tgt = {"ida": "a", "idb": "b", "f": "b", "g": "b"}
    ids = {"a": "ida", "b": "idb"}
    comp = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("f", "ida"): "f",
        ("g", "ida"): "g",
        ("idb", "f"): "f",
        ("idb", "g"): "g",
    }
    return cats.FiniteCategory("pair", objects, morphisms, src, tgt, ids, comp)


def test_verify_forgetful_flags_a_collapse():
    D = _two_parallel_arrows()
    assert verify_forgetful(cats.identity_functor(D)) == ALL_TRUE
    pt = cats.discrete_category("pt", ["*"])
    collapse = cats.FunctorData(
        D, pt,
        {"a": "*", "b": "*"},
        {m: pt.ids["*"] for m in D.morphisms},
    )
    report = verify_forgetful(collapse)
    assert report["faithful"] is False
    assert report["conservative"] is False
    assert report["amnestic"] is True


def test_universal_property_with_small_cone():
    P = po.chain("P", ["0", "1", "2"])
    C = po.to_category(P)
    one = cats.identity_functor(C)
    r = inserter(one, one)
    D = po.chain("D", ["d0", "d1"])
    emb = po.monotone(D, P, {"d0": "0", "d1": "2"})
    V = po.to_functor(emb, po.to_category(D), C)
    alpha = cats.NatTransData(
        cats.compose_functors(one, V),
        cats.compose_functors(one, V),
        {x: C.ids[V.obj_map[x]] for x in V.source.objects},
    )
    W = mediating_functor(r, V, alpha)
    assert cats.functors_equal(cats.compose_functors(r.forgetful, W), V)
    assert verify_universal_property(r, V, alpha)


def _galois_setup(rng):
    A, B, G, H = random_galois_instance(rng)
    adj = po.adjunction_from_galois(H, G)
    return A, B, G, H, adj


def test_shift_left_round_trips_on_galois_corpus():
    rng = random.Random(23)
    for _ in range(10):
        A, B, G, H, adj = _galois_setup(rng)
        F = rng.choice(PC.hom(A, B))
        Ffun = po.to_functor(F)
        there, back = shift_left(Ffun, adj.right, adj)
        assert cats.functors_equal(
            cats.compose_functors(back, there), cats.identity_functor(there.source))
        assert cats.functors_equal(
            cats.compose_functors(there, back), cats.identity_functor(there.target))
        # both legs are concrete over the base
        U = inserter(Ffun, adj.right).forgetful
        V = inserter(
            cats.compose_functors(adj.left, Ffun),
            cats.identity_functor(Ffun.source)).forgetful
        assert cats.functors_equal(cats.compose_functors(V, there), U)
        assert cats.functors_equal(cats.compose_functors(U, back), V)
        # order-theoretic reading: Fa <= Ga iff H(Fa) <= a
        lhs = [x for x in A.elements if B.leq(F(x), G(x))]
        rhs = [x for x in A.elements if A.leq(H(F(x)), x)]
        assert lhs == rhs


def test_shift_right_round_trips_on_galois_corpus():
    rng = random.Random(29)
    for _ in range(10):
        A, B, G, H, adj = _galois_setup(rng)
        # adj.left is a left adjoint, so its functor has a right adjoint
        second = rng.choice(PC.hom(B, A))
        there, back = shift_right(adj.left, po.to_functor(second), adj)
        assert cats.functors_equal(
            cats.compose_functors(back, there), cats.identity_functor(there.source))
        assert cats.functors_equal(
            cats.compose_functors(there, back), cats.identity_functor(there.target))


def test_shift_validation_errors():
    P = po.chain("P", ["0", "1"])
    idm = po.identity_map(P)
    adj = po.adjunction_from_galois(idm, idm)
    const = thin(po.MonotoneMap(P, P, ("0", "0")))
    with pytest.raises(AdjunctionInvalid):
        shift_left(const, const, adj)
    with pytest.raises(AdjunctionInvalid):
        shift_right(const, adj.right, adj)
    Q = po.chain("Q", ["a", "b", "c"])
    with pytest.raises(NotParallel):
        shift_left(thin(po.identity_map(Q)), adj.right, adj)


def test_identity_adjunction_shift_renames_nothing():
    P = po.chain("P", ["0", "1", "2"])
    idm = po.identity_map(P)
    adj = po.adjunction_from_galois(idm, idm)
    F = thin(po.MonotoneMap(P, P, ("0", "0", "1")))
    there, _ = shift_left(F, adj.right, adj)
    assert there.obj_map == {p: p for p in there.source.objects}


def test_limit_creation_on_posets():
    rng = random.Random(31)
    hits = 0
    for _ in range(30):
        P = random_poset(rng, rng.randint(1, 4), "P")
        F = rng.choice(PC.hom(P, P))
        report = limit_creation_report(thin(F), thin(po.identity_map(P)))
        for entry in report.values():
            if entry["hypothesis"]:
                assert entry["created"] is True
                hits += 1
    assert hits > 0


def test_limit_creation_hypothesis_fails_when_meets_break():
    diamond = po.poset_from_cover(
        "D", ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])
    chain3 = po.chain("C", ["0", "1", "2"])
    squash = po.monotone(
        diamond, chain3, {"bot": "0", "a": "1", "b": "1", "top": "2"})
    lift = po.monotone(
        diamond, chain3, {"bot": "0", "a": "2", "b": "2", "top": "2"})
    report = limit_creation_report(thin(lift), thin(squash))
    assert report["products"]["hypothesis"] is False
    assert report["products"]["created"] is None


def _equivalence_preorder():
    objects = ("a", "b")
    morphisms = ("ida", "idb", "u", "v")
    src = {"ida": "a", "idb": "b", "u": "a", "v": "b"}
    tgt = {"ida": "a", "idb": "b", "u": "b", "v": "a"}
    ids = {"a": "ida", "b": "idb"}
    comp = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("u", "ida"): "u",
        ("idb", "u"): "u",
        ("v", "idb"): "v",
        ("ida", "v"): "v",
        ("v", "u"): "ida",
        ("u", "v"): "idb",
    }
    return cats.FiniteCategory("eqv", objects, morphisms, src, tgt, ids, comp)


def test_limit_creation_on_a_non_poset_category():
    C = _equivalence_preorder()
    one = cats.identity_functor(C)
    report = limit_creation_report(one, one)
    assert report["products"]["hypothesis"] is True
    assert report["products"]["created"] is True
    r = inserter(one, one)
    assert verify_forgetful(r.forgetful) == ALL_TRUE


def test_identity_polynomial_free_algebra():
    gens = fs.FinSetObj(("g",))
    free = free_f_algebra(IDENTITY_POLY, gens, 4)
    assert free.carrier.elements == ("g",)
    assert free.frontier == frozenset()
    assert free.structure_function().table == ("g",)
    assert free.apply("g") == "g"


def test_numeral_free_algebra():
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    free = free_f_algebra(numerals, fs.FinSetObj(()), 3)
    assert free.carrier.elements == ("zero", "succ(zero)", "succ(succ(zero))")
    assert free.apply("succ(zero)") == "succ(zero)"
    with pytest.raises(DepthTooSmall):
        free.apply("succ(succ(succ(zero)))")
    with pytest.raises(DepthTooSmall):
        free.structure_function()


def test_pair_free_algebra_counts():
    pairs = PolyFunctor((("pair", 2),))
    free = free_f_algebra(pairs, fs.FinSetObj(("g",)), 2)
    assert len(free.carrier) == 5
    assert free.carrier.elements[:2] == ("g", "pair(g,g)")


def test_depth_chain_embeds_by_prefix():
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    prev = free_f_algebra(numerals, fs.FinSetObj(()), 0)
    for depth in range(1, 5):
        cur = free_f_algebra(numerals, fs.FinSetObj(()), depth)
        assert cur.carrier.elements[: len(prev.carrier)] == prev.carrier.elements
        prev = cur


def test_free_universal_map_into_modular_counter():
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    free = free_f_algebra(numerals, fs.FinSetObj(()), 3)
    B = fs.FinSetObj(("0", "1", "2"))
    applied = numerals.on_set(B)
    target = fs.fin_function(
        applied, B,
        {"succ(0)": "1", "succ(1)": "2", "succ(2)": "0", "zero": "0"})
    gen_map = fs.FinFunction(fs.FinSetObj(()), B, ())
    h = free_universal_map(free, target, gen_map, exhaustive=True)
    assert h.table == ("0", "1", "2")
    bad = fs.fin_function(applied, B, {e: "0" for e in applied.elements})
    wrong_dom = fs.fin_function(B, B, {e: e for e in B.elements})
    with pytest.raises(SourceMismatch):
        free_universal_map(free, wrong_dom, gen_map)
    assert free_universal_map(free, bad, gen_map).table == ("0", "0", "0")


def test_free_algebra_cap():
    pairs = PolyFunctor((("pair", 2),))
    with pytest.raises(BoundsTooLarge):
        free_f_algebra(pairs, fs.FinSetObj(("g",)), 4, cap=30)


def test_free_algebra_cap_stops_inside_a_layer():
    built = set()

    class Counting(PolyFunctor):
        def term(self, cons, args):
            t = super().term(cons, args)
            built.add(t)
            return t

    pairs = Counting((("pair", 2),))
    gens = fs.FinSetObj(("a", "b"))
    # the second layer alone holds 32 new terms; the cap is met inside it
    with pytest.raises(BoundsTooLarge, match="free carrier exceeds 30 terms"):
        free_f_algebra(pairs, gens, 4, cap=30)
    assert len(built - set(gens.elements)) <= 31
    assert len(free_f_algebra(pairs, gens, 2, cap=38).carrier) == 38


def test_free_universal_map_exhaustive_cap(monkeypatch):
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    B = fs.FinSetObj(("0", "1", "2"))
    target = fs.fin_function(
        numerals.on_set(B), B,
        {"succ(0)": "1", "succ(1)": "2", "succ(2)": "0", "zero": "0"})
    gen_map = fs.FinFunction(fs.FinSetObj(()), B, ())
    deep = free_f_algebra(numerals, fs.FinSetObj(()), 13)  # 3^13 > 10^6 maps
    assert free_universal_map(deep, target, gen_map).table[-1] == "0"
    # each term's value is forced by its equation: one candidate per term,
    # and the exhaustive search tries nothing more
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 13)
    assert free_universal_map(deep, target, gen_map, exhaustive=True).table == (
        ("0", "1", "2") * 4 + ("0",))
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 12)
    with pytest.raises(CarrierTooLarge, match="more than 12 candidates"):
        free_universal_map(deep, target, gen_map, exhaustive=True)
    free = free_f_algebra(numerals, fs.FinSetObj(()), 4)  # 3^4 = 81 maps
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 4)
    assert free_universal_map(free, target, gen_map, exhaustive=True).table == (
        "0", "1", "2", "0")
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 3)
    with pytest.raises(CarrierTooLarge, match="more than 3 candidates"):
        free_universal_map(free, target, gen_map)


def test_free_universal_map_identity_polynomial_law():
    # the structure map of the identity polynomial's free algebra is the
    # identity, so a homomorphism must send each generator to a fixed point
    gens = fs.FinSetObj(("g",))
    free = free_f_algebra(IDENTITY_POLY, gens, 2)
    B = fs.FinSetObj(("0", "1"))
    swap = fs.FinFunction(B, B, ("1", "0"))
    fixed = fs.FinFunction(B, B, ("0", "0"))
    to_zero = fs.FinFunction(gens, B, ("0",))
    assert free_universal_map(free, fixed, to_zero, exhaustive=True).table == ("0",)
    with pytest.raises(InvariantError, match="homomorphism law"):
        free_universal_map(free, swap, to_zero)


def test_parse_poly():
    assert parse_poly("X") == IDENTITY_POLY
    assert parse_poly("succ:X + zero:1").summands == (("succ", 1), ("zero", 0))
    assert parse_poly("pair:X^2").summands == (("pair", 2),)
    assert parse_poly("X^2 + 1").summands == (("in0", 2), ("in1", 0))
    assert parse_poly("X + X").summands == (("in0", 1), ("in1", 1))
    with pytest.raises(InvariantError):
        parse_poly("Y")


def test_polyfunctor_validation_and_action():
    with pytest.raises(InvariantError):
        PolyFunctor((("", 2),))
    with pytest.raises(InvariantError):
        PolyFunctor((("", 1), ("zero", 0)))
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    X = fs.FinSetObj(("a", "b"))
    FX = numerals.on_set(X)
    assert FX.elements == ("succ(a)", "succ(b)", "zero")
    f = fs.fin_function(X, X, {"a": "b", "b": "b"})
    Ff = numerals.on_map(f)
    assert Ff(("succ(a)")) == "succ(b)" and Ff("zero") == "zero"


def test_sigma_unary_bound_two():
    sig = SortedSignature(("s",), (("u", ("s",), "s"),))
    report = sigma_alg_as_inserter(sig, 2)
    assert report["matched"] is True
    assert report["object_count"] == 6  # empty, the point, four endofunctions
    assert verify_forgetful(report["forgetful"]) == ALL_TRUE


def test_sigma_empty_signature():
    sig = SortedSignature(("s",), ())
    report = sigma_alg_as_inserter(sig, 2)
    assert report["matched"] is True
    assert report["object_count"] == 3


def test_sigma_binary_bound_two():
    sig = SortedSignature(("s",), (("m", ("s", "s"), "s"),))
    report = sigma_alg_as_inserter(sig, 2)
    assert report["matched"] is True
    assert report["object_count"] == 18  # 1 + 1 + 16 magma tables
    assert verify_forgetful(report["forgetful"]) == ALL_TRUE


def test_family_build_rejects_a_missing_composite():
    # X = {0,1} -> Y = {0} -> X: the composite X -> X, constant at 0, was
    # never added, so the maps are not closed under composition
    b = _FamilyCatBuilder()
    b.add_object("X", (fs.finset("0", "1"),))
    b.add_object("Y", (fs.finset("0"),))
    b.morphism("X", "Y", (("0", "0"),))
    b.morphism("Y", "X", (("0",),))
    with pytest.raises(InvariantError, match="no composite of Y>X#0 after X>Y#0"):
        b.build("Fam")
    b.morphism("X", "X", (("0", "0"),))
    assert len(b.build("Fam").morphisms) == 5


def test_sigma_bound_too_large():
    sig = SortedSignature(("s",), (("m", ("s", "s"), "s"),))
    with pytest.raises(BoundTooLarge):
        sigma_alg_as_inserter(sig, 3)


def test_sigma_ternary_pair_category_stops_at_the_composable_pair_cap():
    # the family categories pass _SIGMA_CAP, but the pair category of the
    # 258 ternary algebras would hold 17 305 604 composable arrow pairs
    sig = SortedSignature(("s",), (("m", ("s", "s", "s"), "s"),))
    start = time.perf_counter()
    with pytest.raises(BoundTooLarge, match=r"Ins\(args,results\): 17305604 composable arrow "
                       r"pairs exceed _COMPOSABLE_CAP \(200000\)"):
        sigma_alg_as_inserter(sig, 2)
    assert time.perf_counter() - start < 10
