"""Every finite category built through cats.tabulate_category, every pair
category built through inserters._category_over, and FinCat's equalizer,
intersection, pullback, mono test and factorization through the shared
table-category base, against the hand-written constructions kept in
category_oracle.

FiniteCategory's own == compares only name, objects and morphisms, so these
tests compare all seven fields, and functors by their object and arrow maps
as well.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from category_oracle import (
    OracleFinCat,
    oracle_cat_product,
    oracle_category_from_generators,
    oracle_discrete_category,
    oracle_family_build,
    oracle_free_universal_map,
    oracle_inserter,
    oracle_mediating_functor,
    oracle_shift_left,
    oracle_shift_right,
    oracle_sigalg_direct,
    oracle_subcategory_inclusion,
    oracle_table_pullback,
    oracle_to_category,
    oracle_validate,
    oracle_validate_functor,
)
from poset_oracle import random_galois_instance, random_poset
from veq import algebras as alg
from veq import cats, dsl
from veq import finset as fs
from veq import inserters as inserters_mod
from veq import posets as po
from veq.errors import CarrierTooLarge, InvariantError
from veq.inserters import (
    PolyFunctor,
    SortedSignature,
    free_f_algebra,
    free_universal_map,
    inserter,
    inserter_poset,
    mediating_functor,
    shift_left,
    shift_right,
    sigma_alg_as_inserter,
)
from veq.instances import FinAlgCat, FinCatCat, FinPosetCat, _subcategory_inclusion
from veq.theories import Signature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CC, PC, AC = FinCatCat(), FinPosetCat(), FinAlgCat()
ORACLE = OracleFinCat()


def fields(C: cats.FiniteCategory):
    return (C.name, C.objects, C.morphisms, C.src, C.tgt, C.ids, C.comp)


def assert_same_functor(F: cats.FunctorData, G: cats.FunctorData):
    assert fields(F.source) == fields(G.source)
    assert fields(F.target) == fields(G.target)
    assert F.obj_map == G.obj_map
    assert F.mor_map == G.mor_map


def assert_same_inserter(r, s):
    assert fields(r.category) == fields(s.category)
    assert_same_functor(r.forgetful, s.forgetful)
    assert r.inserted.components == s.inserted.components
    assert r.pairs == s.pairs


def assert_same_product(prod, expected):
    assert fields(prod.obj) == fields(expected.obj)
    for p, q in zip(prod.projections, expected.projections, strict=True):
        assert_same_functor(p, q)
    assert_same_functor(
        prod.tuple_of(list(prod.projections)),
        expected.tuple_of(list(expected.projections)),
    )


def oracle_equalizer(p: cats.FunctorData, q: cats.FunctorData) -> cats.FunctorData:
    C = p.source
    objs = [x for x in C.objects if p.obj_map[x] == q.obj_map[x]]
    morphs = [
        m for m in C.morphisms
        if C.src[m] in objs and C.tgt[m] in objs and p.mor_map[m] == q.mor_map[m]
    ]
    return oracle_subcategory_inclusion(C, objs, morphs)


def assert_pair_matches(F: cats.FunctorData, G: cats.FunctorData):
    """Inserter, mediating functor of its own cone, and equalizer of a
    parallel pair, against the oracle."""
    ins, expected = inserter(F, G), oracle_inserter(F, G)
    assert_same_inserter(ins, expected)
    assert_same_functor(
        mediating_functor(ins, ins.forgetful, ins.inserted),
        oracle_mediating_functor(expected, expected.forgetful, expected.inserted),
    )
    assert_same_functor(CC.equalizer(F, G), oracle_equalizer(F, G))
    return ins


@pytest.fixture
def corpus_cats(monkeypatch):
    """The corpus workspace, with the arguments of every generated category."""
    presented = []
    real = cats.category_from_generators

    def spy(*args):
        presented.append(args)
        return real(*args)

    monkeypatch.setattr(cats, "category_from_generators", spy)
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "cats.veq")])
    return ws, presented


def test_corpus_categories_match_oracle(corpus_cats):
    ws, presented = corpus_cats
    assert len(presented) == len(ws.defs["category"]) > 0
    for args in presented:
        assert fields(ws.get("category", args[0])) == fields(oracle_category_from_generators(*args))
    for C in ws.defs["category"].values():
        for D in ws.defs["category"].values():
            assert_same_product(CC.product([C, D]), oracle_cat_product([C, D]))


def test_presentations_with_relations_match_oracle():
    cases = [
        ("Idem", ["x"], {"e": ("x", "x")}, {("e", "e"): ("e",)}),
        ("Iso", ["a", "b"], {"f": ("a", "b"), "g": ("b", "a")},
         {("g", "f"): (), ("f", "g"): ()}),
        ("Z3", ["x"], {"t": ("x", "x")}, {("t", "t", "t"): ()}),
        ("Square", ["a", "b", "c", "d"],
         {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"), "k": ("c", "d")},
         {("g", "f"): ("k", "h")}),
    ]
    for args in cases:
        assert fields(cats.category_from_generators(*args)) == fields(
            oracle_category_from_generators(*args))
    for objects in ([], ["a"], ["a", "b", "c"]):
        assert fields(cats.discrete_category("D", objects)) == fields(
            oracle_discrete_category("D", objects))


def test_corpus_functor_pairs_and_adjunctions_match_oracle(corpus_cats):
    ws, _ = corpus_cats
    functors = list(ws.defs["functor"].values())
    pairs = 0
    for F in functors:
        for G in functors:
            if F.source == G.source and F.target == G.target:
                assert_pair_matches(F, G)
                pairs += 1
    assert pairs > len(functors)
    shifts = 0
    for adj in ws.defs["adjunction"].values():
        for F in functors:
            if F.source == adj.right.source and F.target == adj.right.target:
                for got, want in zip(shift_left(F, adj.right, adj),
                                     oracle_shift_left(F, adj.right, adj), strict=True):
                    assert_same_functor(got, want)
                shifts += 1
            if F.source == adj.left.source and F.target == adj.left.target:
                for got, want in zip(shift_right(adj.left, F, adj),
                                     oracle_shift_right(adj.left, F, adj), strict=True):
                    assert_same_functor(got, want)
                shifts += 1
    assert shifts >= 3


def test_subcategory_inclusion_rejects_what_the_oracle_rejects():
    C = po.to_category(po.chain("P", ["0", "1", "2"]))
    good = (["0", "1"], ["0->0", "0->1", "1->1"])
    missing_identity = (["0", "1"], ["0->0", "0->1"])
    not_closed = (["0", "1", "2"], ["0->0", "1->1", "2->2", "0->1", "1->2"])
    assert_same_functor(_subcategory_inclusion(C, *good), oracle_subcategory_inclusion(C, *good))
    for objs, morphs in (missing_identity, not_closed):
        with pytest.raises(InvariantError):
            oracle_subcategory_inclusion(C, objs, morphs)
        with pytest.raises(InvariantError):
            _subcategory_inclusion(C, objs, morphs)


def _galois_setup(rng):
    A, B, G, H = random_galois_instance(rng)
    return A, B, G, H, po.adjunction_from_galois(H, G)


def test_galois_shifts_match_oracle():
    # the corpora of test_inserters' shift round-trip tests
    rng = random.Random(23)
    for _ in range(10):
        A, B, G, H, adj = _galois_setup(rng)
        F = po.to_functor(rng.choice(PC.hom(A, B)))
        for got, want in zip(shift_left(F, adj.right, adj),
                             oracle_shift_left(F, adj.right, adj), strict=True):
            assert_same_functor(got, want)
        assert_pair_matches(F, adj.right)
    rng = random.Random(29)
    for _ in range(10):
        A, B, G, H, adj = _galois_setup(rng)
        second = po.to_functor(rng.choice(PC.hom(B, A)))
        for got, want in zip(shift_right(adj.left, second, adj),
                             oracle_shift_right(adj.left, second, adj), strict=True):
            assert_same_functor(got, want)


@pytest.mark.parametrize("ops", [
    (),
    (("u", ("s",), "s"),),
    (("m", ("s", "s"), "s"),),
])
def test_signature_algebras_match_oracle(monkeypatch, ops):
    builds, inserted = [], []
    real_build, real_inserter = inserters_mod._FamilyCatBuilder.build, inserters_mod.inserter

    def spy_build(self, name):
        builds.append((self, name, real_build(self, name)))
        return builds[-1][2]

    def spy_inserter(F, G, name=None):
        inserted.append((F, G, name, real_inserter(F, G, name)))
        return inserted[-1][3]

    monkeypatch.setattr(inserters_mod._FamilyCatBuilder, "build", spy_build)
    monkeypatch.setattr(inserters_mod, "inserter", spy_inserter)
    sig = SortedSignature(("s",), ops)
    report = sigma_alg_as_inserter(sig, 2)
    assert report["matched"] is True
    assert [name for _, name, _ in builds] == ["SetFam", "OpFam"]
    for builder, name, cat in builds:
        assert fields(cat) == fields(oracle_family_build(builder, name))
    [(F, G, name, ins)] = inserted
    assert_same_inserter(ins, oracle_inserter(F, G, name))
    base_b, _, base_cat = builds[0]
    got = report["direct_category"]
    want = oracle_sigalg_direct(sig, base_b, base_cat)
    # arrows come out grouped by object pair, the oracle's by base arrow
    assert len(got.morphisms) == len(want.morphisms)
    assert set(got.morphisms) == set(want.morphisms)
    assert (got.name, got.objects, got.src, got.tgt, got.ids, got.comp) == (
        want.name, want.objects, want.src, want.tgt, want.ids, want.comp)
    assert report["morphism_count"] == len(want.morphisms)


def test_free_universal_maps_match_oracle():
    B = fs.FinSetObj(("0", "1", "2"))
    numerals = PolyFunctor((("succ", 1), ("zero", 0)))
    pairs = PolyFunctor((("pair", 2), ("leaf", 0)))
    rng = random.Random(5)
    for functor, gens, depth in ((numerals, (), 3), (numerals, ("g",), 2), (pairs, ("g",), 1)):
        free = free_f_algebra(functor, fs.FinSetObj(gens), depth)
        applied = functor.on_set(B)
        for _ in range(4):
            target = fs.FinFunction(applied, B, tuple(rng.choice(B.elements) for _ in applied.elements))
            gen_map = fs.FinFunction(free.generators, B, tuple(rng.choice(B.elements) for _ in gens))
            for exhaustive in (False, True):
                assert free_universal_map(free, target, gen_map, exhaustive) == (
                    oracle_free_universal_map(free, target, gen_map, exhaustive))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(1, 4))
def test_poset_categories_match_oracle(seed, m, n):
    rng = random.Random(seed)
    P, Q = random_poset(rng, m, "P"), random_poset(rng, n, "Q")
    CP, CQ = po.to_category(P), po.to_category(Q)
    assert fields(CP) == fields(oracle_to_category(P))
    assert fields(CQ) == fields(oracle_to_category(Q))
    assert_same_product(CC.product([CP, CQ]), oracle_cat_product([CP, CQ]))
    maps = PC.hom(P, Q)
    f, g = rng.choice(maps), rng.choice(maps)
    ins = assert_pair_matches(po.to_functor(f, CP, CQ), po.to_functor(g, CP, CQ))
    kept, _ = inserter_poset(f, g)
    assert [ins.pairs[p][0] for p in ins.category.objects] == list(kept.elements)


def corrupt(rng, C: cats.FiniteCategory):
    """C's seven fields with one table entry broken at random."""
    name, objects, morphisms, src, tgt, ids, comp = fields(C)
    src, tgt, ids, comp = dict(src), dict(tgt), dict(ids), dict(comp)
    kind = rng.randrange(6)
    key = rng.choice(sorted(comp))
    if kind == 0:  # any arrow as a composite
        comp[key] = rng.choice(morphisms)
    elif kind == 1:  # a parallel arrow as a composite
        g, f = key
        comp[key] = rng.choice(C.hom(src[f], tgt[g]))
    elif kind == 2:
        del comp[key]
    elif kind == 3:  # an entry for a pair that does not compose
        g, f = rng.choice(morphisms), rng.choice(morphisms)
        comp[(g, f)] = g
    elif kind == 4:
        x = rng.choice(objects)
        ids[x] = rng.choice(C.hom(x, x))
    else:
        tgt[rng.choice(morphisms)] = rng.choice(objects)
    return name, objects, morphisms, src, tgt, ids, comp


def validation_error(check, *args):
    try:
        check(*args)
    except InvariantError as e:
        return str(e)
    return None


def test_corrupted_categories_fail_as_the_oracle_fails(corpus_cats):
    ws, _ = corpus_cats
    corpus = list(ws.defs["category"].values())
    corpus += [CC.product([C, D]).obj for C in corpus for D in corpus]
    corpus += [inserter(F, G).category for F in ws.defs["functor"].values()
               for G in ws.defs["functor"].values()
               if F.source == G.source and F.target == G.target]
    corpus.append(cats.category_from_generators(
        "Z3", ["x"], {"t": ("x", "x")}, {("t", "t", "t"): ()}))
    corpus.append(cats.category_from_generators(
        "Square", ["a", "b", "c", "d"],
        {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"), "k": ("c", "d")},
        {("g", "f"): ("k", "h")}))
    corpus = [C for C in corpus if C.morphisms]
    rng = random.Random(20231007)
    messages = set()
    for _ in range(400):
        args = corrupt(rng, rng.choice(corpus))
        expected = validation_error(oracle_validate, *args)
        assert validation_error(cats.FiniteCategory, *args) == expected
        messages.add(expected and expected.split(": ", 1)[1].split(" ")[0])
    # every kind of failure is reached, associativity among them
    assert {"associativity", "composition", "composite", "right", "left",
            "bad"} <= messages


@pytest.mark.parametrize("key", [("zz", "f"), ("f", "zz")])
def test_a_composition_key_with_an_unknown_arrow_is_rejected(key):
    # the oracle never looks at such a key and accepts the category; a
    # functor out of it then failed with a bare KeyError
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "cats.veq")])
    P2 = ws.get("category", "P2")
    comp = {**P2.comp, key: "f"}
    args = ("P2", P2.objects, P2.morphisms, P2.src, P2.tgt, P2.ids, comp)
    assert validation_error(oracle_validate, *args) is None
    with pytest.raises(InvariantError, match=(
            rf"^P2: composition table key \({key[0]}, {key[1]}\) names an unknown arrow$")):
        cats.FiniteCategory(*args)


# -- FinCat on the table-category base -------------------------------------------

T = cats.tabulate_category("T", ["a"], {"a": ("a", "a")}, {"a": "a"}, lambda g, f: "a")


def fincat_inputs():
    """The corpus categories, six random thin categories, the Idem and Iso
    presentations, and T, whose object and identity arrow are both `a`."""
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "cats.veq")])
    rng = random.Random(8)
    return (
        list(ws.defs["category"].values())
        + [po.to_category(random_poset(rng, rng.randint(1, 3), f"R{i}")) for i in range(6)]
        + [cats.category_from_generators("Idem", ["x"], {"e": ("x", "x")}, {("e", "e"): ("e",)}),
           cats.category_from_generators("Iso", ["a", "b"], {"f": ("a", "b"), "g": ("b", "a")},
                                         {("g", "f"): (), ("f", "g"): ()}),
           T]
    )


def assert_same_result(got, want):
    if want is None:
        assert got is None
    else:
        assert_same_functor(got, want)


def test_fincat_constructions_match_oracle():
    inputs = fincat_inputs()
    homs = {(C.name, D.name): cats.all_functors(C, D) for C in inputs for D in inputs}
    counts = dict.fromkeys(("equalizer", "intersection", "pullback", "factor", "non-mono"), 0)
    for D in inputs:
        into = [F for C in inputs for F in homs[(C.name, D.name)]]
        monos = [F for F in into if ORACLE.is_mono(F)]
        for F in into:
            assert CC.is_mono(F) == ORACLE.is_mono(F)
        for C in inputs:
            parallel = homs[(C.name, D.name)]
            subs = []
            for p in parallel:
                for q in parallel:
                    subs.append(CC.equalizer(p, q))
                    assert_same_functor(subs[-1], ORACLE.equalizer(p, q))
                    counts["equalizer"] += 1
            for a in monos + subs[::4]:
                for b in monos + subs[::4]:
                    if a.target == b.target == C:
                        assert_same_functor(CC.intersection([a, b]), ORACLE.intersection([a, b]))
                        counts["intersection"] += 1
        for f in into:
            for m in into:
                if len(f.source.morphisms) * len(m.source.morphisms) <= 9:
                    for got, want in zip(CC.pullback(f, m), ORACLE.pullback(f, m), strict=True):
                        assert_same_functor(got, want)
                    counts["pullback"] += 1
                if len(f.source.morphisms) <= 3 and len(m.source.morphisms) <= 3:
                    assert_same_result(CC.factor(f, m), ORACLE.factor(f, m))
                    counts["factor"] += 1
                    counts["non-mono"] += not ORACLE.is_mono(m)
    assert min(counts.values()) > 100


def test_fincat_tags_keep_objects_and_arrows_apart():
    X = cats.discrete_category("X", ["x"])
    F = cats.FunctorData(X, T, {"x": "a"}, {"id_x": "a"})
    assert CC.is_mono(F) and ORACLE.is_mono(F)
    h = CC.factor(F, CC.identity(T))
    assert_same_functor(h, ORACLE.factor(F, CC.identity(T)))
    assert_same_functor(CC.intersection([F, F]), ORACLE.intersection([F, F]))


def test_fincat_factor_through_a_mono_reads_one_table(monkeypatch):
    chain = [po.to_category(po.chain(f"C{n}", [str(i) for i in range(n)])) for n in (3, 4, 5)]
    g = next(G for G in cats.all_functors(chain[1], chain[2]) if CC.is_mono(G))
    fs_ = cats.all_functors(chain[0], chain[2])
    want = [ORACLE.factor(f, g) for f in fs_]
    monkeypatch.setattr(cats, "all_functors", None)  # the mono case never enumerates
    for f, w in zip(fs_, want, strict=True):
        assert_same_result(CC.factor(f, g), w)
    assert any(w is not None for w in want) and any(w is None for w in want)


def test_fincat_factor_through_a_non_mono_is_capped(monkeypatch):
    D = cats.discrete_category("D", ["0"])
    B = cats.discrete_category("B", ["0", "1"])
    A = cats.discrete_category("A", [f"{i:02d}" for i in range(21)])
    g = next(iter(cats.all_functors(B, D)))
    f = next(iter(cats.all_functors(A, D)))
    # 2^21 functors A -> B, but the first one is found in 42 candidates
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 42)
    h = CC.factor(f, g)
    assert h.obj_map == {x: "0" for x in A.objects}
    assert h.mor_map == {A.ids[x]: B.ids["0"] for x in A.objects}
    assert cats.functors_equal(cats.compose_functors(g, h), f)
    monkeypatch.setattr(fs, "_TABLE_BUDGET", 41)
    with pytest.raises(CarrierTooLarge, match="more than 41 candidates"):
        CC.factor(f, g)


SEMILATTICE = Signature((("meet", 2),))


def table_hom_fields(h):
    def obj(X):
        if isinstance(X, po.Poset):
            return X
        return X.name, X.carrier, X.tables
    return obj(h.dom), obj(h.cod), h.table


@pytest.mark.parametrize("seed", range(6))
def test_table_pullbacks_match_oracle(seed):
    rng = random.Random(seed)
    P, Q, R = (random_poset(rng, rng.randint(1, 3), n) for n in "PQR")
    cases = [(PC, f, m) for f in PC.hom(P, R) for m in PC.hom(Q, R)]
    algebras = [
        alg.make_algebra(n, SEMILATTICE, [str(i) for i in range(k)], {"meet": min})
        for n, k in (("A", rng.randint(1, 3)), ("B", rng.randint(1, 3)), ("S", 2))
    ]
    A, B, S = algebras
    cases += [(AC, f, m) for f in AC.hom(A, S) for m in AC.hom(B, S)]
    for cat, f, m in cases:
        for got, want in zip(cat.pullback(f, m), oracle_table_pullback(cat, f, m), strict=True):
            assert table_hom_fields(got) == table_hom_fields(want)


def corrupt_functor(rng, F: cats.FunctorData):
    """F's object and arrow maps with one entry broken at random."""
    C, D = F.source, F.target
    obj_map, mor_map = dict(F.obj_map), dict(F.mor_map)
    kind = rng.randrange(6)
    if kind == 0:
        obj_map[rng.choice(C.objects)] = rng.choice(D.objects)
    elif kind == 1:
        del obj_map[rng.choice(C.objects)]
    elif kind == 2:
        del mor_map[rng.choice(C.morphisms)]
    elif kind == 3:
        mor_map[rng.choice(C.morphisms)] = rng.choice(D.morphisms)
    else:  # a parallel arrow, which breaks only identities or composition
        m = rng.choice(C.morphisms)
        mor_map[m] = rng.choice(D.hom(D.src[mor_map[m]], D.tgt[mor_map[m]]))
    return C, D, obj_map, mor_map


def test_corrupted_functors_fail_as_the_oracle_fails():
    inputs = fincat_inputs()
    inputs.append(cats.category_from_generators(
        "Z3", ["x"], {"t": ("x", "x")}, {("t", "t", "t"): ()}))
    inputs.append(cats.category_from_generators(
        "Square", ["a", "b", "c", "d"],
        {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"), "k": ("c", "d")},
        {("g", "f"): ("k", "h")}))
    functors = [F for C in inputs for D in inputs
                for F in cats.all_functors(C, D)[:20] if C.morphisms]
    rng = random.Random(20231007)
    messages = set()
    for _ in range(600):
        args = corrupt_functor(rng, rng.choice(functors))
        expected = validation_error(oracle_validate_functor, *args)
        assert validation_error(cats.FunctorData, *args) == expected
        messages.add(expected and expected.split(": ", 1)[1].split(" ")[0])
    # every kind of failure is reached, composition among them
    assert {"object", "morphism", "endpoints", "identity", "composition"} <= messages
