"""finset.search_tables and the searches built on it, against the brute
enumerations kept in the oracles: hom, isomorphism, monotone-map and functor
lists and factorizations compared whole and in order, limit creation reports
and universal-property counts, and the claim that a complete table passes
every check of a law exactly when the validating constructor accepts it.
"""

import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import oracle_all_alg_homs, oracle_find_alg_isomorphism
from category_oracle import (
    oracle_all_functors,
    oracle_limit_creation_report,
    oracle_table_factor,
    oracle_verify_universal_property,
)
from poset_oracle import oracle_all_monotone_maps
from veq import algebras as alg
from veq import cats, dsl
from veq import groups as grp
from veq import posets as po
from veq.errors import CarrierTooLarge, InvariantError
from veq.finset import search_tables
from veq.inserters import inserter, limit_creation_report, verify_universal_property
from veq.instances import FinAlgCat, FinCatCat, FinGrpCat, FinPosetCat
from veq.theories import Signature

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AC, PC, CC, GC = FinAlgCat(), FinPosetCat(), FinCatCat(), FinGrpCat()
SIGNATURES = [
    Signature((("b", 2),)),
    Signature((("u", 1), ("c", 0))),
    Signature((("b", 2), ("u", 1))),
]
GROUPS = grp.corpus()


def small_categories():
    gen = cats.category_from_generators
    return [
        cats.discrete_category("One", ["x"]),
        cats.discrete_category("Two", ["x", "y"]),
        gen("Z2", ["x"], {"t": ("x", "x")}, {("t", "t"): ()}),
        gen("Z3", ["x"], {"t": ("x", "x")}, {("t", "t", "t"): ()}),
        gen("Idem", ["x"], {"e": ("x", "x")}, {("e", "e"): ("e",)}),
        gen("Par", ["a", "b"], {"f": ("a", "b"), "g": ("a", "b")}),
        gen("Arrow", ["a", "b"], {"f": ("a", "b")}),
        gen("Square", ["a", "b", "c", "d"],
            {"f": ("a", "b"), "g": ("b", "d"), "h": ("a", "c"), "k": ("c", "d")},
            {("g", "f"): ("k", "h")}),
        # an object and its identity arrow share the label a
        cats.tabulate_category("T", ["a"], {"a": ("a", "a")}, {"a": "a"}, lambda g, f: "a"),
    ]


def random_algebra(rng, sig, name):
    labels = [str(i) for i in range(rng.randint(1, 3))]
    return alg.make_algebra(name, sig, labels, {
        sym: {args: rng.choice(labels) for args in itertools.product(labels, repeat=k)}
        for sym, k in sig.ops
    })


def relabelled(A, name):
    """A copy of A on shuffled labels, so an isomorphism exists."""
    new = {x: f"r{x}" for x in A.carrier.elements}
    order = sorted(new.values(), reverse=True)
    return alg.make_algebra(name, A.signature, order, {
        sym: {tuple(new[a] for a in args): new[out] for args, out in table.items()}
        for sym, table in A.tables.items()
    })


def related_algebra(rng, A, name):
    """A random algebra, a quotient of A or a relabelled copy of A."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_algebra(rng, A.signature, name)
    if kind == 1:
        return alg.quotient_algebra(A, rng.choice(alg.congruences(A)), name)[0]
    return relabelled(A, name)


def same(got, want, key):
    assert (got is None) == (want is None)
    if got is not None:
        assert key(got) == key(want)


def same_factor(cat, f, g, key):
    """cat.factor against the oracle, which must also raise the same cap."""
    try:
        want = oracle_table_factor(cat, f, g)
    except CarrierTooLarge as e:
        with pytest.raises(CarrierTooLarge, match=str(e)):
            cat.factor(f, g)
    else:
        same(cat.factor(f, g), want, key)


def functor_key(F):
    return F.obj_map, F.mor_map


def functor_table(F):
    return [F.obj_map[x] for x in F.source.objects] + [F.mor_map[m] for m in F.source.morphisms]


def passes(checks, table) -> bool:
    return all(check(table) for position in checks for check in position)


def accepts(build, table) -> bool:
    try:
        build(table)
    except InvariantError:
        return False
    return True


def assert_law_matches_constructor(rng, checks, pools, build, found):
    """Random complete tables, and found tables with one entry redrawn: the
    checks pass exactly when the constructor accepts."""
    tables = [tuple(rng.choice(p) for p in pools) for _ in range(10)]
    for t in found[:5]:
        i = rng.randrange(len(t))
        tables += [t, t[:i] + (rng.choice(pools[i]),) + t[i + 1:]]
    for t in tables:
        assert passes(checks, list(t)) == accepts(build, t)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_searches_match_brute_oracles(seed):
    rng = random.Random(seed)

    # algebras: homs, isomorphisms, factorizations, the law
    sig = rng.choice(SIGNATURES)
    A = random_algebra(rng, sig, "A")
    B = related_algebra(rng, A, "B")
    C = related_algebra(rng, B, "C")
    homs = alg.all_alg_homs(A, B)
    assert [h.table for h in homs] == [h.table for h in oracle_all_alg_homs(A, B)]
    for X, Y in ((A, B), (A, relabelled(A, "R")), (B, C)):
        same(alg.find_alg_isomorphism(X, Y), oracle_find_alg_isomorphism(X, Y), lambda h: h.table)
    for f in alg.all_alg_homs(A, C)[:4]:
        for g in alg.all_alg_homs(B, C)[:4]:
            same_factor(AC, f, g, lambda h: h.table)
    assert_law_matches_constructor(
        rng, AC.law(A, B), [B.carrier.elements] * len(A),
        lambda t: alg.AlgHom(A, B, t), [h.table for h in homs])

    # posets: monotone maps, factorizations, the law
    P, Q, R = (po.random_poset(rng, rng.randint(1, 3), n) for n in "PQR")
    maps = po.all_monotone_maps(P, Q)
    assert [m.table for m in maps] == [m.table for m in oracle_all_monotone_maps(P, Q)]
    into = po.all_monotone_maps(P, R), po.all_monotone_maps(Q, R)
    for f in rng.sample(into[0], min(4, len(into[0]))):
        for g in rng.sample(into[1], min(4, len(into[1]))):
            same_factor(PC, f, g, lambda h: h.table)
    assert_law_matches_constructor(
        rng, PC.law(P, Q), [Q.elements] * len(P),
        lambda t: po.MonotoneMap(P, Q, t), [m.table for m in maps])

    # categories: functors, factorizations, the law
    pool = small_categories() + [po.to_category(P), po.to_category(Q)]
    D, E, Z = (rng.choice(pool) for _ in range(3))
    functors = cats.all_functors(D, E)
    assert [functor_key(F) for F in functors] == [
        functor_key(F) for F in oracle_all_functors(D, E)]
    into = cats.all_functors(D, Z), cats.all_functors(E, Z)
    for f in rng.sample(into[0], min(4, len(into[0]))):
        for g in rng.sample(into[1], min(4, len(into[1]))):
            same_factor(CC, f, g, functor_key)
    n = len(D.objects)
    assert_law_matches_constructor(
        rng, cats.functor_checks(D, E), [E.objects] * n + [E.morphisms] * len(D.morphisms),
        lambda t: cats.FunctorData(D, E, dict(zip(D.objects, t)), dict(zip(D.morphisms, t[n:]))),
        [tuple(functor_table(F)) for F in functors])

    # groups: factorizations through the group algebra, the law
    G, H, K = (GROUPS[rng.choice(["C2", "C3", "C4", "V4", "S3"])] for _ in range(3))
    for f in grp.all_homs(G, K)[:4]:
        for g in grp.all_homs(H, K)[:4]:
            same_factor(GC, f, g, lambda h: h.table)
    assert_law_matches_constructor(
        rng, GC.law(G, H), [H.elements] * len(G),
        lambda t: grp.GroupHom(G, H, t), [h.table for h in grp.all_homs(G, H)])


def limit_inputs():
    """The corpus functor pairs; pairs of endofunctors of Z2, Z3, Idem, Par
    and Square; and 40 functors into the right side of Galois connections."""
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "cats.veq")])
    functors = [ws.get("functor", n) for kind, n in ws.order if kind == "functor"]
    pairs = [(F, G) for F in functors for G in functors
             if F.source is G.source and F.target is G.target]
    for C in small_categories():
        if C.name in ("Z2", "Z3", "Idem", "Par", "Square"):
            ends = cats.all_functors(C, C)[:16]
            pairs += [(F, G) for F in ends for G in ends]
    rng = random.Random(606)
    for _ in range(40):
        A, B, G, H = po.random_galois_instance(rng)
        adj = po.adjunction_from_galois(H, G)
        pairs.append((po.to_functor(rng.choice(po.all_monotone_maps(A, B))), adj.right))
    return pairs


def test_limit_reports_and_universal_property_match_oracle():
    kinds = {"hypothesis": 0, "created": 0, "unique": 0}
    for F, G in limit_inputs():
        report = limit_creation_report(F, G)
        assert report == oracle_limit_creation_report(F, G)
        kinds["hypothesis"] += report["products"]["hypothesis"]
        kinds["created"] += report["equalizers"]["created"] is True
        ins = inserter(F, G)
        if len(ins.category.morphisms) <= 6:
            V, alpha = ins.forgetful, ins.inserted
            got = verify_universal_property(ins, V, alpha)
            assert got == oracle_verify_universal_property(ins, V, alpha)
            kinds["unique"] += got
    assert min(kinds.values()) > 0


def test_search_order_is_product_or_permutation_order():
    pools = [["a", "b"], [], ["c"]]
    assert list(search_tables(pools, [[]] * 3)) == []
    pools = [["a", "b", "c"], ["b", "a"], ["c", "a"]]
    assert list(search_tables(pools, [[]] * 3)) == list(itertools.product(*pools))
    assert list(search_tables([], [])) == [()]
    labels = ["x", "y", "z", "w"]
    got = list(search_tables([labels] * 4, [[]] * 4, injective=True))
    assert got == list(itertools.permutations(labels))
    # a check filed under position 1 prunes every table with t[0] == t[1]
    checks = [[], [lambda t: t[0] != t[1]]]
    assert list(search_tables([labels] * 2, checks)) == list(itertools.permutations(labels, 2))


def test_deep_carrier_needs_no_recursion():
    P = po.antichain("A", [f"a{i}" for i in range(1500)])
    maps = po.all_monotone_maps(P, po.chain("One", ["p"]))
    assert [m.table for m in maps] == [("p",) * 1500]
