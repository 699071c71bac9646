"""Products and coproducts of the table categories, built once by
finset.product_of and finset.coproduct_of, held to the per-instance
constructions they replaced (finset_oracle, algebra_oracle, poset_oracle),
their tupling and cotupling's leg checks, shared by FinSet, FinAlg and
FinPoset and held by FinCat's tupling too, and their one empty-product
policy."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finset_oracle
from algebra_oracle import oracle_product_algebra
from poset_oracle import oracle_poset_coproduct, oracle_poset_product, random_poset
from veq import algebras as alg
from veq import cats
from veq import finset as fs
from veq import posets as po
from veq.errors import CodMismatch, DomainMismatch, EmptyList
from veq.instances import FinAlgCat, FinCatCat, FinPosetCat, FinSetCat
from veq.theories import Signature

AC = FinAlgCat()
PC = FinPosetCat()

# a constant and a binary symbol; and, as constants forbid an empty
# carrier, a signature without one
WITH_CONSTANT = Signature((("c", 0), ("b", 2)))
NO_CONSTANT = Signature((("u", 1), ("b", 2)))
TERNARY = Signature((("c", 0), ("t", 3)))


def random_set(rng, name):
    return fs.FinSetObj(tuple(f"{name}{i}" for i in range(rng.randint(0, 3))))


def random_function(rng, dom, cod):
    return fs.FinFunction(dom, cod, tuple(rng.choice(cod.elements) for _ in dom.elements))


def random_algebra(rng, sig, name):
    low = 1 if any(arity == 0 for _, arity in sig.ops) else 0
    elems = [str(i) for i in range(rng.randint(low, 3))]
    # carriers out of sorted order, so that product order is not sorted order
    rng.shuffle(elems)
    ops = {
        sym: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)}
        for sym, arity in sig.ops
    }
    return alg.make_algebra(name, sig, elems, ops)


def same_morphism(f, g):
    assert (f.dom, f.cod, f.table) == (g.dom, g.cod, g.table)


def same_product(got, want, legs):
    assert got.obj == want.obj
    assert got.projections == want.projections
    if legs is not None:
        same_morphism(got.tuple_of(legs), want.tuple_of(legs))


def same_coproduct(got, want, legs):
    assert got.obj == want.obj
    assert got.coprojections == want.coprojections
    same_morphism(got.cotuple_of(legs), want.cotuple_of(legs))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_finset_product_and_coproduct_match_oracle(rng, n):
    objs = [random_set(rng, f"x{i}") for i in range(n)]
    apex = random_set(rng, "d")
    legs = [random_function(rng, apex, o) for o in objs] if all(objs) or not apex else None
    same_product(fs.product(objs), finset_oracle.product(objs), legs)
    cod = fs.FinSetObj(("y0", "y1"))
    colegs = [random_function(rng, o, cod) for o in objs]
    same_coproduct(fs.coproduct(objs), finset_oracle.coproduct(objs), colegs)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3),
       st.sampled_from([WITH_CONSTANT, NO_CONSTANT, TERNARY]))
def test_product_algebra_matches_oracle(rng, n, sig):
    As = [random_algebra(rng, sig, f"A{i}") for i in range(n)]
    got, want = alg.product_algebra(As), oracle_product_algebra(As)
    assert got.obj.name == want.obj.name
    # the tables and their entries in the same order: dict == ignores order
    assert [(sym, list(table.items())) for sym, table in got.obj.tables.items()] == [
        (sym, list(table.items())) for sym, table in want.obj.tables.items()]
    # tuple the legs of a random apex, or of the product itself
    apex = random_algebra(rng, sig, "D")
    homs = [AC.hom(apex, A) for A in As]
    legs = [rng.choice(h) for h in homs] if all(homs) else list(want.projections)
    same_product(got, want, legs)
    named = alg.product_algebra(As, "P")
    assert named.obj == oracle_product_algebra(As, "P").obj


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 3))
def test_poset_product_and_coproduct_match_oracle(rng, n):
    objs = [random_poset(rng, rng.randint(0, 3), f"P{i}") for i in range(n)]
    apex = random_poset(rng, rng.randint(0, 3), "D")
    homs = [PC.hom(apex, P) for P in objs]
    legs = [rng.choice(h) for h in homs] if all(homs) else None
    same_product(PC.product(objs), oracle_poset_product(objs), legs)
    cod = random_poset(rng, rng.randint(1, 3), "Y")
    colegs = [rng.choice(PC.hom(P, cod)) for P in objs]
    same_coproduct(PC.coproduct(objs), oracle_poset_coproduct(objs), colegs)


SL = Signature((("meet", 2),))

# per category: its identity, and two distinct objects
CASES = {
    "FinSet": (FinSetCat(), fs.identity, fs.finset("0", "1"), fs.finset("0", "1", "2")),
    "FinAlg": (
        AC, alg.identity_alg_hom,
        alg.make_algebra("A", SL, ["0", "1"], {"meet": min}),
        alg.make_algebra("B", SL, ["0", "1", "2"], {"meet": min}),
    ),
    "FinPoset": (PC, po.identity_map, po.chain("A", ["0", "1"]), po.chain("B", ["0", "1", "2"])),
    "FinCat": (
        FinCatCat(), cats.identity_functor,
        cats.discrete_category("A", ["0", "1"]), cats.discrete_category("B", ["0", "1", "2"]),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_leg_checks_raise_the_finset_errors(name):
    cat, ident, A, B = CASES[name]
    prod = cat.product([A, B])
    with pytest.raises(EmptyList):
        prod.tuple_of([ident(A)])
    with pytest.raises(EmptyList):
        prod.tuple_of([])
    with pytest.raises(DomainMismatch):
        prod.tuple_of([ident(A), ident(B)])
    with pytest.raises(CodMismatch):
        prod.tuple_of([ident(A), ident(A)])
    if not cat.has_coproducts:
        return
    cop = cat.coproduct([A, B])
    with pytest.raises(EmptyList):
        cop.cotuple_of([ident(A)])
    with pytest.raises(CodMismatch):
        cop.cotuple_of([ident(A), ident(B)])
    with pytest.raises(DomainMismatch):
        cop.cotuple_of([ident(A), ident(A)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_empty_products_and_coproducts_are_rejected(name):
    cat = CASES[name][0]
    with pytest.raises(EmptyList, match="^empty products are rejected"):
        cat.product([])
    if cat.has_coproducts:
        with pytest.raises(EmptyList, match="^empty coproducts are rejected$"):
            cat.coproduct([])
