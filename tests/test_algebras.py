"""Column-wise term functions, the shared table builder and the closure-based
congruence check, held to the per-assignment oracle in algebra_oracle."""

import itertools
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import (
    oracle_is_congruence,
    oracle_product_tables,
    oracle_term_function,
)
from veq import dsl
from veq import groups as grp
from veq.algebras import (
    FiniteAlgebra,
    Identity,
    is_congruence,
    make_algebra,
    product_algebra,
    quotient_algebra,
    satisfies,
    term_function,
)
from veq.birkhoff import enumerate_terms
from veq.errors import InvariantError, SignatureMismatch, UnboundVariable
from veq.theories import App, Signature, Var

ROOT = os.path.join(os.path.dirname(__file__), "..")

# one symbol of each arity up to 3, the nullary one a constant
SIG = Signature((("c", 0), ("u", 1), ("b", 2), ("t", 3)))
MEET = Signature((("meet", 2),))


def random_algebra(rng: random.Random, size: int) -> FiniteAlgebra:
    elems = [str(i) for i in range(size)]
    ops = {
        sym: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)}
        for sym, arity in SIG.ops
    }
    return make_algebra(f"r{size}", SIG, elems, ops)


def chain3() -> FiniteAlgebra:
    return make_algebra("chain3", MEET, ["0", "1", "2"], {"meet": min})


def corpus_algebras() -> list[FiniteAlgebra]:
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "algebras.veq")])
    return list(ws.defs["algebra"].values())


def set_partitions(elems):
    """Every partition of elems."""
    if not elems:
        yield ()
        return
    first, rest = elems[0], elems[1:]
    for p in set_partitions(rest):
        yield ((first,),) + p
        for i, c in enumerate(p):
            yield p[:i] + ((first,) + c,) + p[i + 1 :]


# -- term functions ----------------------------------------------------------

def test_term_function_matches_oracle_on_corpus():
    algebras = corpus_algebras()
    assert len(algebras) == 3
    for A in algebras:
        for n in range(3):
            for t in enumerate_terms(A.signature, n, 2):
                assert term_function(A, t, n) == oracle_term_function(A, t, n)


@pytest.mark.slow
def test_term_function_matches_oracle_on_random_algebras():
    rng = random.Random(4)
    terms = {n: enumerate_terms(SIG, n, 2) for n in range(3)}
    for _ in range(200):
        A = random_algebra(rng, rng.randint(1, 3))
        for n, ts in terms.items():
            for t in ts:
                assert term_function(A, t, n) == oracle_term_function(A, t, n), (A, t)


@pytest.mark.parametrize(
    "t",
    [
        App("b", (Var(0), Var(5))),  # unbound variable
        App("zz", (Var(0),)),  # unknown symbol
        App("u", (Var(0), Var(1))),  # wrong arity
        # the first offending node in preorder decides
        App("b", (App("zz", (Var(7),)), App("u", ()))),
        App("b", (Var(7), App("zz", ()))),
        App("t", (Var(0), App("b", (Var(1),)), Var(9))),
    ],
)
def test_term_function_errors_match_oracle(t):
    A = random_algebra(random.Random(1), 2)
    with pytest.raises((UnboundVariable, SignatureMismatch)) as want:
        oracle_term_function(A, t, 2)
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        term_function(A, t, 2)


def test_satisfies_reports_the_evaluator_mismatch():
    A = random_algebra(random.Random(1), 2)
    with pytest.raises(SignatureMismatch, match="^symbol zz not in algebra r2$"):
        satisfies(A, Identity(Var(0), App("zz", (Var(0),)), 1))


def test_deep_terms_evaluate():
    flip = make_algebra(
        "flip", SIG, ["0", "1"],
        {
            "c": "0",
            "u": lambda a: "1" if a == "0" else "0",
            "b": lambda a, b: a,
            "t": lambda a, b, c: a,
        },
    )
    t = Var(0)
    for _ in range(1500):
        t = App("u", (t,))
    assert term_function(flip, t, 1) == ("0", "1")
    assert term_function(flip, App("u", (t,)), 2) == ("1", "1", "0", "0")
    assert satisfies(flip, Identity(t, t, 2))
    assert satisfies(flip, Identity(t, Var(0), 1))
    bad = App("zz", ())
    for _ in range(1500):
        bad = App("b", (bad, Var(0)))
    with pytest.raises(SignatureMismatch, match="^symbol zz not in algebra flip$"):
        term_function(flip, bad, 1)


# -- tables --------------------------------------------------------------------

def test_product_tables_match_oracle_with_a_constant():
    g = grp.corpus()
    factors = [grp.group_to_algebra(g["C2"]), grp.group_to_algebra(g["C3"])]
    P = product_algebra(factors).obj
    assert P.tables == oracle_product_tables(factors)
    assert P.tables["e"] == {(): "(0,0)"}


# -- congruences -----------------------------------------------------------------

def test_is_congruence_matches_oracle_on_every_partition():
    rng = random.Random(5)
    algebras = corpus_algebras() + [
        random_algebra(rng, size) for size in (1, 2, 3, 4) for _ in range(10)
    ]
    algebras += [chain3(), grp.group_to_algebra(grp.corpus()["C4"])]
    for A in algebras:
        assert len(A) <= 4
        for p in set_partitions(A.carrier.elements):
            # neither answer depends on the order of classes or members
            shuffled = tuple(tuple(reversed(c)) for c in reversed(p))
            assert is_congruence(A, p) == oracle_is_congruence(A, p), (A, p)
            assert is_congruence(A, shuffled) == is_congruence(A, p)


@pytest.mark.parametrize(
    "partition",
    [
        (("0", "1"), ("1", "2")),  # overlapping classes
        (("0", "1"), ("2",), ()),  # an empty class
        (("0", "1", "1"), ("2",)),  # a repeated member
        (("0", "1"),),  # a missing element
        (("0", "1"), ("2", "3")),  # a foreign element
    ],
)
def test_is_congruence_rejects_non_partitions(partition):
    A = chain3()
    assert is_congruence(A, (("0", "1"), ("2",)))
    assert not is_congruence(A, partition)


def test_quotient_rejects_overlapping_classes():
    with pytest.raises(InvariantError, match="not operation-compatible"):
        quotient_algebra(chain3(), (("0", "1"), ("1", "2")))


# -- properties ------------------------------------------------------------------

@st.composite
def algebras(draw):
    elems = [str(i) for i in range(draw(st.integers(1, 3)))]
    ops = {
        sym: {
            args: draw(st.sampled_from(elems))
            for args in itertools.product(elems, repeat=arity)
        }
        for sym, arity in SIG.ops
    }
    return make_algebra("h", SIG, elems, ops)


def _apply(sym):
    return lambda args: App(sym, tuple(args))


terms = st.recursive(
    st.one_of(st.builds(Var, st.integers(0, 1)), st.just(App("c", ()))),
    lambda sub: st.one_of(
        st.tuples(sub).map(_apply("u")),
        st.tuples(sub, sub).map(_apply("b")),
        st.tuples(sub, sub, sub).map(_apply("t")),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(algebras(), terms, terms)
def test_term_function_and_satisfies_properties(A, lhs, rhs):
    assert term_function(A, lhs, 2) == oracle_term_function(A, lhs, 2)
    assert satisfies(A, Identity(lhs, rhs, 2)) == satisfies(A, Identity(rhs, lhs, 2))
    assert satisfies(A, Identity(lhs, rhs, 2)) == (
        oracle_term_function(A, lhs, 2) == oracle_term_function(A, rhs, 2)
    )
