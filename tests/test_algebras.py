"""Column-wise term functions and their subterm memo, the shared table
builder, congruence closure by pair propagation, the congruence lattice's
union-find joins and the closure-based congruence check, held to the
per-assignment, fold-based, memo-free column-wise and fixed-point oracles in
algebra_oracle. The memo's tests also check that it lets go of an algebra it
leaves and never holds more column entries than its cap."""

import gc
import itertools
import os
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_oracle import (
    oracle_columnwise_term_function,
    oracle_congruence_closure,
    oracle_congruences,
    oracle_fold_term_function,
    oracle_is_congruence,
    oracle_product_tables,
    oracle_term_function,
)
from veq import algebras as alg
from veq import dsl
from veq import groups as grp
from veq.algebras import (
    AlgHom,
    FiniteAlgebra,
    Identity,
    congruence_closure,
    congruences,
    identity_alg_hom,
    is_congruence,
    make_algebra,
    product_algebra,
    projections,
    quotient_algebra,
    satisfies,
    term_function,
)
from veq.birkhoff import enumerate_terms, identities_of
from veq.errors import DomainMismatch, InvariantError, SignatureMismatch, UnboundVariable
from veq.instances import FinGrpCat
from veq.finset import FinSetObj
from veq.theories import App, Signature, Var, _fold

ROOT = os.path.join(os.path.dirname(__file__), "..")

# one symbol of each arity up to 3, the nullary one a constant
SIG = Signature((("c", 0), ("u", 1), ("b", 2), ("t", 3)))
MEET = Signature((("meet", 2),))


def random_algebra(rng: random.Random, size: int, sig: Signature = SIG) -> FiniteAlgebra:
    elems = [str(i) for i in range(size)]
    ops = {
        sym: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)}
        for sym, arity in sig.ops
    }
    return make_algebra(f"r{size}", sig, elems, ops)


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


def test_term_function_matches_fold_oracle_on_random_algebras():
    rng = random.Random(8)
    terms = {n: enumerate_terms(SIG, n, 2) for n in range(3)}
    terms[3] = enumerate_terms(SIG, 3, 1)
    for _ in range(12):
        A = random_algebra(rng, rng.randint(1, 4))
        for n, ts in terms.items():
            for t in ts:
                assert term_function(A, t, n) == oracle_fold_term_function(A, t, n), (A, t)


def test_projections_are_fresh_lists():
    A = chain3()
    first = projections(A, 2)
    assert first == [("0", "0", "0", "1", "1", "1", "2", "2", "2"),
                     ("0", "1", "2", "0", "1", "2", "0", "1", "2")]
    first.append(None)
    assert projections(A, 2) is not first and len(projections(A, 2)) == 2
    empty = make_algebra("empty", MEET, [], {"meet": min})
    assert projections(empty, 2) == [(), ()]
    assert term_function(empty, App("meet", (Var(0), Var(1))), 2) == ()


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
    for evaluate in (oracle_fold_term_function, term_function):
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            evaluate(A, t, 2)


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
    factors = [g["C2"], g["C3"]]
    P = product_algebra(factors).obj
    assert P.tables == oracle_product_tables(factors)
    assert P.tables["e"] == {(): "(0,0)"}


# -- congruences -----------------------------------------------------------------

def test_is_congruence_matches_oracle_on_every_partition():
    rng = random.Random(5)
    algebras = corpus_algebras() + [
        random_algebra(rng, size) for size in (1, 2, 3, 4) for _ in range(10)
    ]
    algebras += [chain3(), grp.corpus()["C4"]]
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


def pair_lists(rng: random.Random, elems):
    """Pair lists for a closure: empty, a diagonal pair, a repeated pair, and
    random pairs."""
    a, b = rng.choice(elems), rng.choice(elems)
    yield []
    yield [(a, a)]
    yield [(a, b), (a, b)]
    yield [(b, a), (a, a), (a, b)]
    for _ in range(3):
        yield [(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(1, 3))]


def test_congruence_closure_and_lattice_match_oracle_on_random_algebras():
    rng = random.Random(15)
    # every subset of the arities 0-3, over carriers of 1 to 5 elements
    sigs = [Signature(ops) for r in range(1, 5) for ops in itertools.combinations(SIG.ops, r)]
    for sig in sigs:
        for size in range(1, 6):
            for _ in range(2):
                A = random_algebra(rng, size, sig)
                for pairs in pair_lists(rng, A.carrier.elements):
                    assert congruence_closure(A, pairs) == oracle_congruence_closure(A, pairs), (
                        A, pairs)
                assert congruences(A) == oracle_congruences(A), A


def test_congruence_closure_matches_oracle_on_corpus_groups():
    for G in grp.corpus().values():
        e, elems = grp.identity(G), G.carrier.elements
        for gens in [[x] for x in elems] + [list(elems[1:3]), []]:
            pairs = [(g, e) for g in gens]
            want = oracle_congruence_closure(G, pairs)
            assert congruence_closure(G, pairs) == want, (G.name, gens)
            assert grp.normal_closure(G, gens) == next(c for c in want if e in c)
        if len(G) <= 8:
            assert congruences(G) == oracle_congruences(G), G.name


def test_congruence_closure_rejects_labels_outside_the_carrier():
    with pytest.raises(InvariantError, match="^pair element zz not in carrier$"):
        congruence_closure(chain3(), [("zz", "0")])
    with pytest.raises(InvariantError, match="^pair element 9 not in carrier$"):
        congruence_closure(chain3(), [("0", "1"), ("2", "9")])
    G = grp.corpus()["S3"]
    with pytest.raises(InvariantError, match="^pair element nope not in carrier$"):
        FinGrpCat().quotient(G, [("e", "nope")])


def test_alg_hom_reports_the_first_failure_in_product_order():
    # tables listed in reverse product order; the check still walks
    # itertools.product order, so the first failing entry is unchanged
    A = chain3()
    rev = FiniteAlgebra("rev", MEET, A.carrier,
                        {"meet": dict(reversed(list(A.tables["meet"].items())))})
    assert list(rev.tables["meet"])[0] == ("2", "2")
    with pytest.raises(InvariantError, match=r"^not a homomorphism at meet\('0', '1'\)$"):
        AlgHom(rev, A, ("1", "0", "2"))
    with pytest.raises(InvariantError, match=r"^not a homomorphism at meet\('1', '2'\)$"):
        AlgHom(rev, A, ("0", "2", "1"))
    assert AlgHom(rev, A, ("0", "0", "1")).table == ("0", "0", "1")


def test_alg_hom_rejects_labels_outside_its_algebras():
    A = chain3()
    with pytest.raises(DomainMismatch):
        identity_alg_hom(A)("zz")
    with pytest.raises(InvariantError, match="outside codomain"):
        AlgHom(A, A, ("0", "1", "zz"))


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


# -- the subterm memo --------------------------------------------------------------

def _fresh_copy(t):
    """A term equal to t that shares no node with it."""
    return _fold(t, lambda u: Var(u.index) if u.__class__ is Var else None,
                 lambda u, args: App(u.symbol, tuple(args)))


def _outcome(evaluate, A, t, n):
    try:
        return evaluate(A, t, n)
    except (UnboundVariable, SignatureMismatch) as e:
        return type(e), str(e)


@st.composite
def memo_sessions(draw):
    """Algebras, and calls (algebra, term, n, fresh) over a pool of terms
    built on each other, so that terms share subterms; a term may hold an
    unknown symbol, a wrong arity or an unbound variable after well-formed
    arguments, so that it raises after a prefix was evaluated."""
    A, B = draw(algebras()), draw(algebras())
    # equal tables over carriers in two label orders, and an equal copy of A
    flipped = FiniteAlgebra(A.name, A.signature,
                            FinSetObj(A.carrier.elements[::-1]), A.tables)
    twin = FiniteAlgebra(A.name, A.signature, A.carrier, A.tables)
    pool = [Var(0), Var(1), Var(2), App("c", ())]
    for _ in range(draw(st.integers(1, 12))):
        sym, arity = draw(st.sampled_from(SIG.ops[1:] + (("zz", 1),)))
        arity += draw(st.sampled_from((0, 0, 0, 0, 1)))
        pool.append(App(sym, tuple(draw(st.sampled_from(pool)) for _ in range(arity))))
    calls = draw(st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(pool), st.integers(0, 3), st.booleans()),
        min_size=1, max_size=24))
    return [A, flipped, B, twin], calls


@settings(derandomize=True, max_examples=300, deadline=None)
@given(memo_sessions())
def test_memoized_term_function_matches_columnwise_oracle(session):
    algebras_, calls = session
    for which, t, n, fresh in calls:
        A = algebras_[which]
        if fresh:
            t = _fresh_copy(t)
        assert _outcome(term_function, A, t, n) == _outcome(
            oracle_columnwise_term_function, A, t, n), (A, t, n)


def test_a_failed_term_keeps_its_evaluated_prefix_and_its_error():
    A = random_algebra(random.Random(2), 3)
    prefix = App("b", (App("u", (Var(0),)), Var(1)))
    bad = App("t", (prefix, App("zz", ()), Var(0)))
    for _ in range(2):
        with pytest.raises(SignatureMismatch, match="^symbol zz not in algebra r3$"):
            term_function(A, bad, 2)
        assert prefix in alg._memo.memoized
    assert term_function(A, prefix, 2) == oracle_columnwise_term_function(A, prefix, 2)
    with pytest.raises(UnboundVariable, match="^variable 1 not assigned$"):
        term_function(A, prefix, 1)


def test_memo_lets_go_of_the_algebra_it_leaves():
    A, B = chain3(), make_algebra("max3", MEET, ["0", "1", "2"], {"meet": max})
    ref = weakref.ref(A)
    t = App("meet", (Var(0), App("meet", (Var(1), Var(0)))))
    assert term_function(A, t, 2) == oracle_columnwise_term_function(A, t, 2)
    assert term_function(B, t, 2) == oracle_columnwise_term_function(B, t, 2)
    del A
    gc.collect()
    assert ref() is None


def test_memo_never_holds_more_cells_than_its_cap(monkeypatch):
    cells = []

    class Watched(dict):
        def __setitem__(self, key, column):
            super().__setitem__(key, column)
            cells.append(len(self) * len(column))

    init = alg._SubtermMemo.__init__

    def watched_init(memo, A, n):
        init(memo, A, n)
        memo.memoized = Watched()

    monkeypatch.setattr(alg._SubtermMemo, "__init__", watched_init)
    magma = Signature((("mul", 2),))
    rng = random.Random(5)
    A = random_algebra(rng, 4, magma)
    identities_of(A, 3, 2)
    assert cells
    # 420 terms of 4^4 entries each hold more than the cap: the memo empties
    terms = enumerate_terms(magma, 4, 2)
    assert len(terms) * 4 ** 4 > alg._MEMO_CELLS
    for t in terms:
        assert term_function(A, t, 4) == oracle_columnwise_term_function(A, t, 4)
    # it fills to the cap exactly, and never past it
    assert max(cells) == alg._MEMO_CELLS
    # under a cap below one column, no column is kept
    cells.clear()
    monkeypatch.setattr(alg, "_MEMO_CELLS", 8)
    t = App("mul", (App("mul", (Var(0), Var(1))), Var(0)))
    B = random_algebra(rng, 3, magma)
    assert term_function(B, t, 2) == oracle_columnwise_term_function(B, t, 2)
    assert cells == [] and not alg._memo.memoized
