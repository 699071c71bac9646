"""Identity extraction against the oracle that decides every pair by the
full-budget proof search, and the small countermodels that now refute pairs
before it, checked as certificates, against a brute-force table search and
against the countermodel search veq used before forced values."""

import gc
import itertools
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from birkhoff_oracle import oracle_identities_of, oracle_normal_form
from model_oracle import oracle_search
from veq import _models, birkhoff, cli, dsl
from veq.algebras import FiniteAlgebra, Identity, make_algebra, satisfies
from veq.birkhoff import (
    _PROOF_PREFIX,
    hsp_member,
    identities_of,
    replay_hsp_witness,
)
from veq.finset import FinSetObj
from veq.groups import GROUP_SIG
from veq.theories import App, Normalizer, Signature, Var, _ProofSearch, term_size, term_vars

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAGMA = Signature((("mul", 2),))


def magma(name, values, n):
    elems = [str(i) for i in range(n)]
    table = dict(zip(itertools.product(elems, repeat=2), map(str, values)))
    return make_algebra(name, MAGMA, elems, {"mul": table})


def two_element_magmas():
    return [magma(f"m2_{i}", v, 2) for i, v in enumerate(itertools.product(range(2), repeat=4))]


def seeded_three_element_magmas():
    rng = random.Random(7)
    return [magma(f"m3_{i}", [rng.randrange(3) for _ in range(9)], 3) for i in range(40)]


def corpus_algebras():
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "algebras.veq")])
    return list(ws.defs["algebra"].values())


def z2_algebra():
    return make_algebra("z2", GROUP_SIG, ["0", "1"], {
        "mul": lambda a, b: str((int(a) + int(b)) % 2), "inv": lambda a: a, "e": "0"})


# the third seeded magma: its identities give the rule
# mul(mul(x1,x1),x0) -> mul(x0,x0), which maps mul(mul(x0,x0),mul(x0,x0)) to itself
LOOPING = magma("looping", [0, 0, 2, 1, 0, 2, 0, 0, 2], 3)
x0, x1, x2 = Var(0), Var(1), Var(2)


def mul(a, b):
    return App("mul", (a, b))


@pytest.fixture(autouse=True)
def bounded_rewrites(monkeypatch):
    """Each rewrite of a normal form shrinks the term, so one normal form
    takes fewer rewrites than the term's size; past that, fail rather than
    hang."""
    left = [0]
    real_normal_form, real_shrink = Normalizer.normal_form, Normalizer._shrink

    def normal_form(self, t):
        left[0] = term_size(t)
        return real_normal_form(self, t)

    def shrink(self, u):
        smaller = real_shrink(self, u)
        if smaller is not None:
            left[0] -= 1
            assert left[0] > 0, "normal form does not terminate"
        return smaller

    monkeypatch.setattr(Normalizer, "normal_form", normal_form)
    monkeypatch.setattr(Normalizer, "_shrink", shrink)


@pytest.fixture
def countermodels(monkeypatch):
    """Check every countermodel identities_of finds as a certificate: the
    kept identities hold in it and the refuted pair fails. Yields the list
    of those found."""
    found = []
    real = birkhoff.countermodel

    def checked(signature, axioms, lhs, rhs, sizes, nodes):
        M = real(signature, axioms, lhs, rhs, sizes, nodes)
        if M is not None:
            assert isinstance(M, FiniteAlgebra) and M.signature == signature
            assert len(M.carrier) in sizes
            context = 1 + max((v for t in (lhs, rhs, *itertools.chain(*axioms))
                               for v in term_vars(t)), default=0)
            for l, r in axioms:
                assert satisfies(M, Identity(l, r, context))
            assert not satisfies(M, Identity(lhs, rhs, context))
            found.append(M)
        return M

    monkeypatch.setattr(birkhoff, "countermodel", checked)
    return found


def normal_form(rules, t):
    normalizer = Normalizer(rules)
    return normalizer.store.term(normalizer.normal_form(t))


def test_normal_form_applies_only_shrinking_instances():
    rules = [(mul(mul(x1, x1), x0), mul(x0, x0))]
    square = mul(x0, x0)
    t = mul(square, square)
    assert normal_form(rules, t) == t
    assert normal_form(rules, mul(square, x1)) == mul(x1, x1)


def test_normal_form_rewrites_outermost_first():
    # Meet2's rules; rewriting the innermost subterm first would give
    # mul(x0,mul(x2,x0))
    rules = [(mul(x0, x0), x0), (mul(mul(x1, x1), mul(x0, x1)), mul(x0, x1))]
    t = mul(mul(x0, x0), mul(x2, x0))
    assert normal_form(rules, t) == mul(x2, x0) == oracle_normal_form(t, rules)


def test_normal_form_keeps_a_variable_only_on_the_small_side():
    # proof search leaves out such a direction; here x0 stands for itself
    rules = [(mul(mul(x1, x1), x1), mul(x0, x0))]
    t = mul(mul(x2, x2), x2)
    assert normal_form(rules, t) == mul(x0, x0) == oracle_normal_form(t, rules)


@pytest.mark.parametrize("budget", [20, 300])
def test_identities_terminate_on_a_non_shrinking_rule(budget):
    got = identities_of(LOOPING, 2, 2, budget=budget)
    assert got == oracle_identities_of(LOOPING, 2, 2, budget=budget)
    assert Identity(mul(x0, x0), mul(mul(x1, x1), x0), 2) in got


def test_cli_terminates_on_a_non_shrinking_rule(tmp_path, capsys):
    ws = tmp_path / "looping.veq"
    ws.write_text(
        "algebra L on {0, 1, 2} { op mul/2 = {(0,0) -> 0, (0,1) -> 0, (0,2) -> 2, "
        "(1,0) -> 1, (1,1) -> 0, (1,2) -> 2, (2,0) -> 0, (2,1) -> 0, (2,2) -> 2} }\n"
        "algebra Flip2 on {0, 1} { op mul/2 = {(0,0) -> 1, (0,1) -> 1, (1,0) -> 1, (1,1) -> 0} }\n")
    assert cli.main(["identities", "L", "-f", str(ws)]) == 0
    assert "mul(x0,x0) ~ mul(mul(x1,x1),x0)" in capsys.readouterr().out.splitlines()
    assert cli.main(["hsp", "Flip2", "L", "-f", str(ws)]) == 1
    assert "violated identity: x0 ~ mul(x0,mul(x0,x0))" in capsys.readouterr().out


@pytest.mark.parametrize("budget", [20, 300])
def test_identities_of_matches_oracle_on_two_element_magmas(budget, countermodels):
    for A in two_element_magmas():
        assert identities_of(A, 2, 2, budget=budget) == oracle_identities_of(A, 2, 2, budget=budget)
    # a budget within the proof prefix runs the one search, as the oracle does
    assert bool(countermodels) == (budget > _PROOF_PREFIX)


def test_identities_of_matches_oracle_on_corpus_and_z2(countermodels):
    for A in corpus_algebras():
        for n_vars, depth in ((1, 3), (2, 2)):
            for raw in (False, True):
                want = oracle_identities_of(A, n_vars, depth, raw)
                assert identities_of(A, n_vars, depth, raw) == want
    z2 = z2_algebra()
    for n_vars, depth in ((1, 3), (2, 2)):
        assert identities_of(z2, n_vars, depth) == oracle_identities_of(z2, n_vars, depth)
    assert countermodels


@pytest.mark.parametrize("budget", [20, 300])
def test_identities_of_matches_oracle_on_seeded_three_element_magmas(budget, countermodels):
    for A in seeded_three_element_magmas():
        assert identities_of(A, 2, 2, budget=budget) == oracle_identities_of(A, 2, 2, budget=budget)
    assert bool(countermodels) == (budget > _PROOF_PREFIX)


def test_hsp_violated_identity_is_the_oracles_first():
    rng = random.Random(17)
    pool = two_element_magmas() + seeded_three_element_magmas()[:6]
    non_members = 0
    for _ in range(24):
        A = rng.choice(two_element_magmas())
        B = rng.choice(pool)
        res = hsp_member(B, A, k_max=2)
        if res.yes:
            continue
        non_members += 1
        want = next((i for i in oracle_identities_of(A, 2, 2) if not satisfies(B, i)), None)
        assert res.violated_identity == want
    assert non_members >= 10


@pytest.fixture
def searches(monkeypatch):
    """Counts the proof searches built, by congruent or by identities_of."""
    built = [0]
    real = _ProofSearch.__init__

    def counted(self, *args):
        built[0] += 1
        real(self, *args)

    monkeypatch.setattr(_ProofSearch, "__init__", counted)
    return built


def test_hsp_stops_at_the_first_violated_identity(searches):
    # Flip2 violates Meet2's first identity, which needs no proof search
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "algebras.veq")])
    res = hsp_member(ws.get("algebra", "Flip2"), ws.get("algebra", "Meet2"))
    assert res.violated_identity == Identity(x0, mul(x0, x0), 2)
    assert searches == [0]


def test_each_pair_builds_at_most_one_search(searches, monkeypatch):
    """Past the proof prefix and a failed model search, the prefix's search
    goes on: no pair is searched twice."""
    pairs = []
    real = birkhoff._derivable

    def counted(*args):
        before = searches[0]
        derivable = real(*args)
        pairs.append(searches[0] - before)
        return derivable

    monkeypatch.setattr(birkhoff, "_derivable", counted)
    for A in two_element_magmas() + seeded_three_element_magmas():
        identities_of(A, 2, 2, budget=300)
    assert pairs and max(pairs) == 1


def test_identities_of_leaves_no_cyclic_garbage():
    # no cycle keeps a normalizer, its store or its memo past the call
    meet2 = corpus_algebras()[0]
    gc.collect()
    gc.disable()
    try:
        identities_of(meet2, 2, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hsp_empty_algebra_is_a_member():
    E = make_algebra("E", MAGMA, [], {"mul": {}})
    meet2 = corpus_algebras()[0]
    for A in (E, meet2):
        res = hsp_member(E, A)
        assert res.yes
        assert (res.witness.k, res.witness.generators) == (1, ())
        assert replay_hsp_witness(E, A, res.witness)


# -- the countermodel search against brute force ----------------------------

def all_models(signature, n):
    labels = [str(i) for i in range(n)]
    cells = [(sym, args) for sym, arity in signature.ops
             for args in itertools.product(labels, repeat=arity)]
    for values in itertools.product(labels, repeat=len(cells)):
        tables = {sym: {} for sym, _ in signature.ops}
        for (sym, args), v in zip(cells, values):
            tables[sym][args] = v
        yield FiniteAlgebra("brute", signature, FinSetObj(tuple(labels)), tables)


OPS = [("c", 0), ("d", 0), ("u", 1), ("v", 1), ("b", 2), ("t", 3)]


@st.composite
def small_problems(draw):
    """A carrier size n of 2 to 4, a random signature (constants, unary and
    several symbols, in a random order) with at most 1024 tables of size n,
    some identities of a random algebra as axioms, and a random goal. Terms
    are of depth 2 where no symbol is binary or more, else of depth 1."""
    n = draw(st.integers(2, 4))
    ops = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4, unique=True)
               .filter(lambda ops: n ** sum(n ** k for _, k in ops) <= 1024))
    sig = Signature(tuple(ops))
    elems = [str(i) for i in range(draw(st.integers(2, 3)))]
    A = make_algebra("A", sig, elems, {
        sym: {args: draw(st.sampled_from(elems)) for args in itertools.product(elems, repeat=k)}
        for sym, k in ops})
    depth = 1 if max(k for _, k in ops) >= 2 else 2
    terms = birkhoff.enumerate_terms(sig, 2, depth)
    valid = identities_of(A, 2, depth, raw=True)
    axioms = [(i.lhs, i.rhs) for i in draw(st.lists(st.sampled_from(valid), max_size=4))] if valid else []
    return n, sig, axioms, draw(st.sampled_from(terms)), draw(st.sampled_from(terms))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_problems())
def test_countermodel_search_matches_brute_force(problem):
    n, sig, axioms, lhs, rhs = problem
    M = _models.countermodel(sig, axioms, lhs, rhs, (n,), 10 ** 6)
    want = any(
        all(satisfies(B, Identity(l, r, 2)) for l, r in axioms)
        and not satisfies(B, Identity(lhs, rhs, 2))
        for B in all_models(sig, n))
    assert (M is not None) == want
    if M is not None:
        assert len(M.carrier) == n
        for l, r in axioms:
            assert satisfies(M, Identity(l, r, 2))
        assert not satisfies(M, Identity(lhs, rhs, 2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(small_problems(), st.sampled_from([30, 300, 10 ** 6]))
def test_countermodel_search_matches_the_old_search(problem, nodes):
    """Where the old search (no forced values) finishes within the nodes,
    with a model or without, the same answer; so a model it finds is never
    missed. Where it runs out, the new search may still find a model."""
    n, sig, axioms, lhs, rhs = problem
    want, left = oracle_search(sig, axioms, lhs, rhs, n, nodes)
    if left >= 0:
        assert _models.countermodel(sig, axioms, lhs, rhs, (n,), nodes) == want


def test_countermodel_search_matches_brute_force_on_three_element_magmas():
    """Every identity of depth <= 1 of each seeded magma, as the goal with
    the identities the magma shares with its successor as axioms."""
    magmas = seeded_three_element_magmas()[:8]
    terms = birkhoff.enumerate_terms(MAGMA, 2, 1)
    models = list(all_models(MAGMA, 3))
    for A, B in zip(magmas, magmas[1:]):
        axioms = [(i.lhs, i.rhs) for i in identities_of(A, 2, 1, raw=True) if satisfies(B, i)]
        holding = [M for M in models if all(satisfies(M, Identity(l, r, 2)) for l, r in axioms)]
        for lhs, rhs in itertools.combinations(terms, 2):
            M = _models.countermodel(MAGMA, axioms, lhs, rhs, (3,), 10 ** 6)
            want = any(not satisfies(H, Identity(lhs, rhs, 2)) for H in holding)
            assert (M is not None) == want
            if M is not None:
                assert M in holding or all(satisfies(M, Identity(l, r, 2)) for l, r in axioms)
                assert not satisfies(M, Identity(lhs, rhs, 2))


@st.composite
def small_algebras(draw):
    ops = draw(st.lists(st.sampled_from(OPS[:4]), min_size=1, max_size=3, unique=True))
    sig = Signature(tuple(ops))
    elems = [str(i) for i in range(draw(st.integers(1, 3)))]
    return make_algebra("A", sig, elems, {
        sym: {args: draw(st.sampled_from(elems)) for args in itertools.product(elems, repeat=k)}
        for sym, k in ops})


@settings(derandomize=True, max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(A=small_algebras(), shape=st.sampled_from([(1, 2), (2, 1)]))
def test_identities_of_countermodels_on_random_signatures(countermodels, A, shape):
    n_vars, depth = shape
    assert identities_of(A, n_vars, depth) == oracle_identities_of(A, n_vars, depth)
