import dataclasses
import itertools
import os
import random

import pytest

from algebra_oracle import oracle_free_algebra_in_variety
from group_oracle import (
    algebra_to_group,
    group_to_algebra,
    oracle_centralizer,
    oracle_commutator_subgroup,
    oracle_find_isomorphism,
    oracle_quotient_group,
)
from veq import algebras as alg
from veq import dsl
from veq import groups as grp
from veq.algebras import Identity, make_algebra, satisfies
from veq.birkhoff import (
    abelianization,
    centralizer,
    enumerate_terms,
    free_algebra_in_variety,
    hsp_member,
    identities_of,
    replay_hsp_witness,
)
from veq.errors import BoundsTooLarge, ElementNotInG, SignatureMismatch
from veq.groups import GROUP_SIG
from veq.instances import FinGrpCat
from veq.theories import App, Signature, Var

SL = Signature((("meet", 2),))
GC = FinGrpCat()


def semilattice2():
    return make_algebra("sl2", SL, ["0", "1"], {"meet": lambda a, b: min(a, b)})


def chain3():
    return make_algebra(
        "chain3", SL, ["0", "1", "2"], {"meet": lambda a, b: min(a, b)}
    )


def flip2():
    # x*x is never x: the canonical non-idempotent two-element groupoid
    return make_algebra(
        "flip2",
        SL,
        ["0", "1"],
        {"meet": lambda a, b: ({"0": "1", "1": "0"}[a] if a == b else a)},
    )


def z2_algebra():
    return make_algebra(
        "z2",
        GROUP_SIG,
        ["0", "1"],
        {
            "mul": lambda a, b: str((int(a) + int(b)) % 2),
            "inv": lambda a: a,
            "e": "0",
        },
    )


def test_enumerate_terms_layering():
    terms = enumerate_terms(SL, 2, 0)
    assert terms == [Var(0), Var(1)]
    terms1 = enumerate_terms(SL, 2, 1)
    assert len(terms1) == 6  # 2 variables + 4 products
    terms2 = enumerate_terms(SL, 2, 2)
    assert len(terms2) == 2 + 4 + 32
    with pytest.raises(BoundsTooLarge):
        enumerate_terms(SL, 3, 4, cap=100)


def test_identities_of_semilattice():
    ids = identities_of(semilattice2(), 2, 2)
    x, y = Var(0), Var(1)
    pairs = {(i.lhs, i.rhs) for i in ids} | {(i.rhs, i.lhs) for i in ids}
    assert (App("meet", (x, y)), App("meet", (y, x))) in pairs
    assert (x, App("meet", (x, x))) in pairs
    # no identity equating the two distinct projections
    assert (x, y) not in pairs


def test_identities_of_z2():
    ids = identities_of(z2_algebra(), 1, 3)
    x = Var(0)
    pairs = {(i.lhs, i.rhs) for i in ids} | {(i.rhs, i.lhs) for i in ids}
    assert (App("e", ()), App("mul", (x, x))) in pairs
    assert (x, App("inv", (x,))) in pairs


def test_identities_raw_superset_and_all_satisfied():
    A = semilattice2()
    raw = identities_of(A, 2, 2, raw=True)
    deduped = identities_of(A, 2, 2)
    assert len(raw) >= len(deduped)
    for ident in raw:
        assert satisfies(A, ident)


def test_hsp_chain_in_semilattice_square():
    res = hsp_member(chain3(), semilattice2())
    assert res.yes
    assert res.witness.k == 2
    assert replay_hsp_witness(chain3(), semilattice2(), res.witness)
    # a class listed twice is not a partition, so the witness does not replay
    theta = res.witness.congruence
    bad = dataclasses.replace(res.witness, congruence=theta + theta[:1])
    assert not replay_hsp_witness(chain3(), semilattice2(), bad)


def test_hsp_rejects_non_idempotent_with_certificate():
    res = hsp_member(flip2(), semilattice2())
    assert res.status == "NoWithinBounds"
    assert res.violated_identity is not None
    assert satisfies(semilattice2(), res.violated_identity)
    assert not satisfies(flip2(), res.violated_identity)


def test_hsp_total_quotient_trivial_member():
    A = flip2()
    trivial = make_algebra("one", SL, ["0"], {"meet": lambda a, b: "0"})
    res = hsp_member(trivial, A)
    assert res.yes and res.witness.k == 1


def test_hsp_signature_mismatch():
    other = Signature((("join", 2),))
    B = make_algebra("j", other, ["0"], {"join": lambda a, b: "0"})
    with pytest.raises(SignatureMismatch):
        hsp_member(B, semilattice2())


def test_hsp_self_membership():
    A = semilattice2()
    res = hsp_member(A, A, k_max=1)
    assert res.yes and replay_hsp_witness(A, A, res.witness)


def test_free_algebra_sizes():
    assert len(free_algebra_in_variety(semilattice2(), 1).algebra) == 1
    assert len(free_algebra_in_variety(semilattice2(), 2).algebra) == 3
    assert len(free_algebra_in_variety(z2_algebra(), 1).algebra) == 2


def test_free_algebra_satisfies_base_identities():
    A = semilattice2()
    F = free_algebra_in_variety(A, 2)
    for ident in identities_of(A, 2, 2, raw=True):
        assert satisfies(F.algebra, ident)


def test_free_algebra_witnesses_and_reflection():
    A = semilattice2()
    F = free_algebra_in_variety(A, 2)
    for label, term in F.witnesses.items():
        assert F.reflect(term) == label
    # the generators are the projections
    x = Var(0)
    assert F.reflect(x) == F.generators[0]
    both = App("meet", (Var(0), Var(1)))
    assert F.reflect(both) in F.algebra.carrier.elements


def test_free_algebra_of_constants_only():
    sig = Signature((("c", 0),))
    A = make_algebra("pt2", sig, ["0", "1"], {"c": "1"})
    F = free_algebra_in_variety(A, 0)
    assert len(F.algebra) == 1  # just the constant


def free_algebra_outcome(free, A, n, cap):
    """The whole result, orders included, or the bound error's message."""
    try:
        F = free(A, n, cap)
    except BoundsTooLarge as exc:
        return str(exc)
    G = F.algebra
    return (G.name, G.signature, G.carrier.elements,
            [(sym, list(table.items())) for sym, table in G.tables.items()],
            F.generators, list(F.witnesses.items()), F.n, F.base)


def test_free_algebra_matches_oracle_on_corpus():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ws = dsl.parse_files([os.path.join(root, "corpus", "algebras.veq")])
    for A in list(ws.defs["algebra"].values()) + [semilattice2(), chain3(), flip2(), z2_algebra()]:
        for n in range(4):
            want = free_algebra_outcome(oracle_free_algebra_in_variety, A, n, 1_000_000)
            assert not isinstance(want, str)
            assert free_algebra_outcome(free_algebra_in_variety, A, n, 1_000_000) == want


def test_free_algebra_matches_oracle_on_random_algebras():
    """Random algebras of size 1-3 over subsets of c/0, u/1, b/2, t/3 (in a
    random declaration order), n = 0-3, under caps that stop some closures
    part way: the same result, or the same bound error."""
    ops = [("c", 0), ("u", 1), ("b", 2), ("t", 3)]
    rng = random.Random(12)
    finished = stopped = 0
    for k in range(120):
        sig = Signature(tuple(rng.sample(ops, rng.randint(1, 3))))
        elems = [str(i) for i in range(rng.randint(1, 3))]
        A = make_algebra(f"r{k}", sig, elems, {
            sym: {args: rng.choice(elems) for args in itertools.product(elems, repeat=arity)}
            for sym, arity in sig.ops
        })
        n = rng.randint(0, 3)
        cap = rng.choice((30, 300, 3000))
        want = free_algebra_outcome(oracle_free_algebra_in_variety, A, n, cap)
        assert free_algebra_outcome(free_algebra_in_variety, A, n, cap) == want
        if isinstance(want, str):
            stopped += 1
        else:
            finished += 1
    assert finished > 40 and stopped > 20


def test_centralizer_via_engine_matches_brute():
    corpus = grp.corpus()
    S3 = corpus["S3"]
    assert centralizer(S3, ["(12)"]).carrier.elements == ("e", "(12)")
    assert centralizer(S3, ["e"]).carrier.elements == S3.carrier.elements
    for G in (corpus["D4"], corpus["Q8"], corpus["A4"]):
        for g in G.carrier.elements[:4]:
            assert centralizer(G, [g]).carrier.elements == oracle_centralizer(
                algebra_to_group(G), [g])
    with pytest.raises(ElementNotInG):
        centralizer(S3, ["bogus"])


def test_abelianization_matches_quotient_by_commutators():
    corpus = grp.corpus()
    for name, G in corpus.items():
        ab, O = abelianization(G), algebra_to_group(G)
        expected, _ = oracle_quotient_group(O, oracle_commutator_subgroup(O))
        assert len(ab.cod) == len(expected)
        assert oracle_find_isomorphism(algebra_to_group(ab.cod), expected) is not None
        assert ab.is_surjective()
    assert len(abelianization(corpus["S3"]).cod) == 2
    q8ab = algebra_to_group(abelianization(corpus["Q8"]).cod)
    assert oracle_find_isomorphism(q8ab, algebra_to_group(corpus["V4"])) is not None


def test_abelianization_universal_property():
    corpus = grp.corpus()
    G = corpus["S3"]
    ab = abelianization(G)
    # every hom into a small abelian group factors uniquely through it
    for name in ("C1", "C2", "C3", "C4", "V4", "C5", "C6"):
        H = corpus[name]
        for f in GC.hom(G, H):
            factored = [
                h
                for h in GC.hom(ab.cod, H)
                if alg.compose_alg_homs(h, ab).table == f.table
            ]
            assert len(factored) == 1


def test_group_algebra_bridge():
    corpus = grp.corpus()
    for name in ("C4", "S3", "Q8"):
        A = corpus[name]
        assert alg.satisfies(
            A,
            Identity(
                App("mul", (Var(0), App("inv", (Var(0),)))), App("e", ()), 1
            ),
        )
        back = algebra_to_group(A)
        assert back.elements == A.carrier.elements
        assert group_to_algebra(back) == A
    with pytest.raises(SignatureMismatch):
        algebra_to_group(semilattice2())


def test_congruences_of_z4_group_algebra():
    z4 = grp.corpus()["C4"]
    cs = alg.congruences(z4)
    assert len(cs) == 3
    sizes = sorted(len(p) for p in cs)
    assert sizes == [1, 2, 4]
