import pytest

from group_oracle import (
    ORACLE_S3_PERMS,
    algebra_to_group,
    group_to_algebra,
    oracle_all_homs,
    oracle_centralizer,
    oracle_commutator_subgroup,
    oracle_element_orders,
    oracle_find_isomorphism,
    oracle_is_abelian,
    oracle_normal_closure,
    oracle_quotient_group,
    oracle_subgroup_closure,
)
from veq import algebras as alg
from veq import groups as grp
from veq.errors import DomainMismatch, ElementNotInG, InvariantError
from veq.instances import FinGrpCat


CORPUS = grp.corpus()
# the same groups read into the oracle's Cayley-table type
ORACLE = {name: algebra_to_group(G) for name, G in CORPUS.items()}
GC = FinGrpCat()


def test_corpus_has_fourteen_groups_up_to_order_sixteen():
    assert len(CORPUS) == 14
    assert all(len(G) <= 16 for G in CORPUS.values())
    orders = sorted(len(G) for G in CORPUS.values())
    assert orders == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 12, 16]


def test_corpus_validates_on_load():
    # construction itself runs the exhaustive axiom checks; spot-check a few
    # structural facts on top
    assert CORPUS["C1"].carrier.elements == ("0",)
    assert len(CORPUS["D4"]) == 8
    assert len(CORPUS["D8"]) == 16
    assert not oracle_is_abelian(ORACLE["S3"])
    assert oracle_is_abelian(ORACLE["C8"])
    assert not oracle_is_abelian(ORACLE["Q8"])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_groups_pass_the_oracle_and_convert_back(name):
    """The oracle's Group re-checks identity, inverses and associativity on
    the Cayley table; converting it back gives the corpus algebra, tables
    included."""
    assert group_to_algebra(algebra_to_group(CORPUS[name])) == CORPUS[name]


# one table per rejection, each reaching its own check; rows are aligned
# with the elements
REJECTED = [
    ("duplicate-labels", "duplicate labels", ("a", "a"), (("a", "a"), ("a", "a"))),
    ("ragged", "^table shape mismatch$", ("a", "b"), (("a", "b"), ("b",))),
    ("outside-carrier", "^table value 'zz' outside carrier$", ("a", "b"), (("a", "b"), ("b", "zz"))),
    ("no-identity", "^no identity element$", ("a", "b"), (("a", "a"), ("a", "a"))),
    # every element is a left identity, none is a right one
    ("left-identity-only", "^no identity element$", ("a", "b"), (("a", "b"), ("a", "b"))),
    ("no-inverse", "^'a' has no inverse$", ("e", "a"), (("e", "a"), ("a", "a"))),
    # a * b = e but b * a = a
    ("one-sided-inverse", "^inverses are one-sided$", ("e", "a", "b"),
     (("e", "a", "b"), ("a", "b", "e"), ("b", "a", "e"))),
    # a Latin square with identity 0 and every element its own inverse: the
    # smallest loop that is not a group
    ("non-associative", "^associativity fails$", tuple("01234"),
     tuple(tuple(row) for row in ("01234", "10342", "24013", "32401", "43120"))),
]


@pytest.mark.parametrize("match,elements,rows", [r[1:] for r in REJECTED],
                         ids=[r[0] for r in REJECTED])
def test_make_group_rejects_non_groups(match, elements, rows):
    with pytest.raises(InvariantError, match=match):
        grp.make_group("bad", elements, rows)


def test_cayley_basics():
    S3 = CORPUS["S3"]
    assert grp.identity(S3) == "e"
    assert grp.mul(S3, "(12)", "(12)") == "e"
    assert grp.mul(S3, "(123)", "(123)") == "(132)"
    assert grp.inverse(S3, "(123)") == "(132)"
    # conjugation permutes transpositions
    assert grp.conjugate(S3, "(123)", "(12)") in {"(13)", "(23)"}


def test_subgroup_and_normal_closure():
    S3 = CORPUS["S3"]
    assert grp.subgroup_closure(S3, ["(12)"]) == ("e", "(12)")
    assert grp.subgroup_closure(S3, []) == ("e",)
    assert grp.subgroup_closure(S3, ["(123)"]) == ("e", "(123)", "(132)")
    # the 2-element subgroup is not normal; its closure is everything
    assert grp.normal_closure(S3, ["(12)"]) == S3.carrier.elements
    assert grp.normal_closure(S3, ["(123)"]) == ("e", "(123)", "(132)")
    with pytest.raises(ElementNotInG):
        grp.subgroup_closure(S3, ["nope"])


def test_quotient_group():
    S3 = CORPUS["S3"]
    Q, proj = grp.quotient_group(S3, ("e", "(123)", "(132)"))
    assert len(Q) == 2
    assert proj.is_surjective()
    assert alg.find_alg_isomorphism(Q, CORPUS["C2"]) is not None
    # kernel is exactly the normal subgroup
    assert tuple(x for x in S3.carrier.elements if proj(x) == grp.identity(Q)) == (
        "e",
        "(123)",
        "(132)",
    )


def test_s3_matches_its_permutation_list():
    perms = ORACLE_S3_PERMS
    by_perm = {p: lbl for lbl, p in perms.items()}
    want = grp.make_group("S3", tuple(perms), lambda a, b: by_perm[
        tuple(perms[a][i - 1] for i in perms[b])])
    assert CORPUS["S3"] == want and repr(CORPUS["S3"]) == repr(want)


def test_quotient_group_rejects_members_that_are_not_a_normal_subgroup():
    S3 = CORPUS["S3"]
    # a subgroup that is not normal, a non-subgroup, and the empty set
    for members in (("e", "(12)"), ("e", "(123)"), ("(12)",), ()):
        with pytest.raises(InvariantError):
            grp.quotient_group(S3, members)
    with pytest.raises(ElementNotInG):
        grp.quotient_group(S3, ("e", "nope"))


def test_commutator_subgroups():
    assert oracle_commutator_subgroup(ORACLE["S3"]) == ("e", "(123)", "(132)")
    assert oracle_commutator_subgroup(ORACLE["Q8"]) == ("1", "-1")
    assert oracle_commutator_subgroup(ORACLE["C6"]) == ("0",)
    a4_comm = oracle_commutator_subgroup(ORACLE["A4"])
    assert len(a4_comm) == 4  # the Klein-type normal subgroup


def test_brute_centralizer():
    S3 = ORACLE["S3"]
    assert oracle_centralizer(S3, ["(12)"]) == ("e", "(12)")
    assert oracle_centralizer(S3, ["e"]) == S3.elements
    assert oracle_centralizer(S3, S3.elements) == ("e",)
    C6 = ORACLE["C6"]
    assert oracle_centralizer(C6, ["3"]) == C6.elements


def test_all_homs_counts():
    for groups, homs in ((CORPUS, GC.hom), (ORACLE, oracle_all_homs)):
        C2, C4 = groups["C2"], groups["C4"]
        assert len(homs(C2, C4)) == 2  # 0 -> 0, 1 -> 2
        assert len(homs(C4, C2)) == 2
        assert len(homs(groups["C3"], C2)) == 1
        # homs S3 -> C2: trivial and sign
        assert len(homs(groups["S3"], C2)) == 2


def test_all_homs_are_exactly_the_homomorphisms():
    V4 = CORPUS["V4"]
    e = grp.identity(V4)
    brute = {(e, img) for img in V4.carrier.elements if grp.mul(V4, img, img) == e}
    for groups, homs in ((CORPUS, GC.hom), (ORACLE, oracle_all_homs)):
        assert {h.table for h in homs(groups["C2"], groups["V4"])} == brute


def test_find_isomorphism():
    for groups, iso in ((CORPUS, alg.find_alg_isomorphism), (ORACLE, oracle_find_isomorphism)):
        assert iso(groups["C4"], groups["V4"]) is None
        assert iso(groups["C6"], groups["S3"]) is None
        found = iso(groups["V4"], groups["V4"])
        assert found is not None and found.is_injective()
        # D4 and Q8 share order-profiles only partially; they are not isomorphic
        assert iso(groups["D4"], groups["Q8"]) is None


def test_hom_sets_and_isomorphisms_match_oracle_on_all_corpus_pairs():
    """FinGrpCat.hom and the algebra isomorphism search against the
    generator-image oracles, whole lists in order, on all 196 ordered
    pairs of corpus groups."""
    pairs = [(G, H) for G in CORPUS for H in CORPUS]
    assert len(pairs) == 196
    isomorphic = 0
    for G, H in pairs:
        assert ([h.table for h in GC.hom(CORPUS[G], CORPUS[H])]
                == [h.table for h in oracle_all_homs(ORACLE[G], ORACLE[H])])
        got = alg.find_alg_isomorphism(CORPUS[G], CORPUS[H])
        want = oracle_find_isomorphism(ORACLE[G], ORACLE[H])
        assert (got and got.table) == (want and want.table)
        isomorphic += got is not None
    assert isomorphic == 14  # the corpus groups are pairwise non-isomorphic


def test_group_hom_rejects_labels_outside_its_groups():
    C2 = CORPUS["C2"]
    with pytest.raises(DomainMismatch):
        GC.identity(C2)("zz")
    with pytest.raises(InvariantError, match="outside codomain"):
        GC.morphism(C2, C2, ("0", "zz"))


def test_element_orders():
    orders = oracle_element_orders(ORACLE["A4"])
    assert sorted(orders.values()) == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    assert oracle_element_orders(ORACLE["Q8"])["-1"] == 2
    assert oracle_element_orders(ORACLE["Q8"])["i"] == 4


def test_conjugation_hom_is_automorphism():
    for G in (CORPUS["S3"], CORPUS["D4"]):
        for g in G.carrier.elements:
            phi = grp.conjugation_hom(G, g)
            assert phi.is_injective() and phi.is_surjective()


def test_dihedral_relations():
    D4 = CORPUS["D4"]
    # reflection conjugates rotation to its inverse
    r, s = "r1", "s0"
    assert grp.mul(D4, grp.mul(D4, s, r), s) == grp.inverse(D4, r)
    assert oracle_element_orders(ORACLE["D4"])[r] == 4
    assert oracle_element_orders(ORACLE["D4"])[s] == 2


# -- the group-algebra path against the coset-based oracle ----------------------

def _oracle_normal_subgroups(G):
    """The normal closures of single elements, the commutator subgroup and
    both extremes, as the oracle computes them."""
    found = {oracle_normal_closure(G, [x]) for x in G.elements}
    found |= {oracle_commutator_subgroup(G), oracle_normal_closure(G, []), G.elements}
    return sorted(found, key=lambda N: (len(N), N))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_closures_match_oracle(name):
    G, O = CORPUS[name], ORACLE[name]
    for x in G.carrier.elements:
        assert grp.subgroup_closure(G, [x]) == oracle_subgroup_closure(O, [x])
        assert grp.normal_closure(G, [x]) == oracle_normal_closure(O, [x])
    assert grp.subgroup_closure(G, []) == oracle_subgroup_closure(O, [])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_quotients_match_oracle(name):
    G = CORPUS[name]
    for N in _oracle_normal_subgroups(ORACLE[name]):
        Q, proj = grp.quotient_group(G, N)
        want_Q, want_proj = oracle_quotient_group(ORACLE[name], N)
        assert Q == group_to_algebra(want_Q)
        assert proj.table == want_proj.table


def test_identity_inverses_and_labels_outside_the_group():
    S3 = CORPUS["S3"]
    assert grp.identity(S3) == "e" and grp.identity(CORPUS["Q8"]) == "1"
    assert [grp.inverse(S3, x) for x in S3.carrier.elements] == [
        "e", "(12)", "(13)", "(23)", "(132)", "(123)"]
    with pytest.raises(ElementNotInG, match="^'nope' not in S3$"):
        grp.inverse(S3, "nope")
    with pytest.raises(ElementNotInG, match="^'nope' or 'e' not in S3$"):
        grp.mul(S3, "nope", "e")
    with pytest.raises(ElementNotInG):
        grp.normal_closure(S3, ["nope"])
