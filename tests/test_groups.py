import pytest

from group_oracle import (
    ORACLE_S3_PERMS,
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
GC = FinGrpCat()


def find_isomorphism(G, H):
    """An isomorphism G -> H as the package finds one: on the group algebras."""
    return alg.find_alg_isomorphism(grp.group_to_algebra(G), grp.group_to_algebra(H))


def test_corpus_has_fourteen_groups_up_to_order_sixteen():
    assert len(CORPUS) == 14
    assert all(len(G) <= 16 for G in CORPUS.values())
    orders = sorted(len(G) for G in CORPUS.values())
    assert orders == [1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 8, 12, 16]


def test_corpus_validates_on_load():
    # construction itself runs the exhaustive axiom checks; spot-check a few
    # structural facts on top
    assert CORPUS["C1"].elements == ("0",)
    assert len(CORPUS["D4"]) == 8
    assert len(CORPUS["D8"]) == 16
    assert not oracle_is_abelian(CORPUS["S3"])
    assert oracle_is_abelian(CORPUS["C8"])
    assert not oracle_is_abelian(CORPUS["Q8"])


def test_bad_table_rejected():
    with pytest.raises(InvariantError):
        grp.Group("bad", ("a", "b"), (("a", "a"), ("a", "a")))


def test_cayley_basics():
    S3 = CORPUS["S3"]
    assert S3.identity == "e"
    assert S3.mul("(12)", "(12)") == "e"
    assert S3.mul("(123)", "(123)") == "(132)"
    assert S3.inverse("(123)") == "(132)"
    # conjugation permutes transpositions
    assert S3.conjugate("(123)", "(12)") in {"(13)", "(23)"}


def test_subgroup_and_normal_closure():
    S3 = CORPUS["S3"]
    assert grp.subgroup_closure(S3, ["(12)"]) == ("e", "(12)")
    assert grp.subgroup_closure(S3, []) == ("e",)
    assert grp.subgroup_closure(S3, ["(123)"]) == ("e", "(123)", "(132)")
    # the 2-element subgroup is not normal; its closure is everything
    assert grp.normal_closure(S3, ["(12)"]) == S3.elements
    assert grp.normal_closure(S3, ["(123)"]) == ("e", "(123)", "(132)")
    with pytest.raises(ElementNotInG):
        grp.subgroup_closure(S3, ["nope"])


def test_quotient_group():
    S3 = CORPUS["S3"]
    Q, proj = grp.quotient_group(S3, ("e", "(123)", "(132)"))
    assert len(Q) == 2
    assert proj.is_surjective()
    assert find_isomorphism(Q, CORPUS["C2"]) is not None
    # kernel is exactly the normal subgroup
    assert tuple(x for x in S3.elements if proj(x) == Q.identity) == (
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
    assert oracle_commutator_subgroup(CORPUS["S3"]) == ("e", "(123)", "(132)")
    assert oracle_commutator_subgroup(CORPUS["Q8"]) == ("1", "-1")
    assert oracle_commutator_subgroup(CORPUS["C6"]) == ("0",)
    a4_comm = oracle_commutator_subgroup(CORPUS["A4"])
    assert len(a4_comm) == 4  # the Klein-type normal subgroup


def test_brute_centralizer():
    S3 = CORPUS["S3"]
    assert oracle_centralizer(S3, ["(12)"]) == ("e", "(12)")
    assert oracle_centralizer(S3, ["e"]) == S3.elements
    assert oracle_centralizer(S3, S3.elements) == ("e",)
    C6 = CORPUS["C6"]
    assert oracle_centralizer(C6, ["3"]) == C6.elements


def test_all_homs_counts():
    C2, C4 = CORPUS["C2"], CORPUS["C4"]
    for homs in (GC.hom, oracle_all_homs):
        assert len(homs(C2, C4)) == 2  # 0 -> 0, 1 -> 2
        assert len(homs(C4, C2)) == 2
        assert len(homs(CORPUS["C3"], C2)) == 1
        # homs S3 -> C2: trivial and sign
        assert len(homs(CORPUS["S3"], C2)) == 2


def test_all_homs_are_exactly_the_homomorphisms():
    C2, V4 = CORPUS["C2"], CORPUS["V4"]
    brute = set()
    for img in V4.elements:
        if V4.mul(img, img) == V4.identity:
            brute.add((V4.identity, img))
    for homs in (GC.hom, oracle_all_homs):
        assert {h.table for h in homs(C2, V4)} == brute


def test_find_isomorphism():
    for iso in (find_isomorphism, oracle_find_isomorphism):
        assert iso(CORPUS["C4"], CORPUS["V4"]) is None
        assert iso(CORPUS["C6"], CORPUS["S3"]) is None
        found = iso(CORPUS["V4"], CORPUS["V4"])
        assert found is not None and found.is_injective()
        # D4 and Q8 share order-profiles only partially; they are not isomorphic
        assert iso(CORPUS["D4"], CORPUS["Q8"]) is None


def test_hom_sets_and_isomorphisms_match_oracle_on_all_corpus_pairs():
    """FinGrpCat.hom and the group-algebra isomorphism against the
    generator-image oracles, whole lists in order, on all 196 ordered
    pairs of corpus groups."""
    pairs = [(G, H) for G in CORPUS.values() for H in CORPUS.values()]
    assert len(pairs) == 196
    isomorphic = 0
    for G, H in pairs:
        assert [h.table for h in GC.hom(G, H)] == [h.table for h in oracle_all_homs(G, H)]
        got, want = find_isomorphism(G, H), oracle_find_isomorphism(G, H)
        assert (got and got.table) == (want and want.table)
        isomorphic += got is not None
    assert isomorphic == 14  # the corpus groups are pairwise non-isomorphic


def test_group_hom_rejects_labels_outside_its_groups():
    C2 = CORPUS["C2"]
    with pytest.raises(DomainMismatch):
        grp.identity_hom(C2)("zz")
    with pytest.raises(InvariantError, match="outside codomain"):
        grp.GroupHom(C2, C2, ("0", "zz"))


def test_element_orders():
    orders = oracle_element_orders(CORPUS["A4"])
    assert sorted(orders.values()) == [1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3]
    assert oracle_element_orders(CORPUS["Q8"])["-1"] == 2
    assert oracle_element_orders(CORPUS["Q8"])["i"] == 4


def test_conjugation_hom_is_automorphism():
    for G in (CORPUS["S3"], CORPUS["D4"]):
        for g in G.elements:
            phi = grp.conjugation_hom(G, g)
            assert phi.is_injective() and phi.is_surjective()


def test_dihedral_relations():
    D4 = CORPUS["D4"]
    # reflection conjugates rotation to its inverse
    r, s = "r1", "s0"
    assert D4.mul(D4.mul(s, r), s) == D4.inverse(r)
    assert oracle_element_orders(D4)[r] == 4
    assert oracle_element_orders(D4)[s] == 2


# -- the group-algebra path against the coset-based oracle ----------------------

def _oracle_normal_subgroups(G):
    """The normal closures of single elements, the commutator subgroup and
    both extremes, as the oracle computes them."""
    found = {oracle_normal_closure(G, [x]) for x in G.elements}
    found |= {oracle_commutator_subgroup(G), oracle_normal_closure(G, []), G.elements}
    return sorted(found, key=lambda N: (len(N), N))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_closures_match_oracle(name):
    G = CORPUS[name]
    for x in G.elements:
        assert grp.subgroup_closure(G, [x]) == oracle_subgroup_closure(G, [x])
        assert grp.normal_closure(G, [x]) == oracle_normal_closure(G, [x])
    assert grp.subgroup_closure(G, []) == oracle_subgroup_closure(G, [])


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_quotients_match_oracle(name):
    G = CORPUS[name]
    for N in _oracle_normal_subgroups(G):
        Q, proj = grp.quotient_group(G, N)
        want_Q, want_proj = oracle_quotient_group(G, N)
        assert Q.name == want_Q.name
        assert Q.elements == want_Q.elements
        assert Q.table == want_Q.table
        assert proj.table == want_proj.table


def test_cached_index_and_identity_stay_out_of_equality():
    S3 = CORPUS["S3"]
    rebuilt = grp.Group(S3.name, S3.elements, S3.table)
    assert rebuilt == S3 and hash(rebuilt) == hash(S3)
    assert repr(S3) == (f"Group(name={S3.name!r}, elements={S3.elements!r}, "
                        f"table={S3.table!r})")
    assert S3.identity == "e" and CORPUS["Q8"].identity == "1"
    assert [S3.inverse(x) for x in S3.elements] == [
        "e", "(12)", "(13)", "(23)", "(132)", "(123)"]
    with pytest.raises(ElementNotInG):
        S3.inverse("nope")
    with pytest.raises(ElementNotInG):
        grp.normal_closure(S3, ["nope"])
