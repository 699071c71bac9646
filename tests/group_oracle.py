"""The coset-based group closures and quotient that the group-algebra
wrappers in veq.groups replaced, and the generator-image hom enumeration
and isomorphism search that the table search replaced, kept as an oracle.

Subgroup closure, normal closure and quotients are now taken in the algebra
over {mul, inv, e} (subalgebra closure, the identity's congruence class, the
quotient algebra). These are the earlier fixpoint loops over the Cayley
table, unchanged apart from their names, so the tests can compare the new
path with an independent one. ORACLE_S3_PERMS is the hand-written
permutation list the corpus built S3 from before S3 and A4 shared one
builder.

`oracle_all_homs` extends each choice of generator images over the Cayley
graph and keeps the extensions the GroupHom constructor accepts;
`oracle_find_isomorphism` filters its list after comparing element-order
profiles. veq now gets both from finset.search_tables under the group
algebra's homomorphism law (FinGrpCat.hom, algebras.find_alg_isomorphism).
`oracle_is_abelian` and `oracle_centralizer` are the brute checks the
package kept for its tests until they moved here.
"""

import itertools

from veq.errors import ElementNotInG, InvariantError
from veq.groups import Group, GroupHom, make_group


def oracle_subgroup_closure(G: Group, gens) -> tuple[str, ...]:
    """Smallest subgroup containing gens, as labels in ambient order."""
    for g in gens:
        if g not in G.elements:
            raise ElementNotInG(f"{g!r} not in {G.name}")
    members = {G.identity, *gens}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                p = G.mul(a, b)
                if p not in members:
                    members.add(p)
                    changed = True
        for a in list(members):
            inv = G.inverse(a)
            if inv not in members:
                members.add(inv)
                changed = True
    return tuple(x for x in G.elements if x in members)


def oracle_normal_closure(G: Group, gens) -> tuple[str, ...]:
    """Smallest normal subgroup containing gens."""
    seeds = set(gens)
    changed = True
    while changed:
        changed = False
        current = oracle_subgroup_closure(G, seeds)
        for g in G.elements:
            for x in current:
                c = G.conjugate(g, x)
                if c not in seeds and c not in current:
                    seeds.add(c)
                    changed = True
            seeds.update(current)
    return oracle_subgroup_closure(G, seeds)


def oracle_quotient_group(G: Group, normal_members, name: str | None = None) -> tuple[Group, GroupHom]:
    """Quotient by a normal subgroup; cosets named by their earliest member."""
    N = set(normal_members)
    seen: dict[str, str] = {}
    reps: list[str] = []
    for x in G.elements:
        if x in seen:
            continue
        coset = {G.mul(x, n) for n in N}
        rep = min(coset, key=G.elements.index)
        reps.append(rep)
        for c in coset:
            seen[c] = rep
    Q = make_group(name or f"{G.name}/N", tuple(reps),
                   lambda a, b: seen[G.mul(a, b)])
    return Q, GroupHom(G, Q, tuple(seen[x] for x in G.elements))


def oracle_commutator_subgroup(G: Group) -> tuple[str, ...]:
    comms = {G.mul(G.mul(a, b), G.inverse(G.mul(b, a)))
             for a in G.elements for b in G.elements}
    return oracle_normal_closure(G, comms)


def oracle_generating_set(G: Group) -> tuple[str, ...]:
    """Deterministic small generating set (greedy in carrier order)."""
    gens: list[str] = []
    closure = {G.identity}
    for x in G.elements:
        if x not in closure:
            gens.append(x)
            closure = set(oracle_subgroup_closure(G, gens))
        if len(closure) == len(G):
            break
    return tuple(gens)


def oracle_all_homs(G: Group, H: Group) -> list[GroupHom]:
    """Every homomorphism G -> H, by backtracking over generator images."""
    gens = oracle_generating_set(G)
    out = []
    for images in itertools.product(H.elements, repeat=len(gens)):
        table = _oracle_extend_hom(G, H, gens, images)
        if table is None:
            continue
        try:  # the constructor checks the extension on every pair
            out.append(GroupHom(G, H, table))
        except InvariantError:
            continue
    return out


def _oracle_extend_hom(G, H, gens, images):
    mapping = {G.identity: H.identity}
    frontier = [G.identity]
    gen_img = dict(zip(gens, images))
    while frontier:
        a = frontier.pop()
        for g, h in gen_img.items():
            p, q = G.mul(a, g), H.mul(mapping[a], h)
            if p in mapping:
                if mapping[p] != q:
                    return None
            else:
                mapping[p] = q
                frontier.append(p)
    if len(mapping) != len(G):
        return None
    return tuple(mapping[x] for x in G.elements)


def oracle_find_isomorphism(G: Group, H: Group) -> GroupHom | None:
    if len(G) != len(H):
        return None
    if sorted(oracle_element_orders(G).values()) != sorted(oracle_element_orders(H).values()):
        return None
    for h in oracle_all_homs(G, H):
        if h.is_injective() and h.is_surjective():
            return h
    return None


def oracle_element_orders(G: Group) -> dict[str, int]:
    out = {}
    for x in G.elements:
        n, cur = 1, x
        while cur != G.identity:
            cur = G.mul(cur, x)
            n += 1
        out[x] = n
    return out


def oracle_is_abelian(G: Group) -> bool:
    return all(G.mul(a, b) == G.mul(b, a) for a in G.elements for b in G.elements)


def oracle_centralizer(G: Group, S) -> tuple[str, ...]:
    S = tuple(S)
    for s in S:
        if s not in G.elements:
            raise ElementNotInG(f"{s!r} not in {G.name}")
    return tuple(x for x in G.elements
                 if all(G.mul(x, s) == G.mul(s, x) for s in S))


ORACLE_S3_PERMS = {
    "e": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}
