"""The coset-based group closures and quotient that the group-algebra
wrappers in veq.groups replaced, kept as an oracle.

Subgroup closure, normal closure and quotients are now taken in the algebra
over {mul, inv, e} (subalgebra closure, the identity's congruence class, the
quotient algebra). These are the earlier fixpoint loops over the Cayley
table, unchanged apart from their names, so the tests can compare the new
path with an independent one. ORACLE_S3_PERMS is the hand-written
permutation list the corpus built S3 from before S3 and A4 shared one
builder.
"""

from veq.errors import ElementNotInG
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


ORACLE_S3_PERMS = {
    "e": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}
