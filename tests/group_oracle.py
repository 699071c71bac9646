"""Finite groups as Cayley tables, the coset-based closures and quotient, and
the generator-image hom enumeration and isomorphism search, kept as an
oracle for veq.groups and the table search.

veq holds a group as its algebra over {mul, inv, e} (veq.groups.make_group).
`Group` and `GroupHom` are the Cayley-table group and its homomorphism that
veq used before, each re-checking every axiom on construction.
`algebra_to_group` reads a package group into a `Group`, and
`group_to_algebra` takes it back, so the tests can run these oracles on the
package's groups and compare answers.

Subgroup closure, normal closure and quotients are now taken in the algebra
(subalgebra closure, the identity's congruence class, the quotient
algebra). The oracle's versions are fixpoint loops over the Cayley table,
so the tests can compare the two paths. ORACLE_S3_PERMS is the
hand-written permutation list the corpus built S3 from before S3 and A4
shared one builder.

`oracle_all_homs` extends each choice of generator images over the Cayley
graph and keeps the extensions the GroupHom constructor accepts;
`oracle_find_isomorphism` filters its list after comparing element-order
profiles. veq now gets both from finset.search_tables under the algebra's
homomorphism law (FinGrpCat.hom, algebras.find_alg_isomorphism).
`oracle_is_abelian` and `oracle_centralizer` are the brute checks the
package kept for its tests until they moved here.
"""

import itertools
from dataclasses import dataclass, field

from veq import algebras as alg
from veq.errors import DomainMismatch, ElementNotInG, InvariantError, SignatureMismatch
from veq.groups import GROUP_SIG


@dataclass(frozen=True)
class Group:
    name: str
    elements: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]  # table[i][j] = elements[i] * elements[j]
    # derived once on construction; not part of equality, hash or repr
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    identity: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InvariantError("duplicate element labels")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InvariantError("table shape mismatch")
        idx = {x: i for i, x in enumerate(self.elements)}
        object.__setattr__(self, "_index", idx)
        for row in self.table:
            for v in row:
                if v not in idx:
                    raise InvariantError(f"table value {v!r} outside carrier")
        e = None
        for cand in self.elements:
            i = idx[cand]
            if all(self.table[i][j] == x and self.table[j][i] == x
                   for j, x in enumerate(self.elements)):
                e = cand
                break
        if e is None:
            raise InvariantError("no identity element")
        object.__setattr__(self, "identity", e)
        for i, a in enumerate(self.elements):
            if e not in self.table[i]:
                raise InvariantError(f"{a!r} has no inverse")
        for i in range(n):
            for j in range(n):
                ij = idx[self.table[i][j]]
                for k in range(n):
                    if self.table[ij][k] != self.table[i][idx[self.table[j][k]]]:
                        raise InvariantError("associativity fails")

    def mul(self, a: str, b: str) -> str:
        idx = self._index
        if a not in idx or b not in idx:
            raise ElementNotInG(f"{a!r} or {b!r} not in {self.name}")
        return self.table[idx[a]][idx[b]]

    def inverse(self, a: str) -> str:
        if a not in self._index:
            raise ElementNotInG(f"{a!r} not in {self.name}")
        return self.elements[self.table[self._index[a]].index(self.identity)]

    def conjugate(self, g: str, x: str) -> str:
        return self.mul(self.mul(g, x), self.inverse(g))

    def __len__(self) -> int:
        return len(self.elements)


def _group(name: str, elements, mul) -> Group:
    elements = tuple(elements)
    return Group(name, elements, tuple(tuple(mul(a, b) for b in elements) for a in elements))


@dataclass(frozen=True)
class GroupHom:
    dom: Group
    cod: Group
    table: tuple[str, ...]  # aligned with dom.elements

    def __post_init__(self):
        if len(self.table) != len(self.dom):
            raise InvariantError("hom table length mismatch")
        for v in self.table:
            if v not in self.cod._index:
                raise InvariantError(f"hom value {v!r} outside codomain")
        idx = self.dom._index
        for a in self.dom.elements:
            for b in self.dom.elements:
                lhs = self.table[idx[self.dom.mul(a, b)]]
                rhs = self.cod.mul(self.table[idx[a]], self.table[idx[b]])
                if lhs != rhs:
                    raise InvariantError("not a homomorphism")

    def __call__(self, a: str) -> str:
        try:
            return self.table[self.dom._index[a]]
        except KeyError:
            raise DomainMismatch(f"{a!r} not in domain") from None

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.elements)


def group_to_algebra(G: Group) -> alg.FiniteAlgebra:
    """The Cayley-table group as an algebra over {mul, inv, e}."""
    return alg.make_algebra(
        G.name,
        GROUP_SIG,
        G.elements,
        {"mul": G.mul, "inv": G.inverse, "e": G.identity},
    )


def algebra_to_group(A: alg.FiniteAlgebra) -> Group:
    """Read a group back off a {mul, inv, e} algebra; the Group constructor
    re-checks every axiom.
    """
    if A.signature != GROUP_SIG:
        raise SignatureMismatch("expected the group signature {mul, inv, e}")
    mul = A.tables["mul"]
    table = tuple(
        tuple(mul[(a, b)] for b in A.carrier.elements) for a in A.carrier.elements
    )
    return Group(A.name, A.carrier.elements, table)


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
    Q = _group(name or f"{G.name}/N", reps, lambda a, b: seen[G.mul(a, b)])
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
