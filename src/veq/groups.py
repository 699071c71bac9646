"""Finite groups as Cayley tables, homomorphisms, quotients, and a validated
corpus of the groups of order up to 16 used throughout the test suites.

A group is also an algebra over the signature {mul, inv, e}; subgroup
closure, normal closure and quotients are taken in that algebra, where the
congruences are exactly the partitions into cosets of normal subgroups.
Hom-sets come from the table search in veq.instances.FinGrpCat.hom, and an
isomorphism is algebras.find_alg_isomorphism on the two group algebras.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import algebras as alg
from .errors import CodMismatch, DomainMismatch, ElementNotInG, InvariantError, SignatureMismatch
from .theories import Signature

GROUP_SIG = Signature((("mul", 2), ("inv", 1), ("e", 0)))


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
        # identity
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
        # inverses
        for i, a in enumerate(self.elements):
            if e not in self.table[i]:
                raise InvariantError(f"{a!r} has no inverse")
        # associativity
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


def make_group(name: str, elements, mul) -> Group:
    elements = tuple(elements)
    table = tuple(tuple(mul(a, b) for b in elements) for a in elements)
    return Group(name, elements, table)


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


def identity_hom(G: Group) -> GroupHom:
    return GroupHom(G, G, G.elements)


def compose_homs(g: GroupHom, f: GroupHom) -> GroupHom:
    if f.cod != g.dom:
        raise CodMismatch("homs not composable")
    return GroupHom(f.dom, g.cod, tuple(g(y) for y in f.table))


def conjugation_hom(G: Group, g: str) -> GroupHom:
    _check_members(G, [g])
    return GroupHom(G, G, tuple(G.conjugate(g, x) for x in G.elements))


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


def _check_members(G: Group, xs) -> tuple[str, ...]:
    xs = tuple(xs)
    for x in xs:
        if x not in G._index:
            raise ElementNotInG(f"{x!r} not in {G.name}")
    return xs


def subgroup_closure(G: Group, gens) -> tuple[str, ...]:
    """Smallest subgroup containing gens, as labels in ambient order."""
    return alg.subalgebra_closure(group_to_algebra(G), _check_members(G, gens))


def normal_closure(G: Group, gens) -> tuple[str, ...]:
    """Smallest normal subgroup containing gens: the identity's class in the
    congruence that identifies each generator with the identity.
    """
    e = G.identity
    partition = alg.congruence_closure(
        group_to_algebra(G), [(g, e) for g in _check_members(G, gens)]
    )
    return next(c for c in partition if e in c)


def sub_group(G: Group, members, name: str | None = None) -> tuple[Group, GroupHom]:
    """The subgroup on the given closed member set, with its inclusion."""
    members = tuple(x for x in G.elements if x in set(members))
    H = Group(name or f"{G.name}|sub", members,
              tuple(tuple(G.mul(a, b) for b in members) for a in members))
    return H, GroupHom(H, G, members)


def quotient_by_pairs(G: Group, pairs, name: str | None = None) -> tuple[Group, GroupHom]:
    """Quotient by the congruence of the group algebra that the pairs
    generate; cosets named by their earliest member.
    """
    A = group_to_algebra(G)
    partition = alg.congruence_closure(A, pairs)
    Q, proj = alg.quotient_algebra(A, partition, name or f"{G.name}/N")
    H = algebra_to_group(Q)
    return H, GroupHom(G, H, proj.table)


def quotient_group(G: Group, normal_members, name: str | None = None) -> tuple[Group, GroupHom]:
    """Quotient by a normal subgroup; cosets named by their earliest member.
    Members that are not exactly a normal subgroup raise InvariantError.
    """
    members = _check_members(G, normal_members)
    Q, proj = quotient_by_pairs(G, [(n, G.identity) for n in members], name)
    if {x for x in G.elements if proj(x) == Q.identity} != set(members):
        raise InvariantError(f"not a normal subgroup of {G.name}")
    return Q, proj


# -- corpus -------------------------------------------------------------------

def _cyclic(n: int) -> Group:
    return make_group(f"C{n}", tuple(str(i) for i in range(n)),
                      lambda a, b: str((int(a) + int(b)) % n))


def _klein() -> Group:
    def mul(a, b):
        if a == "e":
            return b
        if b == "e":
            return a
        if a == b:
            return "e"
        return ({"a", "b", "c"} - {a, b}).pop()
    return make_group("V4", ("e", "a", "b", "c"), mul)


def _perm_group(name: str, perms: dict[str, tuple[int, ...]]) -> Group:
    by_perm = {p: lbl for lbl, p in perms.items()}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return by_perm[tuple(pa[pb[i] - 1] for i in range(len(pa)))]

    return make_group(name, tuple(perms), mul)


def _symmetric(name: str, n: int, even_only: bool = False) -> Group:
    """S_n (or A_n), elements in cycle notation ordered by (length, label)."""
    perms = {}
    for p in itertools.permutations(range(1, n + 1)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
        if not even_only or inversions % 2 == 0:
            perms[_cycle_label(p)] = p
    return _perm_group(name, dict(sorted(perms.items(), key=lambda kv: (len(kv[0]), kv[0]))))


def _cycle_label(p: tuple[int, ...]) -> str:
    seen, parts = set(), []
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        cycle, cur = [start], p[start - 1]
        seen.add(start)
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = p[cur - 1]
        if len(cycle) > 1:
            parts.append("(" + "".join(str(c) for c in cycle) + ")")
    return "".join(parts) if parts else "e"


def _dihedral(n: int, name: str) -> Group:
    # r{i} rotations, s{i} = reflection s * r^i, with s r s = r^-1
    labels = tuple(f"r{i}" for i in range(n)) + tuple(f"s{i}" for i in range(n))

    def mul(a, b):
        fa, ia = a[0], int(a[1:])
        fb, ib = b[0], int(b[1:])
        if fa == "r" and fb == "r":
            return f"r{(ia + ib) % n}"
        if fa == "r" and fb == "s":
            return f"s{(ib - ia) % n}"
        if fa == "s" and fb == "r":
            return f"s{(ia + ib) % n}"
        return f"r{(ib - ia) % n}"

    return make_group(name, labels, mul)


def _q8() -> Group:
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    base = {"i": ("j", "k"), "j": ("k", "i"), "k": ("i", "j")}

    def mul(a, b):
        sa, ua = (-1, a[1:]) if a.startswith("-") else (1, a)
        sb, ub = (-1, b[1:]) if b.startswith("-") else (1, b)
        sign = sa * sb
        if ua == "1":
            unit = ub
        elif ub == "1":
            unit = ua
        elif ua == ub:
            unit, sign = "1", -sign
        else:
            other, third = base[ua]
            if ub == other:
                unit = third
            else:
                unit, sign = {"i", "j", "k"}.difference({ua, ub}).pop(), -sign
        return unit if sign == 1 else ("-1" if unit == "1" else f"-{unit}")

    return make_group("Q8", labels, mul)


@lru_cache(maxsize=1)
def corpus() -> dict[str, Group]:
    """The 14 bundled groups of order <= 16, validated on construction."""
    groups = [
        _cyclic(1), _cyclic(2), _cyclic(3), _cyclic(4), _cyclic(5),
        _cyclic(6), _cyclic(7), _cyclic(8), _klein(), _symmetric("S3", 3),
        _dihedral(4, "D4"), _q8(), _symmetric("A4", 4, even_only=True), _dihedral(8, "D8"),
    ]
    return {g.name: g for g in groups}
