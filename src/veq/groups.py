"""Finite groups as algebras over the signature {mul, inv, e}: the full
subcategory of finite algebras cut out by the group laws, and a validated
corpus of the groups of order up to 16 used throughout the test suites.

`make_group` reads e and inv off a Cayley table and checks the group laws
with `algebras.satisfies`. Everything else is the algebra's: homomorphisms
are `algebras.AlgHom`, subgroups and quotients are subalgebras and quotient
algebras, and the congruences are exactly the partitions into cosets of
normal subgroups. Hom-sets come from the table search in
veq.instances.FinGrpCat.hom, and an isomorphism is
algebras.find_alg_isomorphism.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import algebras as alg
from .errors import ElementNotInG, InvariantError
from .finset import FinSetObj
from .theories import App, Signature, Var

GROUP_SIG = Signature((("mul", 2), ("inv", 1), ("e", 0)))


def _m(a, b) -> App:
    return App("mul", (a, b))


_x, _y, _z, _e = Var(0), Var(1), Var(2), App("e", ())

# the laws make_group checks, each with the failure it reports; e is the
# first left identity and inv(a) the first b with a * b = e, so these are
# what the derivation leaves open
_LAWS = (
    (alg.Identity(_m(_x, _e), _x, 1), "no identity element"),
    (alg.Identity(_m(App("inv", (_x,)), _x), _e, 1), "inverses are one-sided"),
    (alg.Identity(_m(_m(_x, _y), _z), _m(_x, _m(_y, _z)), 3), "associativity fails"),
)


def make_group(name: str, elements, mul) -> alg.FiniteAlgebra:
    """The group on elements under mul, as an algebra over GROUP_SIG. mul is
    a callable on two labels or the Cayley table as rows aligned with
    elements. Anything that is not a group raises InvariantError.
    """
    carrier = FinSetObj(tuple(elements))  # rejects duplicate labels
    elems = carrier.elements
    rows = [[mul(a, b) for b in elems] for a in elems] if callable(mul) else mul
    if len(rows) != len(elems) or any(len(row) != len(elems) for row in rows):
        raise InvariantError("table shape mismatch")
    table = {(a, b): v for a, row in zip(elems, rows) for b, v in zip(elems, row)}
    for v in table.values():
        if v not in carrier:
            raise InvariantError(f"table value {v!r} outside carrier")
    e = next((a for a in elems if all(table[a, b] == b for b in elems)), None)
    if e is None:
        raise InvariantError("no identity element")
    inv = {}
    for a in elems:
        inv[(a,)] = next((b for b in elems if table[a, b] == e), None)
        if inv[(a,)] is None:
            raise InvariantError(f"{a!r} has no inverse")
    G = alg.make_algebra(name, GROUP_SIG, carrier, {"mul": table, "inv": inv, "e": e})
    for law, failure in _LAWS:
        if not alg.satisfies(G, law):
            raise InvariantError(failure)
    return G


def identity(G: alg.FiniteAlgebra) -> str:
    return G.tables["e"][()]


def mul(G: alg.FiniteAlgebra, a: str, b: str) -> str:
    try:
        return G.tables["mul"][a, b]
    except KeyError:
        raise ElementNotInG(f"{a!r} or {b!r} not in {G.name}") from None


def inverse(G: alg.FiniteAlgebra, a: str) -> str:
    try:
        return G.tables["inv"][(a,)]
    except KeyError:
        raise ElementNotInG(f"{a!r} not in {G.name}") from None


def conjugate(G: alg.FiniteAlgebra, g: str, x: str) -> str:
    return mul(G, mul(G, g, x), inverse(G, g))


def conjugation_hom(G: alg.FiniteAlgebra, g: str) -> alg.AlgHom:
    _check_members(G, [g])
    return alg.AlgHom(G, G, tuple(conjugate(G, g, x) for x in G.carrier.elements))


def _check_members(G: alg.FiniteAlgebra, xs) -> tuple[str, ...]:
    xs = tuple(xs)
    for x in xs:
        if x not in G.carrier:
            raise ElementNotInG(f"{x!r} not in {G.name}")
    return xs


def subgroup_closure(G: alg.FiniteAlgebra, gens) -> tuple[str, ...]:
    """Smallest subgroup containing gens, as labels in ambient order."""
    return alg.subalgebra_closure(G, _check_members(G, gens))


def _kernel_congruence(G: alg.FiniteAlgebra, gens) -> alg.Partition:
    """The congruence that identifies each generator with the identity."""
    return alg.congruence_closure(G, [(g, identity(G)) for g in _check_members(G, gens)])


def normal_closure(G: alg.FiniteAlgebra, gens) -> tuple[str, ...]:
    """Smallest normal subgroup containing gens: the identity's class in the
    congruence that identifies each generator with the identity.
    """
    e = identity(G)
    return next(c for c in _kernel_congruence(G, gens) if e in c)


def quotient_group(
    G: alg.FiniteAlgebra, normal_members, name: str | None = None
) -> tuple[alg.FiniteAlgebra, alg.AlgHom]:
    """Quotient by a normal subgroup; cosets named by their earliest member.
    Members that are not exactly a normal subgroup raise InvariantError.
    """
    members = tuple(normal_members)
    partition = _kernel_congruence(G, members)
    e = identity(G)
    if set(next(c for c in partition if e in c)) != set(members):
        raise InvariantError(f"not a normal subgroup of {G.name}")
    return alg.quotient_algebra(G, partition, name or f"{G.name}/N")


# -- corpus -------------------------------------------------------------------

def _cyclic(n: int) -> alg.FiniteAlgebra:
    return make_group(f"C{n}", tuple(str(i) for i in range(n)),
                      lambda a, b: str((int(a) + int(b)) % n))


def _klein() -> alg.FiniteAlgebra:
    def mul(a, b):
        if a == "e":
            return b
        if b == "e":
            return a
        if a == b:
            return "e"
        return ({"a", "b", "c"} - {a, b}).pop()
    return make_group("V4", ("e", "a", "b", "c"), mul)


def _perm_group(name: str, perms: dict[str, tuple[int, ...]]) -> alg.FiniteAlgebra:
    by_perm = {p: lbl for lbl, p in perms.items()}

    def mul(a, b):
        pa, pb = perms[a], perms[b]
        return by_perm[tuple(pa[pb[i] - 1] for i in range(len(pa)))]

    return make_group(name, tuple(perms), mul)


def _symmetric(name: str, n: int, even_only: bool = False) -> alg.FiniteAlgebra:
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


def _dihedral(n: int, name: str) -> alg.FiniteAlgebra:
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


def _q8() -> alg.FiniteAlgebra:
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
def corpus() -> dict[str, alg.FiniteAlgebra]:
    """The 14 bundled groups of order <= 16, validated on construction."""
    groups = [
        _cyclic(1), _cyclic(2), _cyclic(3), _cyclic(4), _cyclic(5),
        _cyclic(6), _cyclic(7), _cyclic(8), _klein(), _symmetric("S3", 3),
        _dihedral(4, "D4"), _q8(), _symmetric("A4", 4, even_only=True), _dihedral(8, "D8"),
    ]
    return {g.name: g for g in groups}
