"""Finite posets and monotone maps, their presentation as categories, and
Galois connections (poset adjunctions). Backs one computational-category
instance and the poset corpus for the adjoint-shift checks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .cats import (
    AdjunctionData,
    FiniteCategory,
    FunctorData,
    NatTransData,
    compose_functors,
    identity_functor,
    tabulate_category,
)
from .errors import InvariantError
from .finset import search_tables

ARROW = "->"


def _arrow_name(x: str, y: str) -> str:
    return f"{x}{ARROW}{y}"


@dataclass(frozen=True)
class Poset:
    """Carrier labels plus the full order relation as a set of pairs.

    rel must contain every (x, y) with x <= y, reflexive pairs included, and
    pass the partial-order laws on construction.
    """

    name: str
    elements: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise InvariantError(f"{self.name}: duplicate elements")
        elems = set(self.elements)
        for x, y in self.rel:
            if x not in elems or y not in elems:
                raise InvariantError(f"{self.name}: relation mentions unknown element")
        for x in self.elements:
            if (x, x) not in self.rel:
                raise InvariantError(f"{self.name}: not reflexive at {x}")
        for x, y in self.rel:
            if x != y and (y, x) in self.rel:
                raise InvariantError(f"{self.name}: antisymmetry fails at {x},{y}")
        for x, y in self.rel:
            for z in self.elements:
                if (y, z) in self.rel and (x, z) not in self.rel:
                    raise InvariantError(f"{self.name}: transitivity fails at {x},{y},{z}")

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.rel

    def __len__(self) -> int:
        return len(self.elements)

    def least(self, members) -> str | None:
        """The least element of the subset, if one exists."""
        members = list(members)
        for m in members:
            if all(self.leq(m, y) for y in members):
                return m
        return None

    def greatest(self, members) -> str | None:
        members = list(members)
        for m in members:
            if all(self.leq(y, m) for y in members):
                return m
        return None

    def meet(self, x: str, y: str) -> str | None:
        lower = [z for z in self.elements if self.leq(z, x) and self.leq(z, y)]
        return self.greatest(lower)


def poset_from_cover(name: str, elements, covers) -> Poset:
    """Build from a covering/edge list (x below y); reflexive-transitive
    closure is taken here, laws still validated by the constructor.
    """
    elements = tuple(elements)
    rel = {(x, x) for x in elements}
    rel.update((x, y) for x, y in covers)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return Poset(name, elements, frozenset(rel))


def chain(name: str, labels) -> Poset:
    labels = tuple(labels)
    return poset_from_cover(name, labels, list(zip(labels, labels[1:])))


def antichain(name: str, labels) -> Poset:
    return poset_from_cover(name, tuple(labels), [])


@dataclass(frozen=True)
class MonotoneMap:
    dom: Poset
    cod: Poset
    table: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if len(self.table) != len(self.dom.elements):
            raise InvariantError("monotone map table length mismatch")
        for v in self.table:
            if v not in self.cod.elements:
                raise InvariantError(f"monotone map value {v} outside codomain")
        for x, y in self.dom.rel:
            if not self.cod.leq(self(x), self(y)):
                raise InvariantError(f"map not monotone at {x} <= {y}")

    def __call__(self, x: str) -> str:
        return self.table[self.dom.elements.index(x)]

    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.elements, self.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)


def monotone(dom: Poset, cod: Poset, mapping: dict[str, str]) -> MonotoneMap:
    return MonotoneMap(dom, cod, tuple(mapping[x] for x in dom.elements))


def identity_map(P: Poset) -> MonotoneMap:
    return MonotoneMap(P, P, P.elements)


def compose_maps(g: MonotoneMap, f: MonotoneMap) -> MonotoneMap:
    if f.cod != g.dom:
        raise InvariantError("monotone composition endpoints mismatch")
    return MonotoneMap(f.dom, g.cod, tuple(g(v) for v in f.table))


def order_checks(P: Poset, Q: Poset) -> list[list]:
    """The monotonicity law P -> Q for search_tables: one check per order pair."""
    idx = {x: i for i, x in enumerate(P.elements)}
    checks: list[list] = [[] for _ in P.elements]
    for i, j in ((idx[x], idx[y]) for x, y in P.rel):
        checks[max(i, j)].append(lambda t, i=i, j=j: (t[i], t[j]) in Q.rel)
    return checks


def all_monotone_maps(P: Poset, Q: Poset) -> list[MonotoneMap]:
    pools = [Q.elements] * len(P.elements)
    return [MonotoneMap(P, Q, t) for t in search_tables(pools, order_checks(P, Q))]


def sub_poset(P: Poset, members, name: str | None = None) -> tuple[Poset, MonotoneMap]:
    keep = tuple(x for x in P.elements if x in set(members))
    S = Poset(
        name or f"{P.name}|{','.join(keep)}",
        keep,
        frozenset((x, y) for x, y in P.rel if x in keep and y in keep),
    )
    return S, MonotoneMap(S, P, keep)


def to_category(P: Poset) -> FiniteCategory:
    """The thin category: one arrow x -> y exactly when x <= y."""
    arrows = {_arrow_name(x, y): (x, y) for x, y in sorted(P.rel)}
    return tabulate_category(
        f"cat({P.name})",
        P.elements,
        arrows,
        {x: _arrow_name(x, x) for x in P.elements},
        lambda g, f: _arrow_name(arrows[f][0], arrows[g][1]),
    )


def to_functor(f: MonotoneMap, CP: FiniteCategory | None = None, CQ: FiniteCategory | None = None) -> FunctorData:
    CP = CP or to_category(f.dom)
    CQ = CQ or to_category(f.cod)
    obj_map = f.mapping()
    mor_map = {
        _arrow_name(x, y): _arrow_name(obj_map[x], obj_map[y]) for x, y in f.dom.rel
    }
    return FunctorData(CP, CQ, obj_map, mor_map)


def left_adjoint_of(G: MonotoneMap) -> MonotoneMap | None:
    """The lower adjoint H with H(b) <= a iff b <= G(a), when it exists."""
    A, B = G.dom, G.cod
    table = []
    for b in B.elements:
        candidates = [a for a in A.elements if B.leq(b, G(a))]
        least = A.least(candidates) if candidates else None
        if least is None:
            return None
        table.append(least)
    try:
        return MonotoneMap(B, A, tuple(table))
    except InvariantError:
        return None


def is_galois_connection(H: MonotoneMap, G: MonotoneMap) -> bool:
    """H lower adjoint of G: H(b) <= a iff b <= G(a), for all a, b."""
    if H.dom != G.cod or H.cod != G.dom:
        return False
    A, B = G.dom, G.cod
    return all(
        A.leq(H(b), a) == B.leq(b, G(a)) for a in A.elements for b in B.elements
    )


def adjunction_from_galois(H: MonotoneMap, G: MonotoneMap) -> AdjunctionData:
    """Package a Galois connection as adjunction data between the thin
    categories; the triangle laws are then machine-checked.
    """
    if not is_galois_connection(H, G):
        raise InvariantError("not a Galois connection")
    CA, CB = to_category(G.dom), to_category(G.cod)
    Hf = to_functor(H, CB, CA)
    Gf = to_functor(G, CA, CB)
    unit = NatTransData(
        identity_functor(CB),
        compose_functors(Gf, Hf),
        {b: _arrow_name(b, G(H(b))) for b in G.cod.elements},
    )
    counit = NatTransData(
        compose_functors(Hf, Gf),
        identity_functor(CA),
        {a: _arrow_name(H(G(a)), a) for a in G.dom.elements},
    )
    return AdjunctionData(Hf, Gf, unit, counit)


def random_poset(rng: random.Random, size: int, name: str = "P") -> Poset:
    """Random partial order: random DAG on a shuffled carrier, closed up."""
    labels = [f"p{i}" for i in range(size)]
    order = labels[:]
    rng.shuffle(order)
    covers = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.4:
                covers.append((order[i], order[j]))
    return poset_from_cover(name, labels, covers)


def random_galois_instance(rng: random.Random, max_size: int = 4):
    """A random (A, B, G: A -> B monotone, H: B -> A) with H lower adjoint of
    G. Retries until G has a lower adjoint; identity on a chain as fallback.
    """
    for _ in range(60):
        A = random_poset(rng, rng.randint(1, max_size), "A")
        B = random_poset(rng, rng.randint(1, max_size), "B")
        maps = all_monotone_maps(A, B)
        rng.shuffle(maps)
        for G in maps[:30]:
            H = left_adjoint_of(G)
            if H is not None and is_galois_connection(H, G):
                return A, B, G, H
    A = chain("A", ["p0", "p1"])
    G = identity_map(A)
    return A, A, G, G
