"""Finite posets and monotone maps, their presentation as categories, and
Galois connections (poset adjunctions). Backs one computational-category
instance and the adjoint-shift checks. A poset's carrier is a FinSetObj of
its elements, built once; a monotone map (`MonotoneMap`) is a
finset.FinFunction that adds only monotonicity, so its mapping
constructor, identity and compose are FinFunction's.
"""

from __future__ import annotations

import itertools
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
from .finset import FinFunction, FinSetObj, Law, table_equation

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
    # the elements as a FinSetObj, derived once on construction; not part of
    # equality, hash or repr
    carrier: FinSetObj = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise InvariantError(f"{self.name}: duplicate elements")
        elems = FinSetObj(self.elements)
        object.__setattr__(self, "carrier", elems)
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


@dataclass(frozen=True)
class MonotoneMap(FinFunction):
    """A map between posets whose table preserves the order."""

    _length_error = "monotone map table length mismatch"
    _value_error = "monotone map value {} outside codomain"

    def __post_init__(self):
        super().__post_init__()
        for x, y in self.dom.rel:
            if not self.cod.leq(self(x), self(y)):
                raise InvariantError(f"map not monotone at {x} <= {y}")


monotone = MonotoneMap.from_mapping
identity_map = MonotoneMap.identity
compose_maps = MonotoneMap.compose


def order_checks(P: Poset, Q: Poset) -> Law:
    """The monotonicity law P -> Q for search_tables: Q's order is a fixed
    table of 0/1 cells, followed by a cell holding 1, and each pair x <= y
    of P is the equation 1 = leq_Q(h(x), h(y))."""
    idx = {x: i for i, x in enumerate(P.elements)}
    leq = tuple(int(pair in Q.rel) for pair in itertools.product(Q.elements, repeat=2))
    one = len(idx) + len(leq)  # the cell after the order's, holding 1
    return Law(Q.elements, leq + (1,),
               tuple(table_equation([idx[x], idx[y]], len(idx), one) for x, y in P.rel))


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
