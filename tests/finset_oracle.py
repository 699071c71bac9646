"""The finite-set equalizer, intersection, coequalizer, cokernel pair and
pullback that veq.finset kept before FinSetCat joined the table-category
base in veq.instances, and its product and coproduct from before they
came from finset.product_of and finset.coproduct_of, kept as an oracle,
unchanged.

Each is written directly over label tables: the equalizer filters the
domain, the pullback pairs up the points the two legs send to one label,
the intersection overlaps images, accepting canonical subobjects and
plain monos alike, and the product and coproduct label their own tuples
and tags and check their own cone and cocone legs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from veq.errors import (
    CodMismatch,
    DomainMismatch,
    EmptyList,
    InvariantError,
    NotParallel,
    TargetMismatch,
)
from veq.finset import (
    FinFunction,
    FinSetObj,
    SubobjectMono,
    compose,
    partition_quotient,
    sub,
    tag_label,
    tuple_label,
)


@dataclass(frozen=True)
class ProductResult:
    obj: FinSetObj
    projections: tuple[FinFunction, ...]

    def tuple_of(self, legs: tuple[FinFunction, ...] | list) -> FinFunction:
        """Mediating morphism of a cone: the unique pairing into the product."""
        legs = tuple(legs)
        if len(legs) != len(self.projections):
            raise EmptyList("cone leg count differs from factor count")
        apex = legs[0].dom
        for i, leg in enumerate(legs):
            if leg.dom != apex:
                raise DomainMismatch("cone legs must share a domain")
            if leg.cod != self.projections[i].cod:
                raise CodMismatch("cone leg codomain differs from factor")
        table = tuple(tuple_label([leg(x) for leg in legs]) for x in apex.elements)
        return FinFunction(apex, self.obj, table)


def product(objs) -> ProductResult:
    """Finite product; element labels are tuples in lexicographic order."""
    objs = tuple(objs)
    if not objs:
        raise EmptyList("empty products are rejected; no terminal-object convention")
    combos = list(itertools.product(*(o.elements for o in objs)))
    obj = FinSetObj(tuple(tuple_label(c) for c in combos))
    projections = tuple(
        FinFunction(obj, objs[i], tuple(c[i] for c in combos)) for i in range(len(objs))
    )
    return ProductResult(obj, projections)


@dataclass(frozen=True)
class CoproductResult:
    obj: FinSetObj
    coprojections: tuple[FinFunction, ...]

    def cotuple_of(self, legs) -> FinFunction:
        """Mediating morphism of a cocone out of the coproduct."""
        legs = tuple(legs)
        if len(legs) != len(self.coprojections):
            raise EmptyList("cocone leg count differs from summand count")
        cod = legs[0].cod
        table = []
        for i, leg in enumerate(legs):
            if leg.cod != cod:
                raise CodMismatch("cocone legs must share a codomain")
            if leg.dom != self.coprojections[i].dom:
                raise DomainMismatch("cocone leg domain differs from summand")
            table.extend(leg.table)
        return FinFunction(self.obj, cod, tuple(table))


def coproduct(objs) -> CoproductResult:
    """Finite coproduct; labels are tagged "in0:a", "in1:b", ..."""
    objs = tuple(objs)
    if not objs:
        raise EmptyList("empty coproducts are rejected")
    labels = []
    for i, o in enumerate(objs):
        labels.extend(tag_label(i, x) for x in o.elements)
    obj = FinSetObj(tuple(labels))
    coprojections = tuple(
        FinFunction(objs[i], obj, tuple(tag_label(i, x) for x in objs[i].elements))
        for i in range(len(objs))
    )
    return CoproductResult(obj, coprojections)


def equalizer(p: FinFunction, q: FinFunction) -> SubobjectMono:
    """Largest subobject of the common domain on which p and q agree."""
    if p.dom != q.dom or p.cod != q.cod:
        raise NotParallel("equalizer needs a parallel pair")
    return sub(p.dom, (x for x, a, b in zip(p.dom.elements, p.table, q.table) if a == b))


def coequalizer(p: FinFunction, q: FinFunction) -> FinFunction:
    """Canonical surjection of the codomain identifying p(x) with q(x)."""
    if p.dom != q.dom or p.cod != q.cod:
        raise NotParallel("coequalizer needs a parallel pair")
    return partition_quotient(p.cod, zip(p.table, q.table))


def cokernel_pair(f: FinFunction) -> tuple[FinFunction, FinFunction]:
    """Pushout of f along itself: two maps cod(f) -> Q agreeing exactly on im(f)."""
    cp = coproduct([f.cod, f.cod])
    glue = partition_quotient(cp.obj, ((tag_label(0, y), tag_label(1, y)) for y in f.table))
    p = compose(glue, cp.coprojections[0])
    q = compose(glue, cp.coprojections[1])
    return p, q


@dataclass(frozen=True)
class PullbackSquare:
    apex: FinSetObj
    to_f_dom: FinFunction
    to_m_dom: FinFunction
    f: FinFunction
    m: FinFunction


def pullback(f: FinFunction, m: FinFunction) -> PullbackSquare:
    """Pullback of f and m along their shared codomain; apex labels are pairs."""
    if f.cod != m.cod:
        raise CodMismatch("pullback legs must share a codomain")
    combos = [
        (x, y)
        for x in f.dom.elements
        for y in m.dom.elements
        if f(x) == m(y)
    ]
    apex = FinSetObj(tuple(tuple_label(c) for c in combos))
    left = FinFunction(apex, f.dom, tuple(c[0] for c in combos))
    right = FinFunction(apex, m.dom, tuple(c[1] for c in combos))
    return PullbackSquare(apex, left, right, f, m)


def intersect(monos) -> SubobjectMono:
    """Intersection of subobjects of a common target, via image overlap."""
    monos = tuple(monos)
    if not monos:
        raise EmptyList("intersection of no subobjects is undefined here")
    target = monos[0].target if isinstance(monos[0], SubobjectMono) else monos[0].cod
    keep = set(target.elements)
    for m in monos:
        if isinstance(m, SubobjectMono):
            if m.target != target:
                raise TargetMismatch("subobjects must share a target")
            keep &= set(m.carrier.elements)
        else:
            if m.cod != target:
                raise TargetMismatch("subobjects must share a target")
            if not m.is_injective():
                raise InvariantError("intersect expects monomorphisms")
            keep &= set(m.table)
    return sub(target, keep)
