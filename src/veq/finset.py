"""Exact finite-set engine: objects, functions, canonical subobjects,
products, coproducts, quotients, factorization through a function, and the
one search over finite tables behind every hom enumeration (`search_tables`).
One call of it tries at most `_TABLE_BUDGET` candidate values, the only
bound on the hom enumerations, factorizations and limit checks built on it.

Equalizers, intersections, coequalizers, cokernel pairs and pullbacks of
finite sets come from the table-category base in veq.instances, built from
the pieces here. Everything is label-based and deterministic. Composite
constructions emit structured labels: product tuples "(a,b)", coproduct tags
"in0:a", quotient classes named by their lexicographically least member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import CarrierTooLarge, CodMismatch, DomainMismatch, EmptyList, InvariantError

_TABLE_BUDGET = 2_000_000  # candidate values one search_tables call may try


@dataclass(frozen=True)
class FinSetObj:
    """A finite set: distinct string labels in a fixed canonical order."""

    elements: tuple[str, ...]
    # label -> position, derived once on construction; not part of equality,
    # hash or repr
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {x: i for i, x in enumerate(self.elements)}
        if len(index) != len(self.elements):
            raise InvariantError(f"duplicate labels in {self.elements!r}")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        return "FinSetObj({" + ", ".join(self.elements) + "})"


def finset(*labels: str) -> FinSetObj:
    return FinSetObj(tuple(labels))


@dataclass(frozen=True)
class FinFunction:
    """A total function between FinSetObj carriers, stored as a label table."""

    dom: FinSetObj
    cod: FinSetObj
    table: tuple[str, ...]  # image of dom.elements[i] is table[i]

    def __post_init__(self):
        if len(self.table) != len(self.dom):
            raise InvariantError("table length differs from domain size")
        for y in self.table:
            if y not in self.cod:
                raise InvariantError(f"image label {y!r} not in codomain")

    def __call__(self, label: str) -> str:
        try:
            return self.table[self.dom._index[label]]
        except KeyError:
            raise DomainMismatch(f"{label!r} not in domain") from None

    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.elements, self.table))

    def image(self) -> tuple[str, ...]:
        seen = set(self.table)
        return tuple(y for y in self.cod.elements if y in seen)

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.elements)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}->{y}" for x, y in zip(self.dom.elements, self.table))
        return "FinFunction{" + pairs + "}"


def fin_function(dom: FinSetObj, cod: FinSetObj, mapping: dict[str, str]) -> FinFunction:
    """Build a FinFunction from a dict keyed by domain labels."""
    missing = [x for x in dom.elements if x not in mapping]
    if missing:
        raise InvariantError(f"mapping misses domain labels {missing!r}")
    return FinFunction(dom, cod, tuple(mapping[x] for x in dom.elements))


def identity(obj: FinSetObj) -> FinFunction:
    return FinFunction(obj, obj, obj.elements)


def compose(g: FinFunction, f: FinFunction) -> FinFunction:
    """g after f."""
    if f.cod != g.dom:
        raise CodMismatch("compose: codomain of first leg differs from domain of second")
    return FinFunction(f.dom, g.cod, tuple(g(y) for y in f.table))


@dataclass(frozen=True)
class SubobjectMono:
    """Canonical subobject: a sub-carrier of target plus its inclusion."""

    carrier: FinSetObj
    target: FinSetObj
    inclusion: FinFunction = field(compare=False)

    def __post_init__(self):
        pos = {x: i for i, x in enumerate(self.target.elements)}
        prev = -1
        for x in self.carrier.elements:
            if x not in pos:
                raise InvariantError(f"carrier label {x!r} not in target")
            if pos[x] < prev:
                raise InvariantError("carrier labels out of target order")
            prev = pos[x]
        if self.inclusion.table != self.carrier.elements:
            raise InvariantError("inclusion is not the label-identity injection")


def sub(target: FinSetObj, labels) -> SubobjectMono:
    """The canonical subobject of target on the given labels."""
    keep = set(labels)
    carrier = FinSetObj(tuple(x for x in target.elements if x in keep))
    return SubobjectMono(carrier, target, FinFunction(carrier, target, carrier.elements))


def tuple_label(labels) -> str:
    return "(" + ",".join(labels) + ")"


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


def tag_label(i: int, label: str) -> str:
    return f"in{i}:{label}"


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


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def partition_quotient(base: FinSetObj, pairs) -> FinFunction:
    """Quotient of base by the equivalence closure of the given label pairs.

    Classes are named by their lexicographically least member and ordered by
    that representative's position in base.
    """
    uf = _UnionFind(base.elements)
    for a, b in pairs:
        uf.union(a, b)
    classes: dict[str, list[str]] = {}
    for x in base.elements:
        classes.setdefault(uf.find(x), []).append(x)
    rep = {root: min(members) for root, members in classes.items()}
    order = sorted(rep.values(), key=base._index.__getitem__)
    qobj = FinSetObj(tuple(order))
    return FinFunction(base, qobj, tuple(rep[uf.find(x)] for x in base.elements))


def factor_through(f: FinFunction, g: FinFunction) -> FinFunction | None:
    """An h with f = g o h, if any; picks least preimages, unique when g is monic."""
    if f.cod != g.cod:
        raise CodMismatch("factor_through needs a shared codomain")
    preimage: dict[str, str] = {}
    for x, y in zip(g.dom.elements, g.table):
        preimage.setdefault(y, x)
    table = []
    for y in f.table:
        if y not in preimage:
            return None
        table.append(preimage[y])
    return FinFunction(f.dom, g.dom, tuple(table))


def search_tables(pools, checks, injective=False):
    """Every table t with t[i] from pools[i] that passes each predicate in
    checks[i], in itertools.product order (permutations order when
    injective: a value already in the table is skipped). A predicate reads
    the partial table, whose entries past i are stale, and is filed under
    the last position it reads, so it runs as soon as its inputs are set.
    The walk is iterative, so deep tables need no recursion. Trying more
    than _TABLE_BUDGET candidate values in one call raises CarrierTooLarge."""
    n = len(pools)
    table: list = [None] * n
    nxt = [0] * n  # the next candidate to try at each position
    left = _TABLE_BUDGET
    i = 0
    while i >= 0:
        if i == n:
            yield tuple(table)
            i -= 1
            continue
        pool, k = pools[i], nxt[i]
        while k < len(pool):
            table[i] = v = pool[k]
            k += 1
            left -= 1
            if left < 0:
                raise CarrierTooLarge(f"table search tried more than {_TABLE_BUDGET} candidates")
            if not (injective and v in table[:i]) and all(c(table) for c in checks[i]):
                nxt[i] = k
                i += 1
                break
        else:  # no candidate left here
            nxt[i] = 0
            i -= 1
