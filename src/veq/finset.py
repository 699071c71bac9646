"""Exact finite-set engine: objects, the one table map, canonical
subobjects, products, coproducts, quotients, factorization through a
function, and the one finite search (`search_tables`) behind every hom
enumeration and countermodel, under a law given as data (`Law`). One call
of it tries at most `_TABLE_BUDGET` candidate values unless its caller
gives a budget.

Every table-category object (a set, an algebra, a poset) has a `carrier`,
a FinSetObj; a set is its own. `FinFunction` is the one table map over
carriers: its table checks, evaluation, mapping constructor
(`from_mapping`), `identity` and `compose` serve algebras.AlgHom and
posets.MonotoneMap too, which add only their law.

Products and coproducts are written once for every table category whose
carrier is a tuple of labels: `product_of` and `coproduct_of` reject an
empty family, label the carrier and build the projections, the instance
supplies the object on the labels, and `ProductResult` and
`CoproductResult` tuple and cotuple legs through the category's morphism
constructor. Equalizers, intersections, coequalizers, cokernel pairs and
pullbacks of finite sets come from the table-category base in
veq.instances, built from the pieces here. Everything is label-based and
deterministic. Composite constructions emit structured labels: product
tuples "(a,b)", coproduct tags "in0:a", quotient classes named by their
lexicographically least member.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

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

    @property
    def carrier(self) -> FinSetObj:
        """A set is its own carrier, as every table-category object has one."""
        return self


def finset(*labels: str) -> FinSetObj:
    return FinSetObj(tuple(labels))


@dataclass(frozen=True)
class FinFunction:
    """A total map between objects of a table category, stored as a label
    table over their carriers: a function between FinSetObjs here, and,
    through subclasses that add only their law, algebra homomorphisms
    (algebras.AlgHom) and monotone maps (posets.MonotoneMap). Each class
    words its construction errors through _length_error and _value_error."""

    dom: FinSetObj
    cod: FinSetObj
    table: tuple[str, ...]  # image of dom.carrier.elements[i] is table[i]

    _length_error = "table length differs from domain size"
    _value_error = "image label {!r} not in codomain"

    def __post_init__(self):
        if len(self.table) != len(self.dom.carrier):
            raise InvariantError(self._length_error)
        cod = self.cod.carrier._index
        for y in self.table:
            if y not in cod:
                raise InvariantError(self._value_error.format(y))

    @classmethod
    def from_mapping(cls, dom, cod, mapping: dict[str, str]):
        """The map that sends each label x of dom's carrier to mapping[x]."""
        missing = [x for x in dom.carrier.elements if x not in mapping]
        if missing:
            raise InvariantError(f"mapping misses domain labels {missing!r}")
        return cls(dom, cod, tuple(mapping[x] for x in dom.carrier.elements))

    @classmethod
    def identity(cls, obj):
        return cls(obj, obj, obj.carrier.elements)

    def compose(self, f):
        """self after f, of self's class."""
        if f.cod != self.dom:
            raise CodMismatch("compose: codomain of first leg differs from domain of second")
        index, table = self.dom.carrier._index, self.table
        return type(self)(f.dom, self.cod, tuple(table[index[y]] for y in f.table))

    def __call__(self, label: str) -> str:
        try:
            return self.table[self.dom.carrier._index[label]]
        except KeyError:
            raise DomainMismatch(f"{label!r} not in domain") from None

    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.carrier.elements, self.table))

    def image(self) -> tuple[str, ...]:
        seen = set(self.table)
        return tuple(y for y in self.cod.carrier.elements if y in seen)

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.carrier.elements)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{x}->{y}" for x, y in zip(self.dom.elements, self.table))
        return "FinFunction{" + pairs + "}"


fin_function = FinFunction.from_mapping
identity = FinFunction.identity
compose = FinFunction.compose  # compose(g, f) is g after f


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


def tag_label(i: int, label: str) -> str:
    return f"in{i}:{label}"


@dataclass(frozen=True)
class ProductResult:
    """A product in a table category: the object, one projection per
    factor, and the category's validating constructor morphism(dom, cod,
    table), which builds the tupling. A leg is read through _source,
    _target and _tupled, which a category whose tables are not labels
    replaces."""

    obj: object
    projections: tuple
    morphism: Callable = field(compare=False, repr=False)

    _source = staticmethod(attrgetter("dom"))
    _target = staticmethod(attrgetter("cod"))

    @staticmethod
    def _tupled(legs) -> tuple:
        """The table of the pairing of legs that share a domain."""
        return tuple(map(tuple_label, zip(*(leg.table for leg in legs))))

    def tuple_of(self, legs) -> object:
        """Mediating morphism of a cone: the unique pairing into the product."""
        legs = tuple(legs)
        if not legs or len(legs) != len(self.projections):
            raise EmptyList("cone leg count differs from factor count")
        apex = self._source(legs[0])
        for leg, p in zip(legs, self.projections):
            if self._source(leg) != apex:
                raise DomainMismatch("cone legs must share a domain")
            if self._target(leg) != self._target(p):
                raise CodMismatch("cone leg codomain differs from factor")
        return self.morphism(apex, self.obj, self._tupled(legs))


@dataclass(frozen=True)
class CoproductResult:
    """A coproduct in a table category: the object, one coprojection per
    summand, and the category's validating constructor morphism(dom, cod,
    table), which builds the cotupling."""

    obj: object
    coprojections: tuple
    morphism: Callable = field(compare=False, repr=False)

    def cotuple_of(self, legs) -> object:
        """Mediating morphism of a cocone out of the coproduct."""
        legs = tuple(legs)
        if not legs or len(legs) != len(self.coprojections):
            raise EmptyList("cocone leg count differs from summand count")
        cod = legs[0].cod
        for leg, c in zip(legs, self.coprojections):
            if leg.cod != cod:
                raise CodMismatch("cocone legs must share a codomain")
            if leg.dom != c.dom:
                raise DomainMismatch("cocone leg domain differs from summand")
        return self.morphism(self.obj, cod, tuple(v for leg in legs for v in leg.table))


EMPTY_PRODUCT = "empty products are rejected; no terminal-object convention"


def product_of(objs, make, morphism) -> ProductResult:
    """The product of objs in a table category. Its carrier is the tuples
    of the factors' carrier labels in itertools.product order, labelled by
    tuple_label; make(labels, tuples) builds the object on them and
    morphism(dom, cod, table) each projection. No factors raise EmptyList:
    no instance takes a terminal object as the empty product."""
    objs = tuple(objs)
    if not objs:
        raise EmptyList(EMPTY_PRODUCT)
    tuples = list(itertools.product(*(o.carrier.elements for o in objs)))
    obj = make(tuple(map(tuple_label, tuples)), tuples)
    projections = tuple(
        morphism(obj, o, tuple(t[i] for t in tuples)) for i, o in enumerate(objs)
    )
    return ProductResult(obj, projections, morphism)


def coproduct_of(objs, make, morphism) -> CoproductResult:
    """The coproduct of objs in a table category. Its carrier is the pairs
    (i, x) for x in the carrier labels of objs[i], summand by summand,
    labelled by tag_label; make(labels, tags) builds the object on them and
    morphism(dom, cod, table) each coprojection. No summands raise
    EmptyList."""
    objs = tuple(objs)
    if not objs:
        raise EmptyList("empty coproducts are rejected")
    tags = [(i, x) for i, o in enumerate(objs) for x in o.carrier.elements]
    obj = make(tuple(itertools.starmap(tag_label, tags)), tags)
    coprojections = tuple(
        morphism(o, obj, tuple(tag_label(i, x) for x in o.carrier.elements))
        for i, o in enumerate(objs)
    )
    return CoproductResult(obj, coprojections, morphism)


def _set_of(labels, _) -> FinSetObj:
    return FinSetObj(labels)


def product(objs) -> ProductResult:
    """Finite product; element labels are tuples in lexicographic order."""
    return product_of(objs, _set_of, FinFunction)


def coproduct(objs) -> CoproductResult:
    """Finite coproduct; labels are tagged "in0:a", "in1:b", ..."""
    return coproduct_of(objs, _set_of, FinFunction)


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


class Law(NamedTuple):
    """What a table must satisfy, as data. Cells 0 .. len(pools)-1 are the
    table; fixed cells follow, e.g. a codomain's tables in itertools.product
    order. A value is an index into values. An instance (steps, lhs, rhs,
    equal) holds when its sides are equal (unequal when equal is False). A
    step (base, args) reads cell base + args in base len(values); an
    argument or side >= 0 is a value, ~j the value step j read. Cell c
    mentions values up to bounds[c], and cells are set in order of bound
    (in order, each mentioning every value, when bounds is None)."""

    values: tuple
    fixed: tuple = ()
    instances: tuple = ()
    bounds: list | None = None


def table_equation(args, table: int, out: int):
    """The instance cell out = table(cells args), where table is the first
    cell of a fixed table. The args are read latest first, so the instance
    waits for the last of them; out is read last, so they force it."""
    order = sorted(range(len(args)), key=args.__getitem__, reverse=True)
    refs = [0] * len(args)  # ~i where step i reads arg j
    for i, j in enumerate(order):
        refs[j] = ~i
    steps = [(args[j], ()) for j in order] + [(table, tuple(refs)), (out, ())]
    return tuple(steps), ~len(order) - 1, ~len(order), True


def search_tables(pools, law: Law, injective: bool = False, budget: int | None = None):
    """Every table t with t[i] from pools[i] (labels among law.values) that
    satisfies the law, in itertools.product order when the law has no
    bounds (permutations order when injective: no value twice). Returns the
    budget left; raises CarrierTooLarge past budget values tried
    (_TABLE_BUDGET when None). The design of SEM (J. Zhang and H. Zhang,
    IJCAI 1995) and Mace4 (W. McCune, ANL/MCS-TM-264, 2003): an instance is
    watched on the first unset cell it reads, and evaluated again when that
    cell is set. An equation whose only unset read is one side's last step
    forces that cell to one value. Least-number rule: a cell tries values up
    to one past the largest mentioned before it (its bound and the values
    set), as those above are interchangeable. The walk is iterative.
    """
    budget = _TABLE_BUDGET if budget is None else budget
    values, n, u = law.values, len(law.values), len(pools)
    code = {x: i for i, x in enumerate(values)}
    pools = [[code[x] for x in pool] for pool in pools]
    table = [-1] * u + list(law.fixed)
    bounds = law.bounds or [n - 1] * u
    order = sorted(range(u), key=bounds.__getitem__)
    watches: list[list] = [[] for _ in range(u)]
    forced = [-1] * u

    def settle(instances, trail) -> bool:
        # False when one fails; trail gets each watch (c) and force (~c) made
        for inst in instances:
            steps, lhs, rhs, equal = inst
            vals: list = []
            for base, args in steps:
                i = 0
                for a in args:
                    i = i * n + (a if a >= 0 else vals[~a])
                v = table[base + i]
                if v < 0:
                    break
                vals.append(v)
            else:
                if ((lhs if lhs >= 0 else vals[~lhs]) == (rhs if rhs >= 0 else vals[~rhs])) != equal:
                    return False
                continue
            c, j = base + i, len(vals)
            if equal and j == len(steps) - 1 and (lhs == ~j) != (rhs == ~j):
                # it forces c, and holds once c takes the forced value
                other = rhs if lhs == ~j else lhs
                w = other if other >= 0 else vals[~other]
                if forced[c] < 0:
                    forced[c] = w
                    trail.append(~c)
                elif forced[c] != w:
                    return False
            else:
                watches[c].append(inst)
                trail.append(c)
        return True

    def undo(trail):
        for c in reversed(trail):
            if c < 0:
                forced[~c] = -1
            else:
                watches[c].pop()
        trail.clear()

    if not settle(law.instances, []):
        return budget
    top = [-1] * (u + 1)  # largest value mentioned before each place
    nxt = [0] * u  # the next pool index to try at each place
    trails: list = [[] for _ in range(u)]  # the watches and forces made at each place
    p, left = 0, budget
    while p >= 0:
        if p == u:
            yield tuple([values[v] for v in table[:u]])
            p -= 1
            continue
        if trails[p]:
            undo(trails[p])
        c = order[p]
        pool, k = pools[c], nxt[p]
        hi = top[p] if top[p] > bounds[c] else bounds[c]
        lim = hi + 1 if hi < len(pool) - 1 else len(pool) - 1
        w = forced[c]
        if w >= 0:  # only the forced value, where the pool allows it
            j = pool.index(w) if w in pool else len(pool)
            k, lim = max(k, j), (j if j <= lim else -1)
        while k <= lim:
            left -= 1
            if left < 0:
                raise CarrierTooLarge(f"table search tried more than {budget} candidates")
            v = pool[k]
            k += 1
            if injective and v in table[:u]:
                continue
            table[c] = v
            if watches[c] and not settle(watches[c], trails[p]):
                undo(trails[p])
                continue
            nxt[p] = k
            top[p + 1] = hi if hi > v else v
            p += 1
            break
        else:  # no value left here
            table[c], nxt[p] = -1, 0
            p -= 1
    return left
