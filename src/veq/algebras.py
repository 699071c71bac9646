"""Finite algebras over a one-sorted signature: column-wise term evaluation
(over all assignments at once), satisfaction, homomorphisms, products,
subalgebra closure, congruences, and quotients, with every operation table
built by `tabulate`. The Birkhoff-style closure operations build on these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    CarrierTooLarge,
    EmptyList,
    InvariantError,
    SignatureMismatch,
    UnboundVariable,
)
from .finset import FinSetObj, _UnionFind, search_tables, tuple_label
from .theories import Signature, Term, Var, _fold, term_vars


@dataclass(frozen=True)
class FiniteAlgebra:
    """Carrier labels plus one total operation table per signature symbol.

    tables[sym] maps every arity-tuple of carrier labels to a carrier label.
    """

    name: str
    signature: Signature
    carrier: FinSetObj
    tables: dict[str, dict[tuple[str, ...], str]] = field(compare=False)

    def __post_init__(self):
        elems = set(self.carrier.elements)
        if set(self.tables) != {sym for sym, _ in self.signature.ops}:
            raise InvariantError(f"{self.name}: tables do not match signature symbols")
        for sym, arity in self.signature.ops:
            table = self.tables[sym]
            expected = set(itertools.product(self.carrier.elements, repeat=arity))
            if set(table) != expected:
                raise InvariantError(f"{self.name}: table for {sym} is not total")
            for out in table.values():
                if out not in elems:
                    raise InvariantError(f"{self.name}: {sym} output {out} not in carrier")

    def op(self, sym: str, args: tuple[str, ...]) -> str:
        return self.tables[sym][args]

    def __len__(self) -> int:
        return len(self.carrier)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteAlgebra)
            and self.name == other.name
            and self.signature == other.signature
            and self.carrier == other.carrier
            and self.tables == other.tables
        )

    def __hash__(self):
        return hash((self.name, self.signature, self.carrier))


def tabulate(signature: Signature, labels, value) -> dict[str, dict[tuple[str, ...], str]]:
    """One table per symbol: value(sym, args) at every argument tuple of labels."""
    return {
        sym: {args: value(sym, args) for args in itertools.product(labels, repeat=arity)}
        for sym, arity in signature.ops
    }


def make_algebra(name: str, signature: Signature, carrier, ops: dict) -> FiniteAlgebra:
    """Build from callables (or dicts) per symbol; constants may be bare labels."""
    carrier = carrier if isinstance(carrier, FinSetObj) else FinSetObj(tuple(carrier))

    def value(sym, args):
        fn = ops[sym]
        if callable(fn):
            return fn(*args)
        if isinstance(fn, dict):
            return fn[args]
        return fn  # constant given as a bare label

    return FiniteAlgebra(name, signature, carrier, tabulate(signature, carrier.elements, value))


def projections(A: FiniteAlgebra, n: int) -> list[tuple[str, ...]]:
    """The n projection columns over all |A|^n assignments, in
    carrier-lexicographic order; n empty columns when the carrier is empty."""
    return list(zip(*itertools.product(A.carrier.elements, repeat=n))) or [()] * n


def pointwise(A: FiniteAlgebra, sym: str, columns, size: int) -> tuple[str, ...]:
    """sym applied entrywise to argument columns of the given size; a
    nullary symbol gives its constant size times."""
    args = zip(*columns) if columns else itertools.repeat((), size)
    return tuple(map(A.tables[sym].__getitem__, args))


def term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The induced n-ary function as its output tuple over all assignments.

    Raises at the first node in preorder that is a variable of index n or
    more, a symbol A lacks, or a symbol at the wrong arity.
    """
    cols = projections(A, n)
    size = len(A.carrier) ** n

    def leaf(u):
        if u.__class__ is Var:
            if u.index >= n:
                raise UnboundVariable(f"variable {u.index} not assigned")
            return cols[u.index]
        if u.symbol not in A.tables:
            raise SignatureMismatch(f"symbol {u.symbol} not in algebra {A.name}")
        if len(u.args) != A.signature.arity(u.symbol):
            raise SignatureMismatch(f"symbol {u.symbol} applied at wrong arity")
        return None

    return _fold(t, leaf, lambda u, args: pointwise(A, u.symbol, args, size))


@dataclass(frozen=True)
class Identity:
    """An equation between terms, read universally over a variable context."""

    lhs: Term
    rhs: Term
    context: int

    def __post_init__(self):
        for t in (self.lhs, self.rhs):
            for v in term_vars(t):
                if v >= self.context:
                    raise InvariantError("identity uses a variable outside its context")


def satisfies(A: FiniteAlgebra, ident: Identity) -> bool:
    return term_function(A, ident.lhs, ident.context) == term_function(
        A, ident.rhs, ident.context
    )


@dataclass(frozen=True)
class AlgHom:
    dom: FiniteAlgebra
    cod: FiniteAlgebra
    table: tuple[str, ...]

    def __post_init__(self):
        if self.dom.signature != self.cod.signature:
            raise SignatureMismatch("homomorphism endpoints disagree on signature")
        if len(self.table) != len(self.dom.carrier):
            raise InvariantError("homomorphism table length mismatch")
        cod_elems = set(self.cod.carrier.elements)
        for v in self.table:
            if v not in cod_elems:
                raise InvariantError(f"homomorphism value {v} outside codomain")
        for sym, arity in self.dom.signature.ops:
            for args in itertools.product(self.dom.carrier.elements, repeat=arity):
                if self(self.dom.op(sym, args)) != self.cod.op(
                    sym, tuple(self(a) for a in args)
                ):
                    raise InvariantError(f"not a homomorphism at {sym}{args}")

    def __call__(self, x: str) -> str:
        return self.table[self.dom.carrier._index[x]]

    def mapping(self) -> dict[str, str]:
        return dict(zip(self.dom.carrier.elements, self.table))

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_surjective(self) -> bool:
        return set(self.table) == set(self.cod.carrier.elements)


def alg_hom(dom: FiniteAlgebra, cod: FiniteAlgebra, mapping: dict[str, str]) -> AlgHom:
    return AlgHom(dom, cod, tuple(mapping[x] for x in dom.carrier.elements))


def identity_alg_hom(A: FiniteAlgebra) -> AlgHom:
    return AlgHom(A, A, A.carrier.elements)


def compose_alg_homs(g: AlgHom, f: AlgHom) -> AlgHom:
    if f.cod != g.dom:
        raise InvariantError("algebra hom composition endpoints mismatch")
    return AlgHom(f.dom, g.cod, tuple(g(v) for v in f.table))


def hom_checks(A: FiniteAlgebra, B: FiniteAlgebra) -> list[list]:
    """The homomorphism law A -> B for search_tables over A's carrier: one
    check per operation-table entry."""
    if A.signature != B.signature:
        raise SignatureMismatch("homomorphism endpoints disagree on signature")
    idx = A.carrier._index
    checks: list[list] = [[] for _ in A.carrier.elements]
    for sym, table in A.tables.items():
        image = B.tables[sym]
        for args, out in table.items():
            pos, o = tuple(idx[a] for a in args), idx[out]
            checks[max(pos + (o,))].append(
                lambda t, pos=pos, o=o, image=image: t[o] == image[tuple(map(t.__getitem__, pos))])
    return checks


def all_alg_homs(A: FiniteAlgebra, B: FiniteAlgebra, cap: int = 1_000_000) -> list[AlgHom]:
    """Every homomorphism A -> B in table order, found by the table search."""
    if len(B.carrier) ** len(A.carrier) > cap:
        raise CarrierTooLarge("hom enumeration space too large")
    pools = [B.carrier.elements] * len(A.carrier)
    return [AlgHom(A, B, t) for t in search_tables(pools, hom_checks(A, B))]


def product_algebra(As: list[FiniteAlgebra], name: str | None = None) -> "ProductAlgebraResult":
    if not As:
        raise EmptyList("product of no algebras")
    sig = As[0].signature
    for A in As:
        if A.signature != sig:
            raise SignatureMismatch("product factors disagree on signature")
    combos = list(itertools.product(*(A.carrier.elements for A in As)))
    labels = [tuple_label(c) for c in combos]
    carrier = FinSetObj(tuple(labels))
    unpack = dict(zip(labels, combos))

    def value(sym, args):
        # factor by factor, so a constant takes each factor's own value
        cols = [unpack[a] for a in args]
        return tuple_label([F.op(sym, tuple(c[i] for c in cols)) for i, F in enumerate(As)])

    tables = tabulate(sig, labels, value)
    P = FiniteAlgebra(name or tuple_label([A.name for A in As]), sig, carrier, tables)
    legs = tuple(
        AlgHom(P, As[i], tuple(unpack[l][i] for l in labels)) for i in range(len(As))
    )
    return ProductAlgebraResult(P, legs, unpack)


@dataclass(frozen=True)
class ProductAlgebraResult:
    obj: FiniteAlgebra
    projections: tuple[AlgHom, ...]
    _unpack: dict[str, tuple[str, ...]] = field(compare=False)

    def tuple_of(self, legs: list[AlgHom]) -> AlgHom:
        if len(legs) != len(self.projections):
            raise InvariantError("tupling needs one leg per factor")
        dom = legs[0].dom
        table = tuple(
            tuple_label([leg(x) for leg in legs]) for x in dom.carrier.elements
        )
        return AlgHom(dom, self.obj, table)


def subalgebra_closure(A: FiniteAlgebra, seed) -> tuple[str, ...]:
    """Least subset containing the seed (and all constants) closed under the
    operations, in carrier order.
    """
    members = set(seed)
    for x in members:
        if x not in set(A.carrier.elements):
            raise InvariantError(f"seed element {x} not in carrier")
    changed = True
    while changed:
        changed = False
        for sym, arity in A.signature.ops:
            for args in itertools.product(sorted(members), repeat=arity):
                out = A.op(sym, args)
                if out not in members:
                    members.add(out)
                    changed = True
    return tuple(x for x in A.carrier.elements if x in members)


def sub_algebra(A: FiniteAlgebra, members, name: str | None = None) -> tuple[FiniteAlgebra, AlgHom]:
    members = tuple(x for x in A.carrier.elements if x in set(members))
    mset = set(members)

    def value(sym, args):
        out = A.op(sym, args)
        if out not in mset:
            raise InvariantError(f"subset not closed under {sym}")
        return out

    tables = tabulate(A.signature, members, value)
    S = FiniteAlgebra(
        name or f"{A.name}|{','.join(members)}", A.signature, FinSetObj(members), tables
    )
    return S, AlgHom(S, A, members)


def subalgebras(A: FiniteAlgebra) -> list[tuple[FiniteAlgebra, AlgHom]]:
    """All nonempty closed subsets as algebras with inclusions, smallest
    first, carrier-order tiebreak; includes A itself.
    """
    elems = A.carrier.elements
    return [
        sub_algebra(A, combo)
        for r in range(1, len(elems) + 1)
        for combo in itertools.combinations(elems, r)
        if subalgebra_closure(A, combo) == combo
    ]


# -- congruences ----------------------------------------------------------

Partition = tuple[tuple[str, ...], ...]


def _partition_of(A: FiniteAlgebra, uf: _UnionFind) -> Partition:
    classes: dict[str, list[str]] = {}
    for x in A.carrier.elements:
        classes.setdefault(uf.find(x), []).append(x)
    # keyed in order of each class's earliest member
    return tuple(tuple(c) for c in classes.values())


def _pairs(partition: Partition) -> list[tuple[str, str]]:
    """Pairs whose equivalence closure is the partition."""
    return [(c[0], x) for c in partition for x in c[1:]]


def congruence_closure(A: FiniteAlgebra, pairs) -> Partition:
    """Least operation-compatible partition identifying the given pairs."""
    uf = _UnionFind(A.carrier.elements)
    for a, b in pairs:
        uf.union(a, b)
    changed = True
    while changed:
        changed = False
        for sym, arity in A.signature.ops:
            if arity == 0:
                continue
            elems = A.carrier.elements
            for args in itertools.product(elems, repeat=arity):
                for i in range(arity):
                    for alt in elems:
                        if alt == args[i] or uf.find(alt) != uf.find(args[i]):
                            continue
                        other = args[:i] + (alt,) + args[i + 1 :]
                        a, b = A.op(sym, args), A.op(sym, other)
                        if uf.find(a) != uf.find(b):
                            uf.union(a, b)
                            changed = True
    return _partition_of(A, uf)


def is_congruence(A: FiniteAlgebra, partition: Partition) -> bool:
    """A partition of the carrier (nonempty, disjoint classes covering it)
    that the congruence closure of its own pairs leaves unchanged."""
    members = [x for c in partition for x in c]
    if not all(partition) or sorted(members) != sorted(A.carrier.elements):
        return False
    closure = congruence_closure(A, _pairs(partition))
    return set(map(frozenset, closure)) == set(map(frozenset, partition))


def congruences(A: FiniteAlgebra, bound: int = 8) -> list[Partition]:
    """All congruences, via principal congruences closed under joins.

    Complete because every congruence is the join of the principal
    congruences its pairs generate. Ordered coarsest-last by class count.
    """
    if len(A.carrier) > bound:
        raise CarrierTooLarge(f"carrier {len(A.carrier)} exceeds bound {bound}")
    elems = A.carrier.elements
    bottom = tuple((x,) for x in elems)
    found: set[Partition] = {bottom}
    frontier: list[Partition] = []
    for a, b in itertools.combinations(elems, 2):
        p = congruence_closure(A, [(a, b)])
        if p not in found:
            found.add(p)
            frontier.append(p)
    principals = list(frontier)
    while frontier:
        p = frontier.pop()
        for q in principals:
            j = congruence_closure(A, _pairs(p) + _pairs(q))
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda p: (-len(p), p))


def quotient_algebra(
    A: FiniteAlgebra, partition: Partition, name: str | None = None
) -> tuple[FiniteAlgebra, AlgHom]:
    """Quotient by a congruence; class labels are earliest-member labels."""
    if not is_congruence(A, partition):
        raise InvariantError("partition is not operation-compatible")
    rep = {x: min(c, key=A.carrier.elements.index) for c in partition for x in c}
    # each class's label first occurs at its earliest member
    labels = tuple(dict.fromkeys(rep[x] for x in A.carrier.elements))
    tables = tabulate(A.signature, labels, lambda sym, args: rep[A.op(sym, args)])
    Q = FiniteAlgebra(name or f"{A.name}/~", A.signature, FinSetObj(labels), tables)
    return Q, AlgHom(A, Q, tuple(rep[x] for x in A.carrier.elements))


def find_alg_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> AlgHom | None:
    if len(A.carrier) != len(B.carrier) or A.signature != B.signature:
        return None
    pools = [B.carrier.elements] * len(A.carrier)
    table = next(search_tables(pools, hom_checks(A, B), injective=True), None)
    return None if table is None else AlgHom(A, B, table)
