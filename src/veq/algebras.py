"""Finite algebras over a one-sorted signature: evaluation, satisfaction,
homomorphisms, products, subalgebra closure, congruences, and quotients.
The Birkhoff-style closure operations build on these.
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
from .finset import FinSetObj, _UnionFind, tuple_label
from .theories import App, Signature, Term, Var, term_vars


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


def make_algebra(name: str, signature: Signature, carrier, ops: dict) -> FiniteAlgebra:
    """Build from callables (or dicts) per symbol; constants may be bare labels."""
    carrier = carrier if isinstance(carrier, FinSetObj) else FinSetObj(tuple(carrier))
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for sym, arity in signature.ops:
        fn = ops[sym]
        table = {}
        for args in itertools.product(carrier.elements, repeat=arity):
            if callable(fn):
                table[args] = fn(*args)
            elif isinstance(fn, dict):
                table[args] = fn[args]
            else:
                table[args] = fn  # constant given as a bare label
        tables[sym] = table
    return FiniteAlgebra(name, signature, carrier, tables)


def eval_term(A: FiniteAlgebra, t: Term, env: dict[int, str]) -> str:
    if isinstance(t, Var):
        if t.index not in env:
            raise UnboundVariable(f"variable {t.index} not assigned")
        return env[t.index]
    if t.symbol not in A.tables:
        raise SignatureMismatch(f"symbol {t.symbol} not in algebra {A.name}")
    if len(t.args) != A.signature.arity(t.symbol):
        raise SignatureMismatch(f"symbol {t.symbol} applied at wrong arity")
    return A.op(t.symbol, tuple(eval_term(A, a, env) for a in t.args))


def assignments(A: FiniteAlgebra, n: int):
    """All environments for variables 0..n-1, in carrier-lexicographic order."""
    for combo in itertools.product(A.carrier.elements, repeat=n):
        yield dict(enumerate(combo))


def term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The induced n-ary function as its output tuple over all assignments."""
    return tuple(eval_term(A, t, env) for env in assignments(A, n))


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
    for t in (ident.lhs, ident.rhs):
        _check_symbols(A, t)
    return term_function(A, ident.lhs, ident.context) == term_function(
        A, ident.rhs, ident.context
    )


def _check_symbols(A: FiniteAlgebra, t: Term) -> None:
    if isinstance(t, App):
        if t.symbol not in A.tables or len(t.args) != A.signature.arity(t.symbol):
            raise SignatureMismatch(f"term uses {t.symbol} not matching {A.name}")
        for a in t.args:
            _check_symbols(A, a)


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
        return self.table[self.dom.carrier.elements.index(x)]

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


def all_alg_homs(A: FiniteAlgebra, B: FiniteAlgebra, cap: int = 1_000_000) -> list[AlgHom]:
    """Brute enumeration of homomorphisms A -> B; guarded by a size cap."""
    if len(B.carrier) ** len(A.carrier) > cap:
        raise CarrierTooLarge("hom enumeration space too large")
    out = []
    for table in itertools.product(B.carrier.elements, repeat=len(A.carrier)):
        try:
            out.append(AlgHom(A, B, table))
        except InvariantError:
            continue
    return out


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
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for sym, arity in sig.ops:
        table = {}
        for args in itertools.product(labels, repeat=arity):
            cols = [unpack[a] for a in args]
            out = tuple(
                As[i].op(sym, tuple(col[i] for col in cols)) for i in range(len(As))
            )
            table[args] = tuple_label(out)
        tables[sym] = table
    P = FiniteAlgebra(name or tuple_label([A.name for A in As]), sig, carrier, tables)
    projections = tuple(
        AlgHom(P, As[i], tuple(unpack[l][i] for l in labels)) for i in range(len(As))
    )
    return ProductAlgebraResult(P, projections, unpack)


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
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for sym, arity in A.signature.ops:
        table = {}
        for args in itertools.product(members, repeat=arity):
            out = A.op(sym, args)
            if out not in mset:
                raise InvariantError(f"subset not closed under {sym}")
            table[args] = out
        tables[sym] = table
    S = FiniteAlgebra(
        name or f"{A.name}|{','.join(members)}", A.signature, FinSetObj(members), tables
    )
    return S, AlgHom(S, A, members)


def subalgebras(A: FiniteAlgebra) -> list[tuple[FiniteAlgebra, AlgHom]]:
    """All nonempty closed subsets as algebras with inclusions, smallest
    first, carrier-order tiebreak; includes A itself.
    """
    elems = A.carrier.elements
    found: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if subalgebra_closure(A, combo) == combo and combo not in seen:
                seen.add(combo)
                found.append(combo)
    return [sub_algebra(A, members) for members in found]


# -- congruences ----------------------------------------------------------

Partition = tuple[tuple[str, ...], ...]


def _partition_of(A: FiniteAlgebra, uf: _UnionFind) -> Partition:
    classes: dict[str, list[str]] = {}
    for x in A.carrier.elements:
        classes.setdefault(uf.find(x), []).append(x)
    reps = sorted(classes, key=lambda r: min(A.carrier.elements.index(m) for m in classes[r]))
    return tuple(tuple(classes[r]) for r in reps)


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
    cls: dict[str, int] = {}
    for i, c in enumerate(partition):
        for x in c:
            cls[x] = i
    if set(cls) != set(A.carrier.elements):
        return False
    for sym, arity in A.signature.ops:
        if arity == 0:
            continue
        for args in itertools.product(A.carrier.elements, repeat=arity):
            for i in range(arity):
                for alt in A.carrier.elements:
                    if cls[alt] != cls[args[i]]:
                        continue
                    other = args[:i] + (alt,) + args[i + 1 :]
                    if cls[A.op(sym, args)] != cls[A.op(sym, other)]:
                        return False
    return True


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
            pairs = [(c[0], m) for c in p for m in c[1:]] + [
                (c[0], m) for c in q for m in c[1:]
            ]
            j = congruence_closure(A, pairs)
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
    rep: dict[str, str] = {}
    for c in partition:
        earliest = min(c, key=A.carrier.elements.index)
        for x in c:
            rep[x] = earliest
    labels = tuple(
        sorted({rep[x] for x in A.carrier.elements}, key=A.carrier.elements.index)
    )
    tables: dict[str, dict[tuple[str, ...], str]] = {}
    for sym, arity in A.signature.ops:
        table = {}
        for args in itertools.product(labels, repeat=arity):
            table[args] = rep[A.op(sym, args)]
        tables[sym] = table
    Q = FiniteAlgebra(name or f"{A.name}/~", A.signature, FinSetObj(labels), tables)
    return Q, AlgHom(A, Q, tuple(rep[x] for x in A.carrier.elements))


def find_alg_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> AlgHom | None:
    if len(A.carrier) != len(B.carrier) or A.signature != B.signature:
        return None
    for table in itertools.permutations(B.carrier.elements):
        try:
            return AlgHom(A, B, table)
        except InvariantError:
            continue
    return None
