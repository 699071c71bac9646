"""Finite algebras over a one-sorted signature: column-wise term evaluation
(over all assignments at once), satisfaction, homomorphisms, products,
subalgebra closure, congruences, and quotients. The tables of given
operations, subalgebras, quotients and birkhoff's free algebras are built
by `tabulate`. A homomorphism (`AlgHom`) is a finset.FinFunction that adds
only the signature check and the hom law; its mapping constructor,
identity and compose are FinFunction's. A product algebra is the
table-category product of finset.product_of, with its tables filled
column-wise: each argument column of the product is split into the
factors' coordinate columns, and each factor applies its table to its own
in one pointwise step. The Birkhoff-style closure operations build on
these.

`term_function` keeps one module-level memo slot: for the algebra of its
last call (by identity) and that call's n, the projection columns, |A|^n,
the arity of each symbol, and the column of every subterm with arguments
evaluated since. A call with another algebra or n replaces the slot, so it
holds one algebra's subterms at a time, and it is emptied before it would
hold more than _MEMO_CELLS (2^16) column entries. `tabulate` and
`product_algebra` share the argument tuples of one carrier and arity
between all the tables built over it, for carriers with at most
_SHARED_ARGUMENTS of them; the construction check reads the same tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    CarrierTooLarge,
    InvariantError,
    SignatureMismatch,
    UnboundVariable,
)
from .finset import (
    FinFunction,
    FinSetObj,
    Law,
    ProductResult,
    _UnionFind,
    product_of,
    search_tables,
    table_equation,
    tuple_label,
)
from .theories import Signature, Term, Var, term_vars


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
        elements, index = self.carrier.elements, self.carrier._index
        if set(self.tables) != {sym for sym, _ in self.signature.ops}:
            raise InvariantError(f"{self.name}: tables do not match signature symbols")
        for sym, arity in self.signature.ops:
            table = self.tables[sym]
            # as many keys as argument tuples, and every argument tuple a key:
            # the keys are exactly the argument tuples
            if len(table) != len(elements) ** arity or not all(
                map(table.__contains__, _arguments(elements, arity))
            ):
                raise InvariantError(f"{self.name}: table for {sym} is not total")
            if not set(table.values()) <= index.keys():
                out = next(out for out in table.values() if out not in index)
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
    labels = tuple(labels)
    return {
        sym: {args: value(sym, args) for args in _arguments(labels, arity)}
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


# the most argument tuples of one carrier and arity that _arguments shares
_SHARED_ARGUMENTS = 4096


def _arguments(labels: tuple[str, ...], arity: int):
    """Every arity-tuple of labels, in lexicographic order. Small carriers
    share one set of tuples between all their tables."""
    if len(labels) ** arity <= _SHARED_ARGUMENTS:
        return _shared_arguments(labels, arity)
    return itertools.product(labels, repeat=arity)


@lru_cache(maxsize=16)
def _shared_arguments(labels: tuple[str, ...], arity: int) -> tuple[tuple[str, ...], ...]:
    return tuple(itertools.product(labels, repeat=arity))


@lru_cache(maxsize=16)
def _columns(elements: tuple[str, ...], n: int) -> tuple[tuple[str, ...], ...]:
    # keyed by the carrier's labels alone, so it holds no operation table;
    # a few entries cover the carriers one computation moves between
    return tuple(zip(*itertools.product(elements, repeat=n))) or ((),) * n


def projections(A: FiniteAlgebra, n: int) -> list[tuple[str, ...]]:
    """The n projection columns over all |A|^n assignments, in
    carrier-lexicographic order; n empty columns when the carrier is empty."""
    return list(_columns(A.carrier.elements, n))


def pointwise(A: FiniteAlgebra, sym: str, columns, size: int) -> tuple[str, ...]:
    """sym applied entrywise to argument columns of the given size; a
    nullary symbol gives its constant size times."""
    args = zip(*columns) if columns else itertools.repeat((), size)
    return tuple(map(A.tables[sym].__getitem__, args))


class _SubtermMemo:
    """What term_function keeps between calls on one algebra and one n: the
    per-(A, n) constants, and each subterm evaluated so far with its column.
    It holds A itself, so that `algebra is A` never matches a recycled id."""

    __slots__ = ("algebra", "n", "cols", "size", "arities", "memoized", "room")

    def __init__(self, A: FiniteAlgebra, n: int):
        self.algebra, self.n = A, n
        self.cols = _columns(A.carrier.elements, n)
        self.size = len(A.carrier) ** n
        self.arities = dict(A.signature.ops)
        self.memoized: dict[Term, tuple[str, ...]] = {}
        # every column of one (A, n) has `size` entries, so the cell cap is
        # a cap on the number of columns
        self.room = _MEMO_CELLS // max(self.size, 1)

    def keep(self, u: Term, out: tuple[str, ...]) -> None:
        """Store u's column, emptying the memo first if it is full."""
        if len(self.memoized) >= self.room:
            if not self.room:
                return
            self.memoized.clear()
        self.memoized[u] = out


# the most column entries term_function's memo holds; a column that would
# pass it empties the memo first, and a column larger than it is not kept
_MEMO_CELLS = 1 << 16
_memo: _SubtermMemo | None = None


def term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The induced n-ary function as its output tuple over all assignments.

    Raises at the first node in preorder that is a variable of index n or
    more, a symbol A lacks, or a symbol at the wrong arity.

    Subterm columns are memoized for one algebra and one n at a time: the
    memo is keyed on A by identity and on n, and a call with another A or n
    replaces it. It maps every subterm with arguments evaluated since then
    to its column, so a term whose arguments are assigned variables or
    memoized subterms costs one pointwise step, outside the loop; it is
    emptied before it would hold more than _MEMO_CELLS (2^16) column
    entries. A column is stored only after its node has
    evaluated, so a memoized subterm holds no offending node and errors are
    unchanged.
    """
    global _memo
    memo = _memo
    if memo is None or memo.algebra is not A or memo.n != n:
        memo = _memo = _SubtermMemo(A, n)
    cols, size, arities = memo.cols, memo.size, memo.arities
    memoized, tables = memo.memoized, A.tables
    # a well-formed application whose arguments are all assigned variables or
    # memoized subterms is one pointwise step; any other term, and so any
    # term that raises, goes through the loop
    args = () if t.__class__ is Var else t.args
    if args and t.symbol in tables and len(args) == arities[t.symbol]:
        out = memoized.get(t)
        if out is not None:
            return out
        ready = []
        for u in args:
            if u.__class__ is Var:
                out = cols[u.index] if u.index < n else None
            else:
                out = memoized.get(u)
            if out is None:
                break
            ready.append(out)
        else:
            out = tuple(map(tables[t.symbol].__getitem__, zip(*ready)))
            memo.keep(t, out)
            return out
    values: list[tuple[str, ...]] = []
    # terms to visit in preorder, and (table, arity, term) entries that apply
    # a symbol to the columns its arguments left on top of `values`
    todo: list = [t]
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:
            table, k, u = u
            k = len(values) - k
            out = tuple(map(table.__getitem__, zip(*values[k:])))
            del values[k:]
            values.append(out)
            memo.keep(u, out)
        elif u.__class__ is Var:
            if u.index >= n:
                raise UnboundVariable(f"variable {u.index} not assigned")
            values.append(cols[u.index])
        else:
            out = memoized.get(u)
            if out is not None:
                values.append(out)
                continue
            sym, args = u.symbol, u.args
            if sym not in tables:
                raise SignatureMismatch(f"symbol {sym} not in algebra {A.name}")
            if len(args) != arities[sym]:
                raise SignatureMismatch(f"symbol {sym} applied at wrong arity")
            if args:
                todo.append((tables[sym], len(args), u))
                todo.extend(reversed(args))
            else:
                values.append((tables[sym][()],) * size)
    return values[0]


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
class AlgHom(FinFunction):
    """A homomorphism between algebras over one signature: a table map
    whose table commutes with every operation."""

    _length_error = "homomorphism table length mismatch"
    _value_error = "homomorphism value {} outside codomain"

    def __post_init__(self):
        if self.dom.signature != self.cod.signature:
            raise SignatureMismatch("homomorphism endpoints disagree on signature")
        super().__post_init__()
        image = self.mapping().__getitem__
        for sym, arity in self.dom.signature.ops:
            table = self.dom.tables[sym]
            # column-wise over the table's entries, in whatever order it lists them
            columns = [map(image, col) for col in zip(*table)]
            if pointwise(self.cod, sym, columns, len(table)) != tuple(map(image, table.values())):
                cod_table = self.cod.tables[sym]
                # name the first failing entry in itertools.product order
                args = next(
                    args for args in itertools.product(self.dom.carrier.elements, repeat=arity)
                    if image(table[args]) != cod_table[tuple(map(image, args))]
                )
                raise InvariantError(f"not a homomorphism at {sym}{args}")


alg_hom = AlgHom.from_mapping
identity_alg_hom = AlgHom.identity
compose_alg_homs = AlgHom.compose


def hom_checks(A: FiniteAlgebra, B: FiniteAlgebra) -> Law:
    """The homomorphism law A -> B for search_tables over A's carrier: B's
    tables are fixed cells, and each entry out = f(args) of A's tables is
    the equation h(out) = f_B(h(args))."""
    if A.signature != B.signature:
        raise SignatureMismatch("homomorphism endpoints disagree on signature")
    idx, code = A.carrier._index, B.carrier._index
    fixed, instances = [], []
    for sym, arity in A.signature.ops:
        base, image = len(A.carrier) + len(fixed), B.tables[sym]
        fixed += (code[image[args]] for args in itertools.product(B.carrier.elements, repeat=arity))
        instances += (table_equation([idx[a] for a in args], base, idx[out])
                      for args, out in A.tables[sym].items())
    return Law(B.carrier.elements, tuple(fixed), tuple(instances))


def product_algebra(As: list[FiniteAlgebra], name: str | None = None) -> ProductResult:
    for A in As:
        if A.signature != As[0].signature:
            raise SignatureMismatch("product factors disagree on signature")

    def make(labels, tuples):
        sig = As[0].signature
        unpack = dict(zip(labels, tuples)).__getitem__
        label_of = dict(zip(tuples, labels)).__getitem__
        tables = {}
        for sym, arity in sig.ops:
            size = len(labels) ** arity
            # each argument column of the product, split into one coordinate
            # column per factor
            coords = [tuple(zip(*map(unpack, col))) or ((),) * len(As)
                      for col in _columns(labels, arity)]
            # factor by factor, so a constant takes each factor's own value
            outs = [pointwise(F, sym, [c[i] for c in coords], size) for i, F in enumerate(As)]
            tables[sym] = dict(zip(_arguments(labels, arity), map(label_of, zip(*outs))))
        return FiniteAlgebra(
            name or tuple_label([A.name for A in As]), sig, FinSetObj(labels), tables
        )

    return product_of(As, make, AlgHom)


def subalgebra_closure(A: FiniteAlgebra, seed) -> tuple[str, ...]:
    """Least subset containing the seed (and all constants) closed under the
    operations, in carrier order.
    """
    members = set(seed)
    for x in members:
        if x not in A.carrier:
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


def _partition_of(A: FiniteAlgebra, find) -> Partition:
    """The classes of find (element -> class root) in carrier order."""
    classes: dict[str, list[str]] = {}
    for x in A.carrier.elements:
        classes.setdefault(find(x), []).append(x)
    # keyed in order of each class's earliest member
    return tuple(tuple(c) for c in classes.values())


def _pairs(partition: Partition) -> list[tuple[str, str]]:
    """Pairs whose equivalence closure is the partition."""
    return [(c[0], x) for c in partition for x in c[1:]]


def congruence_closure(A: FiniteAlgebra, pairs) -> Partition:
    """Least operation-compatible partition identifying the given pairs.

    Pair propagation (Freese, "Computing congruences efficiently", 2008):
    each union of a and b pushes (f(..a..), f(..b..)) for every symbol of
    positive arity, every position and every value of the other positions.
    The partition is generated by the merged pairs, so it is compatible once
    every merged pair's images are in it.
    """
    elems = A.carrier.elements
    root = {x: x for x in elems}  # element -> its class's root
    members = {x: [x] for x in elems}  # root -> its class
    todo = list(pairs)
    for pair in todo:
        for x in pair:
            if x not in root:
                raise InvariantError(f"pair element {x} not in carrier")
    ops = [(A.tables[sym], arity) for sym, arity in A.signature.ops if arity]
    while todo:
        a, b = todo.pop()
        ra, rb = root[a], root[b]
        if ra == rb:
            continue
        if len(members[ra]) < len(members[rb]):
            ra, rb = rb, ra
        for x in members[rb]:
            root[x] = ra
        members[ra] += members.pop(rb)
        for table, arity in ops:
            for rest in itertools.product(elems, repeat=arity - 1):
                for i in range(arity):
                    pre, post = rest[:i], rest[i:]
                    todo.append((table[pre + (a,) + post], table[pre + (b,) + post]))
    return _partition_of(A, root.__getitem__)


def is_congruence(A: FiniteAlgebra, partition: Partition) -> bool:
    """A partition of the carrier (nonempty, disjoint classes covering it)
    compatible with every operation: the class of each output is a function
    of the classes of the arguments."""
    members = [x for c in partition for x in c]
    if not all(partition) or sorted(members) != sorted(A.carrier.elements):
        return False
    cls = {x: i for i, c in enumerate(partition) for x in c}
    for table in A.tables.values():
        image: dict = {}
        for args, out in table.items():
            if image.setdefault(tuple(map(cls.__getitem__, args)), cls[out]) != cls[out]:
                return False
    return True


def congruences(A: FiniteAlgebra, bound: int = 8) -> list[Partition]:
    """All congruences, via principal congruences closed under joins.

    Complete because every congruence is the join of the principal
    congruences its pairs generate. Con(A) is a sublattice of the partition
    lattice, so a join is the union-find merge of both partitions' pairs,
    with no closure. Ordered coarsest-last by class count.
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
            uf = _UnionFind(elems)
            for a, b in _pairs(p) + _pairs(q):
                uf.union(a, b)
            j = _partition_of(A, uf.find)
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
    rep = {x: min(c, key=A.carrier._index.__getitem__) for c in partition for x in c}
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
