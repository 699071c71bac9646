"""The per-assignment, fold-based and column-wise term evaluators, the
fixed-point and loop-based congruence checks, the re-closing congruence
lattice, the product-table loop and the brute hom and isomorphism
enumerations and the product algebra that veq.algebras replaced, kept as
an oracle.

veq.algebras now evaluates a term column-wise in one explicit-stack loop over
projection columns, memoizing subterm columns for one algebra and one number
of variables at a time, builds every table but a product's with `tabulate`,
closes a set of pairs to a congruence by pair propagation (each union of a
and b pushes the images of a and b under every one-position translation),
joins congruences by a union-find merge of their pairs alone, and checks a
congruence by asking whether the closure of its own pairs leaves it
unchanged. These are the earlier versions, unchanged apart from their names:
the first evaluator recurses once per assignment, the second folds the
columns through `theories._fold` with callbacks, and the third is the
explicit-stack loop without the memo, which builds every subterm's column
again on each call; the closure rescans every argument tuple against every
element of the same class until nothing changes, and the lattice closes every
join again; the congruence check tries every argument position against every
element of the same class. The hom and isomorphism enumerations try every
table of itertools.product (or permutations) and keep those the AlgHom
constructor accepts; veq now finds them with finset.search_tables under
algebras.hom_checks. The free algebra's closure rescanned every argument
tuple of the growing carrier each round and evaluated the tables again
afterwards; veq.birkhoff now evaluates each tuple once, in a semi-naive
closure. The product algebra labelled its own tuples and tupled its legs with
its own checks; veq now builds it with finset.product_of, as every table
category's product, and fills its tables column-wise, one pointwise step per
factor. `oracle_check_tables` is the earlier `FiniteAlgebra.__post_init__`,
which compared each table's key set with a set of every argument tuple; veq
now counts the keys and looks each argument tuple up.
"""

import itertools
from dataclasses import dataclass, field

from veq import algebras as alg
from veq.algebras import AlgHom, FiniteAlgebra, Partition, _pairs, _partition_of
from veq.birkhoff import _MAX_ASSIGNMENTS, FreeAlgebraResult
from veq.errors import (
    BoundsTooLarge,
    CarrierTooLarge,
    EmptyList,
    InvariantError,
    SignatureMismatch,
    UnboundVariable,
)
from veq.finset import FinSetObj, _UnionFind, tuple_label
from veq.theories import App, Term, Var, _fold


def oracle_check_tables(name, signature, carrier: FinSetObj, tables) -> None:
    """Raise the InvariantError FiniteAlgebra(name, ...) raises, if any."""
    elems = set(carrier.elements)
    if set(tables) != {sym for sym, _ in signature.ops}:
        raise InvariantError(f"{name}: tables do not match signature symbols")
    for sym, arity in signature.ops:
        table = tables[sym]
        expected = set(itertools.product(carrier.elements, repeat=arity))
        if set(table) != expected:
            raise InvariantError(f"{name}: table for {sym} is not total")
        for out in table.values():
            if out not in elems:
                raise InvariantError(f"{name}: {sym} output {out} not in carrier")


def oracle_eval_term(A: FiniteAlgebra, t: Term, env: dict[int, str]) -> str:
    if isinstance(t, Var):
        if t.index not in env:
            raise UnboundVariable(f"variable {t.index} not assigned")
        return env[t.index]
    if t.symbol not in A.tables:
        raise SignatureMismatch(f"symbol {t.symbol} not in algebra {A.name}")
    if len(t.args) != A.signature.arity(t.symbol):
        raise SignatureMismatch(f"symbol {t.symbol} applied at wrong arity")
    return A.op(t.symbol, tuple(oracle_eval_term(A, a, env) for a in t.args))


def oracle_assignments(A: FiniteAlgebra, n: int):
    """All environments for variables 0..n-1, in carrier-lexicographic order."""
    for combo in itertools.product(A.carrier.elements, repeat=n):
        yield dict(enumerate(combo))


def oracle_term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The induced n-ary function as its output tuple over all assignments."""
    return tuple(oracle_eval_term(A, t, env) for env in oracle_assignments(A, n))


def oracle_fold_term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The same output tuple, by one bottom-up fold over the projection columns."""
    cols = alg.projections(A, n)
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

    return _fold(t, leaf, lambda u, args: alg.pointwise(A, u.symbol, args, size))


def oracle_columnwise_term_function(A: FiniteAlgebra, t: Term, n: int) -> tuple[str, ...]:
    """The same output tuple, by one explicit-stack loop over the projection
    columns that evaluates every subterm again on each call."""
    cols = alg.projections(A, n)
    size = len(A.carrier) ** n
    tables, arities = A.tables, dict(A.signature.ops)
    values: list[tuple[str, ...]] = []
    # terms to visit in preorder, and (table, arity) entries that apply a
    # symbol to the columns its arguments left on top of `values`
    todo: list = [t]
    while todo:
        u = todo.pop()
        if u.__class__ is tuple:
            table, k = u
            k = len(values) - k
            out = tuple(map(table.__getitem__, zip(*values[k:])))
            del values[k:]
            values.append(out)
        elif u.__class__ is Var:
            if u.index >= n:
                raise UnboundVariable(f"variable {u.index} not assigned")
            values.append(cols[u.index])
        else:
            sym, args = u.symbol, u.args
            if sym not in tables:
                raise SignatureMismatch(f"symbol {sym} not in algebra {A.name}")
            if len(args) != arities[sym]:
                raise SignatureMismatch(f"symbol {sym} applied at wrong arity")
            if args:
                todo.append((tables[sym], len(args)))
                todo.extend(reversed(args))
            else:
                values.append((tables[sym][()],) * size)
    return values[0]


def oracle_congruence_closure(A: FiniteAlgebra, pairs) -> Partition:
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
    return _partition_of(A, uf.find)


def oracle_congruences(A: FiniteAlgebra, bound: int = 8) -> list[Partition]:
    """All congruences, via principal congruences closed under joins, each
    join closed again. Ordered coarsest-last by class count."""
    if len(A.carrier) > bound:
        raise CarrierTooLarge(f"carrier {len(A.carrier)} exceeds bound {bound}")
    elems = A.carrier.elements
    bottom = tuple((x,) for x in elems)
    found: set[Partition] = {bottom}
    frontier: list[Partition] = []
    for a, b in itertools.combinations(elems, 2):
        p = oracle_congruence_closure(A, [(a, b)])
        if p not in found:
            found.add(p)
            frontier.append(p)
    principals = list(frontier)
    while frontier:
        p = frontier.pop()
        for q in principals:
            j = oracle_congruence_closure(A, _pairs(p) + _pairs(q))
            if j not in found:
                found.add(j)
                frontier.append(j)
    return sorted(found, key=lambda p: (-len(p), p))


def oracle_is_congruence(A: FiniteAlgebra, partition: Partition) -> bool:
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


def oracle_product_tables(As: list[FiniteAlgebra]) -> dict[str, dict[tuple[str, ...], str]]:
    """The operation tables of the product algebra of the factors."""
    sig = As[0].signature
    combos = list(itertools.product(*(A.carrier.elements for A in As)))
    labels = [tuple_label(c) for c in combos]
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
    return tables


def oracle_product_algebra(As: list[FiniteAlgebra], name: str | None = None) -> "ProductAlgebraResult":
    """The product algebra with its projections, labelling its own tuples."""
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

    tables = alg.tabulate(sig, labels, value)
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


def oracle_all_alg_homs(A: FiniteAlgebra, B: FiniteAlgebra, cap: int = 1_000_000) -> list[AlgHom]:
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


def oracle_find_alg_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra) -> AlgHom | None:
    if len(A.carrier) != len(B.carrier) or A.signature != B.signature:
        return None
    for table in itertools.permutations(B.carrier.elements):
        try:
            return AlgHom(A, B, table)
        except InvariantError:
            continue
    return None


def oracle_free_algebra_in_variety(A: FiniteAlgebra, n: int, cap: int = 1_000_000) -> FreeAlgebraResult:
    """The algebra of n-ary term functions on A: the closure of the
    projections under pointwise operations. Carrier labels spell out the
    function's value tuple over all assignments in carrier-lexicographic
    order. It holds at most cap table entries (sum of |F|^arity), checked as F grows.
    """
    size = len(A.carrier) ** n
    if size > _MAX_ASSIGNMENTS:
        raise BoundsTooLarge("too many assignments to tabulate")
    projections = alg.projections(A, n)
    funcs: dict[tuple[str, ...], Term] = {}  # in order of discovery
    for i, p in enumerate(projections):
        funcs.setdefault(p, Var(i))
    # constants enter through arity-0 symbols even with n = 0 generators,
    # since a nullary product has exactly one (empty) argument tuple
    while True:
        order = list(funcs)
        for sym, arity in A.signature.ops:
            for combo in itertools.product(order, repeat=arity):
                out = alg.pointwise(A, sym, combo, size)
                if out not in funcs:
                    funcs[out] = App(sym, tuple(funcs[c] for c in combo))
                    if sum(len(funcs) ** k for _, k in A.signature.ops) > cap:
                        raise BoundsTooLarge(f"free algebra tables exceed {cap} entries")
        if len(funcs) == len(order):
            break
    labels = [tuple_label(f) for f in funcs]
    unpack = dict(zip(labels, funcs))

    def value(sym, args):
        return tuple_label(alg.pointwise(A, sym, [unpack[a] for a in args], size))

    tables = alg.tabulate(A.signature, labels, value)
    F = FiniteAlgebra(
        f"Free({A.name},{n})", A.signature, FinSetObj(tuple(labels)), tables
    )
    return FreeAlgebraResult(
        F,
        tuple(tuple_label(p) for p in projections),
        {tuple_label(f): t for f, t in funcs.items()},
        n,
        A,
    )
