"""The per-assignment term evaluator, the loop-based congruence check, the
product-table loop and the brute hom and isomorphism enumerations that
veq.algebras replaced, kept as an oracle.

veq.algebras now evaluates a term column-wise (one bottom-up fold over the
projection columns), builds every table with `tabulate`, and checks a
congruence by asking whether the closure of its own pairs leaves it
unchanged. These are the earlier versions, unchanged apart from their names:
the evaluator recurses once per assignment, and the congruence check tries
every argument position against every element of the same class. The hom
and isomorphism enumerations try every table of itertools.product (or
permutations) and keep those the AlgHom constructor accepts; veq now finds
them with finset.search_tables under algebras.hom_checks.
"""

import itertools

from veq.algebras import AlgHom, FiniteAlgebra, Partition
from veq.errors import CarrierTooLarge, InvariantError, SignatureMismatch, UnboundVariable
from veq.finset import tuple_label
from veq.theories import Term, Var


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
