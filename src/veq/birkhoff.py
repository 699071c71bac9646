"""HSP-style closure computations on finite algebras: membership in the
variety a finite algebra generates (bounded), identity extraction, free
algebras of term functions, and the group-flavored computations routed
through the abstract equation calculus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import algebras as alg
from . import groups as grp
from ._models import countermodel
from .algebras import FiniteAlgebra, Identity
from .equations import CoEquationSystem, Equation, EquationSystem, general_cosolution, general_solution
from .errors import BoundsTooLarge, SignatureMismatch
from .finset import FinSetObj, SubobjectMono, fin_function, tuple_label
from .instances import FinGrpCat
from .theories import (
    App,
    Budget,
    Normalizer,
    Signature,
    Term,
    TheoryPresentation,
    Var,
    _ProofSearch,
    congruent,
    term_size,
)

_GRP_CAT = FinGrpCat()

# most assignments (|A|^n) a term function is evaluated or tabulated over
_MAX_ASSIGNMENTS = 4096

# hsp_member's bounds: the variables and depth of the identities a negative
# answer draws its certificate from, and the largest subalgebra of a power
# whose congruences it searches
_CERTIFICATE_VARS = 2
_CERTIFICATE_DEPTH = 2
_CONGRUENCE_BOUND = 8

# identities_of's proof search finds nearly every proof it finds at all
# within this many expansions (histogram in CHANGES.md); past it, a small
# countermodel is sought before the search runs to its full budget
_PROOF_PREFIX = 40
# the largest carrier of those countermodels
_MODEL_SIZE = 3


# -- term enumeration ------------------------------------------------------

def enumerate_terms(
    sig: Signature, n_vars: int, depth: int, cap: int = 20_000
) -> list[Term]:
    """All terms of depth <= depth over variables 0..n_vars-1, deterministic
    order (depth layer by layer, symbols in signature order).
    """
    layer: list[Term] = [Var(i) for i in range(n_vars)]
    seen: set[Term] = set(layer)
    out: list[Term] = list(layer)
    for _ in range(depth):
        new: list[Term] = []
        for sym, arity in sig.ops:
            for args in itertools.product(out, repeat=arity):
                t = App(sym, args)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
                    if len(seen) > cap:
                        raise BoundsTooLarge("term enumeration exceeds cap")
        out.extend(new)
    return out


def identities_of(
    A: FiniteAlgebra,
    n_vars: int,
    depth: int,
    raw: bool = False,
    budget: int = 300,
) -> list[Identity]:
    """Identities in <= n_vars variables with both sides of depth <= depth
    that A satisfies. Deduplicated modulo derivability from earlier output:
    a pair is dropped when the kept identities rewrite both sides to one
    normal form, or when a proof search of budget expansions derives it from
    them. Where that search runs past _PROOF_PREFIX expansions, it pauses
    for a model of the kept identities with at most _MODEL_SIZE elements in
    which the pair fails; one proves that the search cannot succeed, and
    without one the search resumes. Pass raw=True for every valid pair.
    """
    if raw:
        return [Identity(l, r, n_vars) for l, r in _valid_pairs(A, n_vars, depth, True)]
    return list(_kept_identities(A, n_vars, depth, budget))


def _valid_pairs(A: FiniteAlgebra, n_vars: int, depth: int, raw: bool) -> list[tuple[Term, Term]]:
    """The pairs of terms A equates, by total size, then repr. Without raw,
    only each class's representative paired with its other members: any
    other pair in the class follows from two of them by symmetry and
    transitivity, which the proof search finds in two steps."""
    if len(A.carrier) ** n_vars > _MAX_ASSIGNMENTS:
        raise BoundsTooLarge("too many assignments to evaluate")
    by_function: dict[tuple[str, ...], list[Term]] = {}
    for t in enumerate_terms(A.signature, n_vars, depth):
        by_function.setdefault(alg.term_function(A, t, n_vars), []).append(t)
    pairs = []
    for g in by_function.values():
        g.sort(key=lambda t: (term_size(t), repr(t)))
        for i in range(len(g) if raw else 1):
            pairs.extend((g[i], t) for t in g[i + 1:])
    pairs.sort(key=lambda p: (term_size(p[0]) + term_size(p[1]), repr(p)))
    return pairs


def _kept_identities(A: FiniteAlgebra, n_vars: int, depth: int, budget: int = 300):
    """identities_of's output, one identity at a time. Whether a pair is kept
    depends only on the pairs before it, so a caller may stop early."""
    kept: list[tuple[Term, Term]] = []
    rules: list[tuple[Term, Term]] = []  # size-decreasing orientations
    theory = None  # the presentation of kept, rebuilt each time kept grows
    normalizer = None  # of rules, built when a pair first needs it
    for l, r in _valid_pairs(A, n_vars, depth, False):
        if kept:
            if normalizer is None:
                normalizer = Normalizer(rules)
            if normalizer.normal_form(l) == normalizer.normal_form(r):
                continue
            if _derivable(theory, l, r, budget):
                continue
        kept.append((l, r))
        theory = TheoryPresentation("derived", A.signature, tuple(kept))
        if term_size(l) != term_size(r):
            rules.append((l, r) if term_size(l) > term_size(r) else (r, l))
            normalizer = None
        yield Identity(l, r, n_vars)


def _derivable(theory: TheoryPresentation, l: Term, r: Term, budget: int) -> bool:
    """congruent(theory, l, r, budget).provable, answered sooner where it can
    be. The search is breadth-first, so a larger budget only extends it and
    one search is resumed past _PROOF_PREFIX expansions: a proof within them
    is the one the full search finds, and a search whose frontiers run dry
    before then finds none at any budget. Every proof step is an instance of
    an axiom, so neither does a search in a theory with a model where l ~ r fails.
    """
    if budget <= _PROOF_PREFIX:
        return congruent(theory, l, r, Budget(steps=budget)).provable
    search = _ProofSearch(theory, l, r, Budget().max_term_size)
    first = search.run(_PROOF_PREFIX)
    if first.provable or first.expansions < _PROOF_PREFIX:
        return first.provable
    sizes = range(2, _MODEL_SIZE + 1)  # a one-element model satisfies every equation
    if countermodel(theory.signature, theory.axioms, l, r, sizes, budget) is not None:
        return False
    return search.run(budget - _PROOF_PREFIX).provable


# -- HSP membership --------------------------------------------------------

@dataclass(frozen=True)
class HspWitness:
    k: int
    generators: tuple[str, ...]
    congruence: alg.Partition
    isomorphism: alg.AlgHom
    subalgebra: FiniteAlgebra
    quotient: FiniteAlgebra


@dataclass(frozen=True)
class HspResult:
    status: str  # "Yes" | "NoWithinBounds"
    witness: HspWitness | None = None
    violated_identity: Identity | None = None

    @property
    def yes(self) -> bool:
        return self.status == "Yes"


def hsp_member(B: FiniteAlgebra, A: FiniteAlgebra, k_max: int | None = None) -> HspResult:
    """Is B a quotient of a subalgebra of a finite power of A?

    Searches k = 1..k_max (default |B|); generator subsets of the power,
    from the empty one up, are capped at |B| elements, which loses nothing:
    a quotient onto B needs at most one generator per element of B.
    Intermediate subalgebras above _CONGRUENCE_BOUND (8) elements are
    skipped, so a negative answer is bound-relative; it carries the first
    identity of identities_of(A, _CERTIFICATE_VARS, _CERTIFICATE_DEPTH)
    (2 variables, depth 2) that B violates, when there is one, and extracts
    no identity after it.
    """
    if B.signature != A.signature:
        raise SignatureMismatch("hsp membership needs one signature")
    if k_max is None:
        k_max = max(1, len(B.carrier))
    for k in range(1, k_max + 1):
        power = alg.product_algebra([A] * k).obj
        found = _search_power(B, power, k)
        if found is not None:
            return found
    violated = None
    try:
        for ident in _kept_identities(A, _CERTIFICATE_VARS, _CERTIFICATE_DEPTH):
            if not alg.satisfies(B, ident):
                violated = ident
                break
    except BoundsTooLarge:
        pass
    return HspResult("NoWithinBounds", violated_identity=violated)


def _search_power(B: FiniteAlgebra, power: FiniteAlgebra, k: int) -> HspResult | None:
    seen_subs: set[tuple[str, ...]] = set()
    max_gens = min(len(B.carrier), len(power.carrier))
    for size in range(max_gens + 1):
        for gens in itertools.combinations(power.carrier.elements, size):
            members = alg.subalgebra_closure(power, gens)
            if members in seen_subs:
                continue
            seen_subs.add(members)
            if len(members) < len(B.carrier) or len(members) > _CONGRUENCE_BOUND:
                continue
            S, _ = alg.sub_algebra(power, members)
            for partition in alg.congruences(S, _CONGRUENCE_BOUND):
                if len(partition) != len(B.carrier):
                    continue
                Q, _ = alg.quotient_algebra(S, partition)
                iso = alg.find_alg_isomorphism(Q, B)
                if iso is not None:
                    return HspResult(
                        "Yes",
                        witness=HspWitness(k, gens, partition, iso, S, Q),
                    )
    return None


def replay_hsp_witness(B: FiniteAlgebra, A: FiniteAlgebra, w: HspWitness) -> bool:
    """Rebuild the witness from scratch and confirm it reconstructs B."""
    power = alg.product_algebra([A] * w.k).obj
    members = alg.subalgebra_closure(power, w.generators)
    S, _ = alg.sub_algebra(power, members)
    if S.carrier != w.subalgebra.carrier:
        return False
    try:
        # the quotient raises unless the congruence is one
        Q, _ = alg.quotient_algebra(S, w.congruence)
        iso = alg.AlgHom(Q, B, w.isomorphism.table)
    except Exception:
        return False
    return iso.is_injective() and iso.is_surjective()


# -- free algebras ---------------------------------------------------------

@dataclass(frozen=True)
class FreeAlgebraResult:
    algebra: FiniteAlgebra
    generators: tuple[str, ...]  # labels of the projection functions
    witnesses: dict[str, Term]  # a term realizing each carrier element
    n: int
    base: FiniteAlgebra

    def reflect(self, t: Term) -> str:
        """The carrier element the given term evaluates to."""
        return tuple_label(alg.term_function(self.base, t, self.n))


def _new_tuples(old: int | None, known: int, arity: int):
    """Argument tuples of element indices below known, in itertools.product
    order: all of them when old is None, else those holding an index of old
    or more."""
    if old is None:
        yield from itertools.product(range(known), repeat=arity)
    elif arity:
        for head in itertools.product(range(known), repeat=arity - 1):
            for last in range(0 if head and max(head) >= old else old, known):
                yield head + (last,)


def free_algebra_in_variety(A: FiniteAlgebra, n: int, cap: int = 1_000_000) -> FreeAlgebraResult:
    """The algebra of n-ary term functions on A: the closure of the
    projections under pointwise operations. Carrier labels spell out the
    function's value tuple over all assignments in carrier-lexicographic
    order. It holds at most cap table entries (sum of |F|^arity), checked as F grows.

    The closure is semi-naive: a round evaluates only the argument tuples
    holding an element found in the round before, so each tuple is evaluated
    once, and the tables are read off those results.
    """
    size = len(A.carrier) ** n
    if size > _MAX_ASSIGNMENTS:
        raise BoundsTooLarge("too many assignments to tabulate")
    projections = alg.projections(A, n)
    index: dict[tuple[str, ...], int] = {}  # each function's place in order of discovery
    funcs: list[tuple[str, ...]] = []
    witnesses: list[Term] = []
    for i, p in enumerate(projections):
        if p not in index:
            index[p] = len(funcs)
            funcs.append(p)
            witnesses.append(Var(i))
    # results[sym][argument indices] = index of the value
    results: dict[str, dict[tuple[int, ...], int]] = {sym: {} for sym, _ in A.signature.ops}
    # constants enter through arity-0 symbols even with n = 0 generators,
    # since a nullary product has exactly one (empty) argument tuple
    old = None
    while True:
        known = len(funcs)
        for sym, arity in A.signature.ops:
            values = results[sym]
            for combo in _new_tuples(old, known, arity):
                out = alg.pointwise(A, sym, [funcs[i] for i in combo], size)
                j = index.get(out)
                if j is None:
                    j = index[out] = len(funcs)
                    funcs.append(out)
                    witnesses.append(App(sym, tuple(witnesses[i] for i in combo)))
                    if sum(len(funcs) ** k for _, k in A.signature.ops) > cap:
                        raise BoundsTooLarge(f"free algebra tables exceed {cap} entries")
                values[combo] = j
        if len(funcs) == known:
            break
        old = known
    labels = [tuple_label(f) for f in funcs]
    at = {label: i for i, label in enumerate(labels)}

    def value(sym, args):
        return labels[results[sym][tuple(map(at.__getitem__, args))]]

    tables = alg.tabulate(A.signature, labels, value)
    F = FiniteAlgebra(
        f"Free({A.name},{n})", A.signature, FinSetObj(tuple(labels)), tables
    )
    return FreeAlgebraResult(
        F,
        tuple(tuple_label(p) for p in projections),
        dict(zip(labels, witnesses)),
        n,
        A,
    )


# -- groups through the equation calculus -----------------------------------

def centralizer(G: FiniteAlgebra, S) -> SubobjectMono:
    """Elements commuting with everything in S, as a canonical subobject of
    the carrier. Computed by solving the conjugation-fixing system in the
    finite-group instance, not by scanning directly.
    """
    S = tuple(S)
    if not S:
        incl = alg.identity_alg_hom(G)
    else:
        system = EquationSystem(
            _GRP_CAT,
            tuple(
                Equation(grp.conjugation_hom(G, s), alg.identity_alg_hom(G)) for s in S
            ),
        )
        incl = general_solution(system)
    carrier, target = incl.dom.carrier, G.carrier
    return SubobjectMono(
        carrier, target, fin_function(carrier, target, {x: x for x in carrier.elements})
    )


def abelianization(G: FiniteAlgebra) -> alg.AlgHom:
    """The canonical surjection killing every conjugation action, computed
    as a general cosolution in the finite-group instance.
    """
    cosystem = CoEquationSystem(
        _GRP_CAT,
        tuple(
            Equation(grp.conjugation_hom(G, g), alg.identity_alg_hom(G))
            for g in G.carrier.elements
        ),
    )
    return general_cosolution(cosystem)
