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
from .algebras import FiniteAlgebra, Identity
from .equations import CoEquationSystem, Equation, EquationSystem, general_cosolution, general_solution
from .errors import BoundsTooLarge, SignatureMismatch
from .finset import FinSetObj, SubobjectMono, fin_function, tuple_label
# the group-algebra bridge lives in groups; callers may keep importing it here
from .groups import GROUP_SIG, algebra_to_group, group_to_algebra  # noqa: F401
from .instances import FinGrpCat
from .theories import (
    App,
    Budget,
    Signature,
    Term,
    TheoryPresentation,
    Var,
    congruent,
    match,
    replace_at,
    substitute,
    subterms,
    term_size,
)

_GRP_CAT = FinGrpCat()

# most assignments (|A|^n) a term function is evaluated or tabulated over
_MAX_ASSIGNMENTS = 4096


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
    that A satisfies. Deduplicated modulo derivability from earlier output
    (bounded search); pass raw=True for every valid pair.
    """
    if len(A.carrier) ** n_vars > _MAX_ASSIGNMENTS:
        raise BoundsTooLarge("too many assignments to evaluate")
    terms = enumerate_terms(A.signature, n_vars, depth)
    by_function: dict[tuple[str, ...], list[Term]] = {}
    for t in terms:
        by_function.setdefault(alg.term_function(A, t, n_vars), []).append(t)
    groups = [
        sorted(g, key=lambda t: (term_size(t), repr(t)))
        for g in by_function.values()
        if len(g) > 1
    ]
    if raw:
        pairs = [
            (g[i], g[j]) for g in groups for i in range(len(g)) for j in range(i + 1, len(g))
        ]
        pairs.sort(key=lambda p: (term_size(p[0]) + term_size(p[1]), repr(p)))
        return [Identity(l, r, n_vars) for l, r in pairs]
    # representative-to-member pairs carry the whole group: any other pair in
    # the same group follows from two of them by symmetry and transitivity,
    # which the proof search below finds in two steps
    pairs = [(g[0], t) for g in groups for t in g[1:]]
    pairs.sort(key=lambda p: (term_size(p[0]) + term_size(p[1]), repr(p)))
    kept: list[tuple[Term, Term]] = []
    rules: list[tuple[Term, Term]] = []  # size-decreasing orientations
    theory = None  # the presentation of kept, rebuilt each time kept grows
    for l, r in pairs:
        if kept:
            if _normal_form(l, rules) == _normal_form(r, rules):
                continue
            if congruent(theory, l, r, Budget(steps=budget)).provable:
                continue
        kept.append((l, r))
        theory = TheoryPresentation("derived", A.signature, tuple(kept))
        if term_size(l) < term_size(r):
            rules.append((r, l))
        elif term_size(r) < term_size(l):
            rules.append((l, r))
    return [Identity(l, r, n_vars) for l, r in kept]


def _normal_form(t: Term, rules: list[tuple[Term, Term]]) -> Term:
    """Exhaustively rewrite with the size-decreasing rules, outermost first.
    Each step shrinks the term, so this terminates; equal results certify
    derivability (each step is an identity instance), unequal results prove
    nothing.
    """
    changed = True
    while changed:
        changed = False
        for pos, sub in subterms(t):
            for big, small in rules:
                s = match(big, sub)
                if s is not None:
                    t = replace_at(t, pos, substitute(small, s))
                    changed = True
                    break
            if changed:
                break
    return t


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


def hsp_member(
    B: FiniteAlgebra,
    A: FiniteAlgebra,
    k_max: int | None = None,
    certificate_vars: int = 2,
    certificate_depth: int = 2,
    congruence_bound: int = 8,
) -> HspResult:
    """Is B a quotient of a subalgebra of a finite power of A?

    Searches k = 1..k_max (default |B|); generator subsets of the power are
    capped at |B| elements, which loses nothing: a quotient onto B needs at
    most one generator per element of B. Intermediate subalgebras above
    congruence_bound are skipped, so a negative answer is bound-relative; it
    carries a violated identity of A when one exists at the certificate
    search depth.
    """
    if B.signature != A.signature:
        raise SignatureMismatch("hsp membership needs one signature")
    if k_max is None:
        k_max = max(1, len(B.carrier))
    for k in range(1, k_max + 1):
        power = alg.product_algebra([A] * k).obj
        found = _search_power(B, power, k, congruence_bound)
        if found is not None:
            return found
    violated = None
    try:
        for ident in identities_of(A, certificate_vars, certificate_depth):
            if not alg.satisfies(B, ident):
                violated = ident
                break
    except BoundsTooLarge:
        pass
    return HspResult("NoWithinBounds", violated_identity=violated)


def _search_power(
    B: FiniteAlgebra, power: FiniteAlgebra, k: int, congruence_bound: int
) -> HspResult | None:
    seen_subs: set[tuple[str, ...]] = set()
    max_gens = min(len(B.carrier), len(power.carrier))
    for size in range(1, max_gens + 1):
        for gens in itertools.combinations(power.carrier.elements, size):
            members = alg.subalgebra_closure(power, gens)
            if members in seen_subs:
                continue
            seen_subs.add(members)
            if len(members) < len(B.carrier) or len(members) > congruence_bound:
                continue
            S, _ = alg.sub_algebra(power, members)
            for partition in alg.congruences(S, congruence_bound):
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


def free_algebra_in_variety(A: FiniteAlgebra, n: int, cap: int = 1_000_000) -> FreeAlgebraResult:
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


# -- groups through the equation calculus -----------------------------------

def centralizer(G: grp.Group, S) -> SubobjectMono:
    """Elements commuting with everything in S, as a canonical subobject of
    the carrier. Computed by solving the conjugation-fixing system in the
    finite-group instance, not by scanning directly.
    """
    S = tuple(S)
    if not S:
        incl = grp.identity_hom(G)
    else:
        system = EquationSystem(
            _GRP_CAT,
            tuple(
                Equation(grp.conjugation_hom(G, s), grp.identity_hom(G)) for s in S
            ),
        )
        incl = general_solution(system)
    carrier = FinSetObj(incl.dom.elements)
    target = FinSetObj(G.elements)
    return SubobjectMono(
        carrier, target, fin_function(carrier, target, {x: x for x in carrier.elements})
    )


def abelianization(G: grp.Group) -> grp.GroupHom:
    """The canonical surjection killing every conjugation action, computed
    as a general cosolution in the finite-group instance.
    """
    cosystem = CoEquationSystem(
        _GRP_CAT,
        tuple(
            Equation(grp.conjugation_hom(G, g), grp.identity_hom(G))
            for g in G.elements
        ),
    )
    return general_cosolution(cosystem)
