"""The identity extraction veq.birkhoff replaced, kept as an oracle.

`oracle_identities_of` decides every pair by one proof search at the full
budget and returns the whole list. veq.birkhoff now yields the same
identities one at a time, so that `hsp_member` can stop at the first one B
violates. It first runs the search for a short prefix of the budget, then
looks for a small countermodel, and only then extends the same search to
the full budget; it never restarts it.

`oracle_normal_form` is the term-level rewriter veq.birkhoff used before it
normalized with `theories.Normalizer`, proof search's compiled rules on
term ids. Both rewrite outermost first: the first subterm in preorder, by
the first rule whose instance there is smaller. Apart from its name, the
one change here is that it applies a rule's instance only where that
shrinks the term. Without that, a rule such as mul(mul(x1,x1),x0) ->
mul(x0,x0) rewrites mul(mul(x0,x0),mul(x0,x0)) to itself forever, so the
earlier version does not terminate on some algebras.
"""

from term_helpers import match, subterms
from veq import algebras as alg
from veq.algebras import FiniteAlgebra, Identity
from veq.birkhoff import _MAX_ASSIGNMENTS, enumerate_terms
from veq.errors import BoundsTooLarge
from veq.theories import (
    Budget,
    Term,
    TheoryPresentation,
    congruent,
    replace_at,
    substitute,
    term_size,
)


def oracle_identities_of(
    A: FiniteAlgebra,
    n_vars: int,
    depth: int,
    raw: bool = False,
    budget: int = 300,
) -> list[Identity]:
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
    pairs = [(g[0], t) for g in groups for t in g[1:]]
    pairs.sort(key=lambda p: (term_size(p[0]) + term_size(p[1]), repr(p)))
    kept: list[tuple[Term, Term]] = []
    rules: list[tuple[Term, Term]] = []
    theory = None
    for l, r in pairs:
        if kept:
            if oracle_normal_form(l, rules) == oracle_normal_form(r, rules):
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


def oracle_normal_form(t: Term, rules: list[tuple[Term, Term]]) -> Term:
    changed = True
    while changed:
        changed = False
        for pos, sub in subterms(t):
            for big, small in rules:
                s = match(big, sub)
                if s is not None:
                    new = substitute(small, s)
                    if term_size(new) < term_size(sub):
                        t = replace_at(t, pos, new)
                        changed = True
                        break
            if changed:
                break
    return t
