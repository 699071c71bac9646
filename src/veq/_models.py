"""Small finite countermodels to an equation, found by the one finite
search, finset.search_tables. Its unknown cells are the operation tables'
entries and a fresh constant for each of the goal's variables. The law is
every ground instance of an axiom, and the goal's instance at those
constants as a disequation. A cell's bound for the least-number rule, and
so its place in the order, is its largest argument.
"""

from __future__ import annotations

import itertools

from .algebras import FiniteAlgebra, tabulate
from .errors import CarrierTooLarge
from .finset import FinSetObj, Law, search_tables
from .theories import Signature, Term, Var, term_vars


def countermodel(signature: Signature, axioms, lhs: Term, rhs: Term, sizes, nodes: int) -> FiniteAlgebra | None:
    """A model of the axioms (pairs of terms) on one of the given carrier
    sizes in which lhs ~ rhs fails, or None once the sizes are exhausted or
    nodes cell values have been tried. Carrier labels are "0", "1", ...
    """
    left = nodes
    for n in sizes:
        law, cells = _law(signature, axioms, lhs, rhs, n)
        try:
            table = next(search_tables([law.values] * len(cells), law, False, left))
        except StopIteration as done:
            left = done.value
            continue
        except CarrierTooLarge:
            return None
        value = dict(zip(cells, table))  # (symbol, argument indices) -> label
        tables = tabulate(signature, law.values, lambda sym, args: value[sym, tuple(map(int, args))])
        return FiniteAlgebra(f"model{n}", signature, FinSetObj(law.values), tables)
    return None


def _law(signature, axioms, lhs, rhs, n):
    """The law of a model on n elements, with each cell's (symbol, argument
    tuple). A cell is the base of its symbol + its arguments read in base
    n; the goal's variables become fresh constants after the symbols."""
    bases = {}
    cells = []
    for sym, arity in signature.ops:
        bases[sym] = len(cells)
        cells.extend((sym, args) for args in itertools.product(range(n), repeat=arity))
    goal_vars = sorted(term_vars(lhs) | term_vars(rhs))
    skolem = [(len(cells) + i, ()) for i in range(len(goal_vars))]
    cells.extend((None, ()) for _ in goal_vars)
    instances = []
    for l, r in axioms:
        vs = sorted(term_vars(l) | term_vars(r))
        for values in itertools.product(range(n), repeat=len(vs)):
            instances.append(_instance(l, r, dict(zip(vs, values)), bases, True, []))
    goal = {v: ~i for i, v in enumerate(goal_vars)}  # the constants are read first
    instances.append(_instance(lhs, rhs, goal, bases, False, skolem))
    bounds = [max(args, default=-1) for _, args in cells]
    return Law(tuple(map(str, range(n))), (), tuple(instances), bounds), cells


def _instance(lhs, rhs, subst, bases, equal, steps):
    """lhs ~ rhs (or lhs !~ rhs) in the format of finset.Law, after the
    given steps; subst maps each variable to an element or a step."""
    seen: dict = {}
    left, right = (_read(t, subst, bases, steps, seen) for t in (lhs, rhs))
    return tuple(steps), left, right, equal


def _read(t, subst, bases, steps, seen):
    """The value of t: an element, or ~j for the step j that reads it."""
    if t.__class__ is Var:
        return subst[t.index]
    key = (bases[t.symbol], tuple(_read(a, subst, bases, steps, seen) for a in t.args))
    if key not in seen:
        seen[key] = ~len(steps)
        steps.append(key)
    return seen[key]
