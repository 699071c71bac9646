"""The countermodel search veq._models used before it ran on
finset.search_tables, kept as an oracle.

It fills operation-table cells one at a time in the style of Mace4 (W.
McCune, ANL/MCS-TM-264, 2003): every ground instance of an axiom, and the
goal's instance at fresh constants for its variables, is watched on the
first unset cell its evaluation reads. Cells are set in order of their
largest argument, under the least-number rule. Unlike veq's search it
derives no forced values, so it tries every value a cell's bound allows,
and under a node cap it may stop where veq's search finds a model.
`oracle_search` returns the nodes left with its answer, so a test can tell
a search that finished from one that ran out.
"""

import itertools

from veq.algebras import FiniteAlgebra, tabulate
from veq.finset import FinSetObj
from veq.theories import Var, term_vars

_HOLDS = -1
_FAILS = -2


def oracle_search(signature, axioms, lhs, rhs, n, left):
    """(model or None, nodes left) for carriers of exactly n elements, after
    at most left cell values; the nodes left are negative when it ran out.
    Carrier labels are "0", "1", ..."""
    # cell natural index: base of the symbol + the argument tuple read in
    # base n; the goal's variables become fresh constants after the symbols
    bases = {}
    natural = []  # (symbol, argument tuple) per natural index
    for sym, arity in signature.ops:
        bases[sym] = len(natural)
        natural.extend((sym, args) for args in itertools.product(range(n), repeat=arity))
    goal_vars = sorted(term_vars(lhs) | term_vars(rhs))
    skolem = {}
    for v in goal_vars:
        skolem[v] = len(natural)
        natural.append((None, ()))
    m = len(natural)
    arg_max = [max(args, default=-1) for _, args in natural]
    order = sorted(range(m), key=arg_max.__getitem__)
    where = [0] * m  # natural index -> place in the assignment order
    for place, i in enumerate(order):
        where[i] = place
    top_arg = [arg_max[i] for i in order]

    instances = []
    for l, r in axioms:
        vs = sorted(term_vars(l) | term_vars(r))
        for values in itertools.product(range(n), repeat=len(vs)):
            instances.append(_ground(l, r, dict(zip(vs, values)), bases, True))
    instances.append(_ground(lhs, rhs, skolem, bases, False, ground_vars=False))

    table = [-1] * m
    watches: list[list] = [[] for _ in range(m)]
    for inst in instances:
        r = _check(inst, table, where, n)
        if r == _FAILS:
            return None, left
        if r >= 0:
            watches[r].append(inst)

    top = [-1] * (m + 1)  # largest element mentioned before each cell
    nxt = [0] * m
    trail: list = [None] * m
    c = 0
    while c >= 0:
        if c == m:
            return _model(signature, n, natural, order, table), left
        if trail[c] is not None:
            _undo(watches, trail[c])
            trail[c] = None
        lim = min(n - 1, max(top[c], top_arg[c]) + 1)
        v = nxt[c]
        while v <= lim:
            left -= 1
            if left < 0:
                return None, left
            table[c] = v
            v += 1
            moved = _assign(watches, watches[c], table, where, n)
            if moved is not None:
                nxt[c], trail[c] = v, moved
                top[c + 1] = max(top[c], top_arg[c], v - 1)
                c += 1
                break
        else:
            table[c], nxt[c] = -1, 0
            c -= 1
    return None, left


def _assign(watches, watched, table, where, n):
    """Re-check the instances watched on a cell just set. The cells they
    move to, or None (with the moves undone) when one fails."""
    moved = []
    for inst in watched:
        r = _check(inst, table, where, n)
        if r >= 0:
            watches[r].append(inst)
            moved.append(r)
        elif r == _FAILS:
            _undo(watches, moved)
            return None
    return moved


def _undo(watches, moved):
    for r in reversed(moved):
        watches[r].pop()


def _check(inst, table, where, n):
    """_HOLDS, _FAILS, or the place of the first unset cell read."""
    steps, lres, rres, equal = inst
    vals = []
    for base, args in steps:
        i = 0
        for a in args:
            i = i * n + (a if a >= 0 else vals[~a])
        c = where[base + i]
        v = table[c]
        if v < 0:
            return c
        vals.append(v)
    lv = lres if lres >= 0 else vals[~lres]
    rv = rres if rres >= 0 else vals[~rres]
    return _HOLDS if (lv == rv) == equal else _FAILS


def _ground(lhs, rhs, subst, bases, equal, ground_vars=True):
    """One instance as (steps, lhs result, rhs result, equal). A step is
    (natural base, arguments) and its value is the cell read; an argument
    or result >= 0 is an element, and ~j is the value of step j. With
    ground_vars False, subst maps each variable to the natural index of a
    constant cell instead of an element."""
    steps: list = []
    seen: dict = {}

    def step(key):
        j = seen.get(key)
        if j is None:
            j = seen[key] = len(steps)
            steps.append(key)
        return ~j

    def encode(t):
        out: list = []
        todo: list = [t]
        while todo:
            u = todo.pop()
            if u.__class__ is tuple:
                k = len(out) - u[1]
                key = (bases[u[0]], tuple(out[k:]))
                del out[k:]
                out.append(step(key))
            elif u.__class__ is Var:
                out.append(subst[u.index] if ground_vars else step((subst[u.index], ())))
            elif u.args:
                todo.append((u.symbol, len(u.args)))
                todo.extend(reversed(u.args))
            else:
                out.append(step((bases[u.symbol], ())))
        return out[0]

    lres, rres = encode(lhs), encode(rhs)
    return tuple(steps), lres, rres, equal


def _model(signature, n, natural, order, table) -> FiniteAlgebra:
    labels = [str(i) for i in range(n)]
    value = {}
    for place, i in enumerate(order):
        sym, args = natural[i]
        if sym is not None:
            value[sym, tuple(labels[a] for a in args)] = labels[table[place]]
    tables = tabulate(signature, labels, lambda sym, args: value[sym, args])
    return FiniteAlgebra(f"model{n}", signature, FinSetObj(tuple(labels)), tables)
