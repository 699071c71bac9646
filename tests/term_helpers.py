"""Term functions that only the tests use: depth, positions, matching and
substitution algebra."""

from veq import theories as th
from veq.theories import App, Var


def term_depth(t):
    """Height: variables 0, applications 1 + max over arguments."""
    return th._fold(
        t, lambda u: 0 if isinstance(u, Var) else None,
        lambda u, depths: 1 + max(depths, default=0))


def subterms(t):
    """(position, subterm) pairs in preorder."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        if u.__class__ is App:
            args = u.args
            for i in range(len(args) - 1, -1, -1):
                stack.append((pos + (i,), args[i]))


def match(pattern, subject):
    """One-sided unification: bind pattern variables only, or None."""
    binding = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if p.__class__ is Var:
            if p.index in binding:
                if binding[p.index] != s:
                    return None
            else:
                binding[p.index] = s
        else:
            if s.__class__ is not App or s.symbol != p.symbol or len(s.args) != len(p.args):
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def compose_subst(first, then):
    """Substitution doing `first`, then `then`."""
    out = {v: th.substitute(t, then) for v, t in first.items()}
    for v, t in then.items():
        out.setdefault(v, t)
    return out


def is_idempotent(s):
    return all(th.substitute(t, s) == t for t in s.values())
