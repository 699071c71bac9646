"""Term functions that only the tests use: depth and substitution algebra."""

from veq import theories as th
from veq.theories import Var


def term_depth(t):
    """Height: variables 0, applications 1 + max over arguments."""
    return th._fold(
        t, lambda u: 0 if isinstance(u, Var) else None,
        lambda u, depths: 1 + max(depths, default=0))


def compose_subst(first, then):
    """Substitution doing `first`, then `then`."""
    out = {v: th.substitute(t, then) for v, t in first.items()}
    for v, t in then.items():
        out.setdefault(v, t)
    return out


def is_idempotent(s):
    return all(th.substitute(t, s) == t for t in s.values())
