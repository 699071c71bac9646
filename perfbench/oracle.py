"""Ground truth owned by the benchmark, independent of veq's algorithms.

Algebras here are one binary operation given as ``{(a, b): c}`` over labels.
Terms are read structurally (a variable has ``index``, an application has
``symbol`` and ``args``) and never evaluated by veq.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


# -- finite algebras with one binary operation ---------------------------------

def evaluate(table, t, env):
    if hasattr(t, "index"):
        return env[t.index]
    left, right = t.args
    return table[(evaluate(table, left, env), evaluate(table, right, env))]


def term_values(table, elements, t, n):
    return tuple(evaluate(table, t, env)
                 for env in itertools.product(elements, repeat=n))


def term_partition(table, elements, terms, n=2):
    """Indices of the pool terms grouped by the n-ary function they induce."""
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(terms):
        groups.setdefault(term_values(table, elements, t, n), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def closure(table, seed):
    members = set(seed)
    frontier = list(members)
    while frontier:
        new = []
        for a in list(members):
            for b in frontier:
                for c in (table[(a, b)], table[(b, a)]):
                    if c not in members:
                        members.add(c)
                        new.append(c)
        frontier = new
    return members


def count_subalgebras(table, elements):
    return sum(
        1
        for r in range(1, len(elements) + 1)
        for combo in itertools.combinations(elements, r)
        if closure(table, combo) == set(combo)
    )


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def is_compatible(table, elements, cls):
    return all(
        cls[table[(a, c)]] == cls[table[(b, c)]]
        and cls[table[(c, a)]] == cls[table[(c, b)]]
        for a in elements for b in elements if cls[a] == cls[b]
        for c in elements
    )


def count_congruences(table, elements):
    total = 0
    for part in set_partitions(list(elements)):
        cls = {x: i for i, block in enumerate(part) for x in block}
        total += is_compatible(table, elements, cls)
    return total


def power(table, elements, k):
    """The k-th direct power, elements as tuples."""
    elems = list(itertools.product(elements, repeat=k))
    return elems, {
        (a, b): tuple(table[(a[i], b[i])] for i in range(k))
        for a in elems for b in elems
    }


def congruence_generated(table, members, pairs):
    """Least compatible equivalence on members identifying the pairs, as a
    class-representative map."""
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            return True
        return False

    for a, b in pairs:
        union(a, b)
    changed = True
    while changed:
        changed = False
        for a in members:
            for b in members:
                if a != b and find(a) == find(b):
                    for c in members:
                        changed |= union(table[(a, c)], table[(b, c)])
                        changed |= union(table[(c, a)], table[(c, b)])
    return {x: find(x) for x in members}


def is_isomorphism(src_table, src_elements, dst_table, dst_elements, mapping):
    """mapping (a dict) is a bijective homomorphism from src onto dst."""
    image = [mapping[x] for x in src_elements]
    if len(set(image)) != len(image) or set(image) != set(dst_elements):
        return False
    return all(
        mapping[src_table[(a, b)]] == dst_table[(mapping[a], mapping[b])]
        for a in src_elements for b in src_elements
    )


# -- monoid words ------------------------------------------------------------------

def mon_normal_form(t):
    """The flattened word: left-to-right variable indices of a term over m/2
    and e/0, units dropped."""
    if hasattr(t, "index"):
        return (t.index,)
    return tuple(i for a in t.args for i in mon_normal_form(a))


def cmon_normal_form(t):
    """The multiset of variables, as a sorted tuple."""
    return tuple(sorted(mon_normal_form(t)))


# -- series ---------------------------------------------------------------------------

def has_recurrence(coeffs, order):
    """Exact Gaussian elimination: does a nonzero vector (a_0..a_order)
    satisfy sum a_i c_{k+i} = 0 on the whole window?"""
    rows = [[Fraction(coeffs[k + i]) for i in range(order + 1)]
            for k in range(len(coeffs) - order)]
    rank = 0
    for c in range(order + 1):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                factor = rows[r][c] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank < order + 1
