"""The proof search against the implementations it replaced.

Terms now cache their hash, size and variables, and congruent() runs on a
per-search store of integer term ids, with rules compiled once per theory
and a memo that rewrites each subterm once per search. Three earlier
implementations are kept verbatim as oracles: the recursive term walkers
(slow_*), the flat successor enumeration that rebuilt every successor in
full (flat_*), and the memo search over hash-consed App terms that the id
store replaced (memo_*). The fast path must produce the same successors in
the same order, less the self-loops and repeats the search skips, hence the
same certificates and expansion counts. A search resumed in chunks must
end where a fresh search of the summed budget ends.
"""

import inspect
import itertools
import os
import random
import sys
from collections import deque
from dataclasses import dataclass
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from term_helpers import match, subterms, term_depth
from veq import birkhoff, dsl
from veq import theories as th
from veq.algebras import make_algebra
from veq.theories import App, Budget, ProofStep, Signature, TheoryPresentation, Var


# -- the earlier implementation ------------------------------------------------

def slow_term_vars(t):
    if isinstance(t, Var):
        return {t.index}
    out = set()
    for a in t.args:
        out |= slow_term_vars(a)
    return out


def slow_term_size(t):
    if isinstance(t, Var):
        return 1
    return 1 + sum(slow_term_size(a) for a in t.args)


def slow_substitute(t, s):
    if isinstance(t, Var):
        return s.get(t.index, t)
    return App(t.symbol, tuple(slow_substitute(a, s) for a in t.args))


def slow_match(pattern, subject):
    binding = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            if p.index in binding:
                if binding[p.index] != s:
                    return None
            else:
                binding[p.index] = s
        else:
            if not isinstance(s, App) or s.symbol != p.symbol or len(s.args) != len(p.args):
                return None
            stack.extend(zip(p.args, s.args))
    return binding


def slow_replace_at(t, pos, new):
    if not pos:
        return new
    i = pos[0]
    args = list(t.args)
    args[i] = slow_replace_at(args[i], pos[1:], new)
    return App(t.symbol, tuple(args))


def slow_positions(t):
    yield ()
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            for rest in slow_positions(a):
                yield (i,) + rest


def slow_one_step_rewrites(theory, t, max_size):
    for pos in slow_positions(t):
        sub = th.subterm_at(t, pos)
        for i, (lhs, rhs) in enumerate(theory.axioms):
            for forward, (src, dst) in ((True, (lhs, rhs)), (False, (rhs, lhs))):
                if not slow_term_vars(dst) <= slow_term_vars(src):
                    continue
                binding = slow_match(src, sub)
                if binding is None:
                    continue
                new = slow_replace_at(t, pos, slow_substitute(dst, binding))
                if slow_term_size(new) > max_size:
                    continue
                step = ProofStep(pos, i, tuple(sorted(binding.items())), forward)
                yield new, step


def slow_congruent(theory, lhs, rhs, budget):
    if lhs == rhs:
        return th.CongruenceResult("provable", (), 0)
    sides = ({lhs: None}, {rhs: None})
    frontiers = (deque([lhs]), deque([rhs]))
    expansions = 0

    def build(meeting):
        fwd = []
        cur = meeting
        while sides[0][cur] is not None:
            prev, step = sides[0][cur]
            fwd.append(step)
            cur = prev
        fwd.reverse()
        back = []
        cur = meeting
        while sides[1][cur] is not None:
            prev, step = sides[1][cur]
            back.append(ProofStep(step.position, step.axiom, step.subst, not step.forward))
            cur = prev
        return tuple(fwd + back)

    while expansions < budget.steps and (frontiers[0] or frontiers[1]):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) and frontiers[0] else 1
        if not frontiers[side]:
            side = 1 - side
        current = frontiers[side].popleft()
        expansions += 1
        for new, step in slow_one_step_rewrites(theory, current, budget.max_term_size):
            if new in sides[side]:
                continue
            sides[side][new] = (current, step)
            if new in sides[1 - side]:
                return th.CongruenceResult("provable", build(new), expansions)
            frontiers[side].append(new)
    return th.CongruenceResult("unknown", None, expansions)


# -- the flat enumeration, before the per-search rewrite memo -------------------

def rule_table(theory):
    """The (axiom, direction) rules proof search may apply, as (rules for a
    variable subterm, rules by head symbol), each in successor order."""
    rules = [
        (i, forward, src, dst)
        for i, (lhs, rhs) in enumerate(theory.axioms)
        for forward, src, dst in ((True, lhs, rhs), (False, rhs, lhs))
        if dst._vars <= src._vars
    ]
    any_head = [r for r in rules if r[2].__class__ is Var]
    heads = {r[2].symbol for r in rules if r[2].__class__ is App}
    by_head = {
        h: [r for r in rules if r[2].__class__ is Var or r[2].symbol == h] for h in heads
    }
    return any_head, by_head


def flat_one_step_rewrites(table, t, max_size):
    """Deterministic successor enumeration under a _rule_table: (new term, step)."""
    any_head, by_head = table
    slack = max_size - t._size
    for pos, sub in subterms(t):
        rules = any_head if sub.__class__ is Var else by_head.get(sub.symbol, any_head)
        for i, forward, src, dst in rules:
            binding = match(src, sub)
            if binding is None:
                continue
            instance = th.substitute(dst, binding)
            if instance._size - sub._size > slack:
                continue
            step = ProofStep(pos, i, tuple(sorted(binding.items())), forward)
            yield th.replace_at(t, pos, instance), step


def flat_congruent(theory, lhs, rhs, budget):
    if lhs == rhs:
        return th.CongruenceResult("provable", (), 0)

    # parents[side][term] = (previous term, step applied to previous)
    sides = ({lhs: None}, {rhs: None})
    frontiers = (deque([lhs]), deque([rhs]))
    expansions = 0
    table = rule_table(theory)

    def build(meeting):
        fwd = []
        cur = meeting
        while sides[0][cur] is not None:
            prev, step = sides[0][cur]
            fwd.append(step)
            cur = prev
        fwd.reverse()
        back = []
        cur = meeting
        while sides[1][cur] is not None:
            prev, step = sides[1][cur]
            back.append(ProofStep(step.position, step.axiom, step.subst, not step.forward))
            cur = prev
        return tuple(fwd + back)

    while expansions < budget.steps and (frontiers[0] or frontiers[1]):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) and frontiers[0] else 1
        if not frontiers[side]:
            side = 1 - side
        current = frontiers[side].popleft()
        expansions += 1
        for new, step in flat_one_step_rewrites(table, current, budget.max_term_size):
            if new in sides[side]:
                continue
            sides[side][new] = (current, step)
            if new in sides[1 - side]:
                return th.CongruenceResult("provable", build(new), expansions)
            frontiers[side].append(new)
    return th.CongruenceResult("unknown", None, expansions)


# -- the memo search over hash-consed App terms, before the id store -----------

def memo_substitute(t, s, intern):
    """Simultaneous substitution, each new application looked up in a proof
    search's intern table first."""
    if t._vars.isdisjoint(s):
        return t
    if t.__class__ is Var:
        return s[t.index]
    # frames of (application, its rebuilt arguments so far)
    stack = [(t, [])]
    while True:
        u, built = stack[-1]
        args = u.args
        i = len(built)
        while i < len(args):
            a = args[i]
            if a.__class__ is Var:
                built.append(s.get(a.index, a))
            elif a._vars.isdisjoint(s):
                built.append(a)
            else:
                break
            i += 1
        if i < len(args):
            stack.append((args[i], []))
            continue
        stack.pop()
        key = (u.symbol, tuple(built))
        new = intern.get(key)
        if new is None:
            new = intern[key] = App(*key)
        if not stack:
            return new
        stack[-1][1].append(new)


def memo_interned(t, intern):
    """The one term equal to t in a proof search's intern table, adding t's
    subterms that are not there yet."""
    def node(u, args):
        key = (u.symbol, tuple(args))
        new = intern.get(key)
        if new is None:
            # u itself when its arguments are already the interned ones
            new = intern[key] = u if all(map(is_, args, u.args)) else App(*key)
        return new
    return th._fold(t, lambda u: intern.setdefault(u, u) if u.__class__ is Var else None, node)


def memo_rewrites(table, t, max_size, memo, intern=None):
    """t's one-step rewrites under a rule_table, in successor order, as
    (new term, growth in size, position, axiom, forward, binding) entries,
    through the memo of one search and its intern table."""
    any_head, by_head = table
    if intern is None:
        intern = {}
    todo = [(t, False)]
    while todo:
        u, ready = todo.pop()
        if not ready:
            if u in memo:
                continue
            if u.__class__ is App:
                todo.append((u, True))
                todo.extend((a, False) for a in reversed(u.args))
                continue
        slack = max_size - u._size
        entries = []
        rules = any_head if u.__class__ is Var else by_head.get(u.symbol, any_head)
        for i, forward, src, dst in rules:
            binding = match(src, u)
            if binding is None:
                continue
            instance = memo_substitute(dst, binding, intern)
            growth = instance._size - u._size
            if growth <= slack:
                entries.append((instance, growth, (), i, forward, binding))
        if u.__class__ is App:
            symbol, args = u.symbol, u.args
            for j, a in enumerate(args):
                before, after = args[:j], args[j + 1:]
                for new, growth, pos, i, forward, binding in memo[a]:
                    if growth <= slack:
                        key = (symbol, before + (new,) + after)
                        lifted = intern.get(key)
                        if lifted is None:
                            lifted = intern[key] = App(*key)
                        entries.append((lifted, growth, (j,) + pos, i, forward, binding))
        memo[u] = entries
    return memo.pop(t)


def memo_step(entry, forward=True):
    _, _, pos, axiom, fwd, binding = entry
    return ProofStep(pos, axiom, tuple(sorted(binding.items())), fwd == forward)


def memo_congruent(theory, lhs, rhs, budget):
    if lhs == rhs:
        return th.CongruenceResult("provable", (), 0)

    intern = {}
    lhs, rhs = memo_interned(lhs, intern), memo_interned(rhs, intern)
    # parents[side][term] = (previous term, memo_rewrites entry applied to previous)
    sides = ({lhs: None}, {rhs: None})
    frontiers = (deque([lhs]), deque([rhs]))
    expansions = 0
    table = rule_table(theory)
    memo = {}

    def build(meeting):
        fwd = []
        cur = meeting
        while sides[0][cur] is not None:
            prev, entry = sides[0][cur]
            fwd.append(memo_step(entry))
            cur = prev
        fwd.reverse()
        back = []
        cur = meeting
        while sides[1][cur] is not None:
            prev, entry = sides[1][cur]
            back.append(memo_step(entry, False))
            cur = prev
        return tuple(fwd + back)

    while expansions < budget.steps and (frontiers[0] or frontiers[1]):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) and frontiers[0] else 1
        if not frontiers[side]:
            side = 1 - side
        current = frontiers[side].popleft()
        expansions += 1
        for entry in memo_rewrites(table, current, budget.max_term_size, memo, intern):
            new = entry[0]
            if new in sides[side]:
                continue
            sides[side][new] = (current, entry)
            if new in sides[1 - side]:
                return th.CongruenceResult("provable", build(new), expansions)
            frontiers[side].append(new)
    return th.CongruenceResult("unknown", None, expansions)


# -- inputs ------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def word_theories():
    ws = dsl.parse_files([os.path.join(ROOT, "corpus", "theories.veq")])
    return {name: ws.get("theory", name) for name in ("Mon", "CMon")}


def random_word_term(rng, size):
    """A random m/e term with about `size` leaves over variables 0..3."""
    if size <= 1:
        return App("e") if rng.random() < 0.15 else Var(rng.randrange(4))
    cut = rng.randrange(1, size)
    return App("m", (random_word_term(rng, cut), random_word_term(rng, size - cut)))


def bracket(rng, word):
    """A random bracketing of a word of variables."""
    if len(word) == 1:
        return Var(word[0])
    cut = rng.randrange(1, len(word))
    return App("m", (bracket(rng, word[:cut]), bracket(rng, word[cut:])))


BIN = Signature((("m", 2),))


def two_element_tables():
    for flat in itertools.product((0, 1), repeat=4):
        table = {(a, b): "pq"[flat[2 * "pq".index(a) + "pq".index(b)]]
                 for a in "pq" for b in "pq"}
        yield make_algebra("A", BIN, ("p", "q"), {"m": table})


def derived_theories():
    """The identity bases of all 16 two-element tables, each with the
    candidate pairs identities_of tested against it."""
    out = []
    for A in two_element_tables():
        kept = birkhoff.identities_of(A, 2, 2, budget=20)
        theory = TheoryPresentation("derived", BIN, tuple((i.lhs, i.rhs) for i in kept))
        candidates = birkhoff.identities_of(A, 2, 2, raw=True)
        out.append((theory, [(i.lhs, i.rhs) for i in candidates]))
    return out


def search_store(theory):
    """A fresh store for one search in theory, as congruent() makes it."""
    return theory._rules[0].copy()


def successors(theory, t, max_size):
    """congruent()'s successors of t in order, as (new term, step) pairs."""
    store = search_store(theory)
    entries = th._rewrites(theory._rules, store, store.add(t), max_size, {})
    return [(store.term(entry[0]), th._step(store, entry)) for entry in entries]


def assert_same_successors(theory, t, max_size):
    """congruent()'s successors of t are the oracle's in order, with t
    itself and every later occurrence of a term left out. Returns how many
    oracle entries were left out."""
    fast = successors(theory, t, max_size)
    oracle = list(slow_one_step_rewrites(theory, t, max_size))
    rest = deque(fast)
    earlier = {t}
    for new, step in oracle:
        if new not in earlier and rest and rest[0] == (new, step):
            rest.popleft()
        else:
            # each oracle entry left out is a self-loop or a repeat
            assert new in earlier
        earlier.add(new)
    assert not rest
    return len(oracle) - len(fast)


def assert_same_search(theory, lhs, rhs, steps):
    budget = Budget(steps=steps)
    fast = th.congruent(theory, lhs, rhs, budget)
    slow = slow_congruent(theory, lhs, rhs, budget)
    assert fast == slow
    if fast.provable:
        assert th.replay_certificate(theory, lhs, rhs, fast.certificate)


# -- tests -------------------------------------------------------------------

def test_cached_facts_match_recursive_walks():
    rng = random.Random(7)
    for _ in range(300):
        t = random_word_term(rng, rng.randrange(1, 12))
        assert th.term_size(t) == slow_term_size(t)
        assert th.term_vars(t) == slow_term_vars(t)
        assert [(p, th.subterm_at(t, p)) for p in slow_positions(t)] == list(subterms(t))
        s = {v: random_word_term(rng, 3) for v in range(4) if rng.random() < 0.5}
        assert th.substitute(t, s) == slow_substitute(t, s)
        for pos in slow_positions(t):
            new = random_word_term(rng, 2)
            assert th.replace_at(t, pos, new) == slow_replace_at(t, pos, new)


@pytest.mark.parametrize("name", ["Mon", "CMon"])
@pytest.mark.parametrize("max_size", [7, 64])
def test_word_successors_match_oracle(word_theories, name, max_size):
    T = word_theories[name]
    rng = random.Random(20231007)
    dropped = 0
    for _ in range(150):
        t = random_word_term(rng, rng.randrange(1, 9))
        dropped += assert_same_successors(T, t, max_size)
    assert dropped > 0


@pytest.mark.parametrize("name", ["Mon", "CMon"])
def test_word_searches_match_oracle(word_theories, name):
    T = word_theories[name]
    rng = random.Random(1)
    for _ in range(8):
        word = [rng.randrange(4) for _ in range(rng.randrange(2, 5))]
        other = list(word)
        rng.shuffle(other)
        lhs = bracket(rng, word)
        rhs = App("m", (App("e"), bracket(rng, other)))
        for steps in (20, 100, 200):
            assert_same_search(T, lhs, rhs, steps)


def test_derived_theories_match_oracle():
    rng = random.Random(3)
    for theory, candidates in derived_theories():
        terms = {t for pair in candidates for t in pair}
        for t in sorted(terms, key=repr):
            assert_same_successors(theory, t, 64)
        for lhs, rhs in rng.sample(candidates, min(2, len(candidates))):
            for steps in (20, 100, 200):
                assert_same_search(theory, lhs, rhs, steps)


# -- signatures beyond one binary symbol and a constant ------------------------

x, y = Var(0), Var(1)
E = App("e")

GROUP = TheoryPresentation(
    "group", Signature((("m", 2), ("i", 1), ("e", 0))),
    ((App("m", (App("m", (x, y)), Var(2))), App("m", (x, App("m", (y, Var(2)))))),
     (App("m", (E, x)), x),
     (App("m", (x, E)), x),
     (App("m", (App("i", (x,)), x)), E),
     (App("m", (x, App("i", (x,)))), E)))

# non-linear sources, and a ground axiom whose sides are both rule sources
TERNARY = TheoryPresentation(
    "ternary", Signature((("p", 3), ("e", 0))),
    ((App("p", (x, y, y)), x),
     (App("p", (x, x, y)), y),
     (E, App("p", (E, E, E)))))


def random_term(rng, sig, size):
    """A random term over sig with about `size` nodes, variables 0..2."""
    if size <= 1:
        return E if rng.random() < 0.3 else Var(rng.randrange(3))
    symbol, n = rng.choice([(s, n) for s, n in sig.ops if n])
    return App(symbol, tuple(random_term(rng, sig, rng.randrange(1, size))
                             for _ in range(n)))


def ternary_term(rng, size):
    """A random TERNARY term, often with equal arguments so that the
    non-linear sources match."""
    if size <= 1:
        return E if rng.random() < 0.4 else Var(rng.randrange(2))
    a, b = ternary_term(rng, size // 3), ternary_term(rng, size // 3)
    return App("p", rng.choice([(a, b, b), (a, a, b), (a, b, a), (E, E, E), (a, E, b)]))


def non_binary_terms(name, count, rng):
    if name == "group":
        return GROUP, [random_term(rng, GROUP.signature, rng.randrange(1, 9))
                       for _ in range(count)]
    return TERNARY, [ternary_term(rng, rng.randrange(1, 12)) for _ in range(count)]


@pytest.mark.parametrize("name", ["group", "ternary"])
@pytest.mark.parametrize("max_size", [7, 64])
def test_non_binary_successors_match_oracle(name, max_size):
    theory, terms = non_binary_terms(name, 150, random.Random(17))
    dropped = 0
    for t in terms:
        dropped += assert_same_successors(theory, t, max_size)
    assert dropped > 0


@pytest.mark.parametrize("name", ["group", "ternary"])
@pytest.mark.parametrize("max_size", [7, 64])
def test_non_binary_searches_match_oracles(name, max_size):
    theory, terms = non_binary_terms(name, 24, random.Random(29))
    provable = 0
    for lhs, rhs in zip(terms[::2], terms[1::2]):
        for steps in (20, 100):
            budget = Budget(steps=steps, max_term_size=max_size)
            fast = th.congruent(theory, lhs, rhs, budget)
            assert fast == slow_congruent(theory, lhs, rhs, budget)
            assert fast == flat_congruent(theory, lhs, rhs, budget)
            if fast.provable:
                provable += 1
                assert th.replay_certificate(theory, lhs, rhs, fast.certificate)
    assert provable > 0


def test_shape_index_leaves_no_failing_match(word_theories, monkeypatch):
    """On Mon and CMon every source pattern is linear and at most two levels
    deep, so the rules filed under a node's shape all match it."""
    calls, failed = 0, 0
    match = th._match

    def counted(*args):
        nonlocal calls, failed
        ok = match(*args)
        calls += 1
        failed += not ok
        return ok

    monkeypatch.setattr(th, "_match", counted)
    rng = random.Random(5)
    for name in ("Mon", "CMon"):
        T = word_theories[name]
        for _ in range(12):
            word = [rng.randrange(4) for _ in range(rng.randrange(3, 6))]
            other = list(word)
            rng.shuffle(other)
            lhs = App("m", (App("e"), bracket(rng, word)))
            th.congruent(T, lhs, bracket(rng, other), Budget(steps=100))
    assert calls > 1000 and failed == 0


# -- the per-search rewrite memo against the flat enumeration ------------------

@pytest.fixture(scope="module")
def search_theories(word_theories):
    """Mon, CMon and the identity bases of the two-element tables, with
    whether their signature has the unit e."""
    derived = [(theory, False) for theory, _ in derived_theories()]
    return [(word_theories["Mon"], True), (word_theories["CMon"], True)] + derived


def word_terms(with_unit):
    leaves = st.integers(0, 3).map(Var)
    if with_unit:
        leaves = leaves | st.just(App("e"))
    return st.recursive(
        leaves, lambda sub: st.tuples(sub, sub).map(lambda p: App("m", p)), max_leaves=8)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data(), max_size=st.integers(3, 64), steps=st.integers(1, 200))
def test_memo_search_matches_flat_oracle(search_theories, data, max_size, steps):
    theory, with_unit = data.draw(st.sampled_from(search_theories))
    lhs = data.draw(word_terms(with_unit))
    rhs = data.draw(word_terms(with_unit))
    budget = Budget(steps=steps, max_term_size=max_size)
    fast = th.congruent(theory, lhs, rhs, budget)
    assert fast == flat_congruent(theory, lhs, rhs, budget)
    assert fast == memo_congruent(theory, lhs, rhs, budget)
    if fast.provable:
        assert th.replay_certificate(theory, lhs, rhs, fast.certificate)


def left_nested(leaves):
    t = leaves[0]
    for leaf in leaves[1:]:
        t = App("m", (t, leaf))
    return t


def test_deep_term_matches_flat_oracle(word_theories):
    T = word_theories["Mon"]
    t = left_nested([Var(i % 4) for i in range(601)])
    assert term_depth(t) == 600
    budget = Budget(steps=3)
    lhs = App("m", (t, Var(1)))
    assert th.congruent(T, lhs, t, budget) == flat_congruent(T, lhs, t, budget)
    # the store reads the term back with an explicit stack: 600 levels fit
    # under a recursion limit of 100 more frames than the test already uses
    store = search_store(T)
    i = store.add(lhs)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        back = store.term(i)
    finally:
        sys.setrecursionlimit(limit)
    assert back == lhs and hash(back) == hash(lhs) and store.term(store.add(t)) is back.args[0]


def test_memo_keeps_only_growth_that_fits(word_theories):
    """A subterm larger than max_term_size keeps only shrinking rewrites;
    the growing ones (such as x -> m(e, x) at a leaf) could never fit."""
    T = word_theories["Mon"]
    max_size = 16
    t = left_nested([Var(0), App("e")] * 8)
    store, memo = search_store(T), {}
    start = store.add(t)
    th._rewrites(T._rules, store, start, max_size, memo)
    assert start not in memo
    big = [u for u in memo if store.sizes[u] > max_size]
    assert big and any(memo[u] for u in big)
    for u in big:
        assert store.sizes[u] == th.term_size(store.term(u))
        assert all(growth <= max_size - store.sizes[u] < 0
                   for _, growth, *_ in memo[u])


# -- a resumed search is the search of the summed budget -----------------------

def resume_pool(word_theories):
    """Seeded pairs in the theories above: Mon and CMon words, the derived
    theories' candidates, group and ternary terms, and a pair whose two
    sides are one term."""
    rng = random.Random(41)
    pool = []
    for name in ("Mon", "CMon"):
        for _ in range(6):
            word = [rng.randrange(4) for _ in range(rng.randrange(2, 5))]
            other = list(word)
            rng.shuffle(other)
            rhs = App("m", (App("e"), bracket(rng, other)))
            pool.append((word_theories[name], bracket(rng, word), rhs))
    for theory, candidates in derived_theories():
        pool += [(theory, l, r) for l, r in rng.sample(candidates, min(2, len(candidates)))]
    for name in ("group", "ternary"):
        theory, terms = non_binary_terms(name, 12, rng)
        pool += [(theory, l, r) for l, r in zip(terms[::2], terms[1::2])]
    t = bracket(rng, [0, 1, 2])
    return pool + [(word_theories["Mon"], t, t)]


def test_resumed_search_is_the_fresh_search(word_theories):
    """A search run in two or three chunks returns, after each, what a fresh
    search of the budget so far returns, and at the end the flat oracle's
    answer; once its sides have met or its frontiers have run dry, a
    further run changes nothing."""
    rng = random.Random(43)
    met = dry = 0
    for (theory, lhs, rhs), max_size in itertools.product(resume_pool(word_theories), (7, 64)):
        for k in (3, 40, 150):
            ends = sorted(rng.sample(range(1, k), rng.choice((1, 2)))) + [k]
            search = th._ProofSearch(theory, lhs, rhs, max_size)
            done = 0
            for end in ends:
                got = search.run(end - done)
                done = end
                budget = Budget(steps=done, max_term_size=max_size)
                assert got == th.congruent(theory, lhs, rhs, budget)
            assert got == flat_congruent(theory, lhs, rhs, budget)
            if got.provable or got.expansions < k:
                met += got.provable
                dry += not got.provable
                assert search.run(rng.randrange(1, 100)) == got
    assert met and dry


# -- repr and hash are those of the plain frozen dataclasses --------------------

@dataclass(frozen=True)
class PlainVar:
    index: int


@dataclass(frozen=True)
class PlainApp:
    symbol: str
    args: tuple = ()


def plain(t):
    if isinstance(t, Var):
        return PlainVar(t.index)
    return PlainApp(t.symbol, tuple(plain(a) for a in t.args))


def test_repr_and_hash_match_plain_dataclass():
    assert repr(Var(3)) == "Var(index=3)"
    assert repr(App("m", (Var(0), App("e")))) == \
        "App(symbol='m', args=(Var(index=0), App(symbol='e', args=())))"
    assert hash(Var(3)) == hash((3,))
    assert hash(App("e")) == hash(("e", ()))
    rng = random.Random(11)
    terms = [random_word_term(rng, rng.randrange(1, 10)) for _ in range(200)]
    for t in terms:
        p = plain(t)
        assert repr(t) == repr(p).replace("PlainVar(", "Var(").replace("PlainApp(", "App(")
        assert hash(t) == hash(p)
        if isinstance(t, App):
            assert hash(t) == hash((t.symbol, t.args))
    # hash fixes set iteration order, which the plain terms reproduce
    assert [plain(t) for t in set(terms)] == list(set(map(plain, terms)))
