"""One-sorted equational theories: terms, unification, and congruence proofs.

Theories are finite presentations (signature + axiom pairs). Congruence of two
terms is only ever semi-decided: Provable comes with a replayable certificate,
everything else is Unknown. Theory morphisms fix objects (the skeletal
one-sorted setting) and are determined by symbol images.

Terms are immutable and carry their hash, size and variable set, computed
once from their arguments when they are built, so term_size, term_vars and
hashing never re-walk a term. Their repr and hash are those of the plain
frozen dataclasses: repr breaks ties when identities are sorted, and hash
fixes set iteration order. Term walkers keep their own stack instead of
recursing, so terms of any depth can be printed, substituted and rewritten.

The order in which proof search generates successors (positions in
preorder; at each position axioms in order, forward before backward) is part
of the certificate contract: it fixes which certificate congruent() finds
and its expansion count.

Proof search runs on integer ids, not on terms. Each search keeps a term
store (_TermStore) in which every distinct term is one int: the key
(symbol, *argument ids) of an application, or (index,) of a variable, maps
to its id, and a parallel list holds each id's size. Equal terms are one
id, so the search's memo, side tables and frontiers compare ints. The
axiom sides are compiled once per theory into patterns over those keys
(_rule_table, cached on the presentation), and the theory's ground terms
get the first ids of every store. Terms are built back from ids, each id
once, only for the bindings of the certificate a search returns.

Within one search, congruent() keeps a memo from each subterm met to the
list of its one-step rewrites, so a subterm shared by many frontier terms
is matched and rewritten once. A term's list is its own root rewrites
followed by each argument's list in argument order, lifted one level, which
is preorder again: the successor order, and with it every certificate and
expansion count, is that of rewriting whole terms. A lifted successor costs
one key tuple and one dictionary lookup; its position is a link to the
argument's entry and is read only when a ProofStep is built. A list leaves
out the term itself and every later occurrence of a term already in it:
the search would skip those successors, and they lift to self-loops and
repeats at every ancestor. So the search visits the successors of
rewriting whole terms, in their order. A subterm is tried only against the
rules filed under its shape, its head and its arguments' heads, which the
rule table files on first use (term indexing to depth two, as in Sekar,
Ramakrishnan and Voronkov, "Term Indexing", Handbook of Automated
Reasoning, 2001). The store and the memo live as long as the search, a
_ProofSearch, which goes on from where it stopped each time it is run.

The compiled rules and their one-step rewrites serve normalization too, so
a rule is matched and instantiated in one place. A Normalizer compiles a
list of size-decreasing rules with the same compiler (_compile) and
rewrites with the same _rewrites, taking at each step the first rewrite in
that order that shrinks the term: the first subterm in preorder, by the
first rule that shrinks it there. Its store and memo live as long as it
does, so normal forms are compared as ids.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import BudgetInvalid, InvariantError, NotParallel, SignatureMismatch, SourceMismatch

# the variable sets of x0..x63, shared by every Var with such an index
_SINGLETONS = tuple(frozenset((i,)) for i in range(64))
_NO_VARS: frozenset[int] = frozenset()
# a term's depth is below its size, so terms up to this size compare
# argument tuples recursively, well inside the interpreter's recursion limit
_RECURSION_SAFE_SIZE = 128


@dataclass(frozen=True, slots=True)
class Var:
    index: int
    _hash: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)
    _vars: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        i = self.index
        if i < 0:
            raise InvariantError("variable indices are naturals")
        _set_var_hash(self, hash((i,)))
        _set_var_size(self, 1)
        _set_var_vars(self, _SINGLETONS[i] if i < len(_SINGLETONS) else frozenset((i,)))

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class App:
    symbol: str
    args: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)
    _size: int = field(init=False, repr=False, compare=False)
    _vars: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = 1
        vs = _NO_VARS
        for a in self.args:
            size += a._size
            av = a._vars
            if not av <= vs:
                # share an argument's set when it holds all the others
                vs = av if vs <= av else vs | av
        _set_app_hash(self, hash((self.symbol, self.args)))
        _set_app_size(self, size)
        _set_app_vars(self, vs)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not App:
            return NotImplemented
        if self._hash != other._hash:
            return False
        if self._size <= _RECURSION_SAFE_SIZE:
            return self.symbol == other.symbol and self.args == other.args
        # an explicit stack, so that deep terms compare without recursion
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return False
            for u, v in zip(a.args, b.args):
                if u is v:
                    continue
                if u._hash != v._hash or u.__class__ is not v.__class__:
                    return False
                if u.__class__ is App:
                    stack.append((u, v))
                elif u.index != v.index:
                    return False
        return True

    def __hash__(self):
        return self._hash


Term = Var | App

# slot setters fill the cached fields of the frozen terms; they cost less
# per call than object.__setattr__
_set_var_hash, _set_var_size, _set_var_vars = (
    Var.__dict__[f].__set__ for f in ("_hash", "_size", "_vars"))
_set_app_hash, _set_app_size, _set_app_vars = (
    App.__dict__[f].__set__ for f in ("_hash", "_size", "_vars"))


@dataclass(frozen=True)
class Signature:
    """Operation symbols with arities, in declaration order."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise InvariantError("duplicate operation symbols")
        if any(a < 0 for _, a in self.ops):
            raise InvariantError("arities are naturals")

    def arity(self, symbol: str) -> int:
        for n, a in self.ops:
            if n == symbol:
                return a
        raise SignatureMismatch(f"unknown symbol {symbol!r}")


def _fold(t: Term, leaf, node):
    """Bottom-up fold: leaf(u) is u's value, or None to take
    node(u, argument values) instead."""
    values: list = []
    todo = [(t, False)]
    while todo:
        u, ready = todo.pop()
        if ready:
            k = len(values) - len(u.args)
            value = node(u, values[k:])
            del values[k:]
            values.append(value)
            continue
        value = leaf(u)
        if value is not None:
            values.append(value)
        else:
            todo.append((u, True))
            todo.extend((a, False) for a in reversed(u.args))
    return values[0]


def check_term(sig: Signature, t: Term, context: int | None = None) -> None:
    """Validate arities (and variable bounds when a context size is given)."""
    stack = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is Var:
            if context is not None and u.index >= context:
                raise InvariantError(f"variable {u.index} outside context of size {context}")
            continue
        if sig.arity(u.symbol) != len(u.args):
            raise SignatureMismatch(f"{u.symbol!r} applied to {len(u.args)} arguments")
        stack.extend(u.args)


def term_vars(t: Term) -> frozenset[int]:
    return t._vars


def term_size(t: Term) -> int:
    return t._size


def print_term(t: Term, names: list[str] | None = None) -> str:
    out = []
    # pending terms and punctuation, next to print on top
    stack: list = [t]
    while stack:
        u = stack.pop()
        if u.__class__ is str:
            out.append(u)
        elif u.__class__ is Var:
            i = u.index
            out.append(names[i] if names is not None and i < len(names) else f"x{i}")
        elif not u.args:
            out.append(u.symbol)
        else:
            out.append(u.symbol + "(")
            stack.append(")")
            for i in range(len(u.args) - 1, 0, -1):
                stack.append(u.args[i])
                stack.append(",")
            stack.append(u.args[0])
    return "".join(out)


# -- substitution ------------------------------------------------------------

Substitution = dict[int, Term]


def substitute(t: Term, s: Substitution) -> Term:
    """Simultaneous substitution; variables outside s are untouched, and
    subterms without a variable in s are shared, not copied."""
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
        new = App(u.symbol, tuple(built))
        if not stack:
            return new
        stack[-1][1].append(new)


# -- unification -------------------------------------------------------------

def unify(t1: Term, t2: Term) -> Substitution | None:
    """Most general unifier with occurs check, or None; result is idempotent."""
    subst: Substitution = {}
    stack = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        a, b = substitute(a, subst), substitute(b, subst)
        if a == b:
            continue
        if isinstance(a, Var):
            if a.index in b._vars:
                return None
            bind = {a.index: b}
            subst = {v: substitute(t, bind) for v, t in subst.items()}
            subst[a.index] = b
        elif isinstance(b, Var):
            stack.append((b, a))
        else:
            if a.symbol != b.symbol or len(a.args) != len(b.args):
                return None
            stack.extend(zip(a.args, b.args))
    return subst


# -- presentations and congruence proofs -------------------------------------

@dataclass(frozen=True)
class TheoryPresentation:
    name: str
    signature: Signature
    axioms: tuple[tuple[Term, Term], ...]

    def __post_init__(self):
        for lhs, rhs in self.axioms:
            check_term(self.signature, lhs)
            check_term(self.signature, rhs)

    @cached_property
    def _rules(self):
        """Proof search's compiled rules (see _rule_table), made once."""
        return _rule_table(self)


@dataclass(frozen=True)
class Budget:
    """Proof-search limits: node expansions and a term-size cap."""

    steps: int = 10_000
    max_term_size: int = 64

    def __post_init__(self):
        if self.steps <= 0 or self.max_term_size <= 0:
            raise BudgetInvalid("budget limits must be positive")


@dataclass(frozen=True, slots=True)
class ProofStep:
    """One rewrite: an axiom instance applied at a position.

    position addresses the rewritten subterm by argument indices from the
    root; forward means the axiom was used left-to-right.
    """

    position: tuple[int, ...]
    axiom: int
    subst: tuple[tuple[int, Term], ...]
    forward: bool


@dataclass(frozen=True)
class CongruenceResult:
    status: str  # "provable" | "unknown"
    certificate: tuple[ProofStep, ...] | None
    expansions: int

    @property
    def provable(self) -> bool:
        return self.status == "provable"


def subterm_at(t: Term, pos: tuple[int, ...]) -> Term:
    for i in pos:
        if not isinstance(t, App) or not 0 <= i < len(t.args):
            raise InvariantError(f"position {pos} does not exist")
        t = t.args[i]
    return t


def replace_at(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    spine = []
    for i in pos:
        if not isinstance(t, App) or not 0 <= i < len(t.args):
            raise InvariantError(f"position {pos} does not exist")
        spine.append((t, i))
        t = t.args[i]
    for parent, i in reversed(spine):
        args = parent.args
        new = App(parent.symbol, args[:i] + (new,) + args[i + 1:])
    return new


class _TermStore:
    """The terms of one proof search, hash-consed to ints.

    ids maps a term's key to its id: (symbol, *argument ids) for an
    application, (index,) for a variable. keys[i] is the key of id i and
    sizes[i] its size; an id's arguments always have smaller ids.
    """

    __slots__ = ("ids", "keys", "sizes", "_terms")

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.sizes: list[int] = []
        self._terms: dict[int, Term] = {}

    def copy(self) -> _TermStore:
        new = _TermStore()
        new.ids, new.keys, new.sizes = dict(self.ids), list(self.keys), list(self.sizes)
        return new

    def id_of(self, key: tuple, size: int) -> int:
        """The id of the term with this key, added with this size if new."""
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.sizes.append(size)
        return i

    def add(self, t: Term) -> int:
        """t's id, adding the subterms of t that are not in the store yet."""
        return _fold(
            t, lambda u: self.id_of((u.index,), 1) if u.__class__ is Var else None,
            lambda u, args: self.id_of((u.symbol, *args), u._size))

    def term(self, i: int) -> Term:
        """The term with id i. Each id is built once per store, bottom-up
        with an explicit stack, so terms of any depth read back."""
        terms, keys = self._terms, self.keys
        stack = [i]
        while stack:
            u = stack[-1]
            if u in terms:
                stack.pop()
                continue
            key = keys[u]
            if key[0].__class__ is int:
                terms[u] = Var(key[0])
            else:
                missing = [a for a in key[1:] if a not in terms]
                if missing:
                    stack.extend(missing)
                    continue
                terms[u] = App(key[0], tuple(terms[a] for a in key[1:]))
            stack.pop()
        return terms[i]


def _pattern(t: Term, slots: dict[int, int], store: _TermStore):
    """t as a pattern over store keys: a variable is its slot (a negative
    int), a ground subterm its id in store, an application (symbol, *argument
    patterns)."""
    return _fold(
        t, lambda u: slots[u.index] if u.__class__ is Var
        else store.add(u) if not u._vars else None,
        lambda u, args: (u.symbol, *args))


def _program(t: Term, slots: dict[int, int], store: _TermStore) -> list:
    """The instructions that build t's instances in postfix order: a slot
    or a ground id pushes an id, (symbol, n) replaces the top n ids by the
    application of symbol to them."""
    out: list = []
    todo = [(t, False)]
    while todo:
        u, ready = todo.pop()
        if ready:
            out.append((u.symbol, len(u.args)))
        elif u.__class__ is Var:
            out.append(slots[u.index])
        elif not u._vars:
            out.append(store.add(u))
        else:
            todo.append((u, True))
            todo.extend((a, False) for a in reversed(u.args))
    return out


def _compile(directed) -> tuple:
    """Directed rules (source, target, axiom, forward), compiled for
    _rewrites as (seed store, rules for a variable subterm, rules by head,
    rules by shape).

    The seed store holds the rules' ground subterms. A rule is (source
    pattern, instance program, (axiom, forward, the source's variables in
    order)); a binding gives the id of each of those variables. A variable of
    the target that the source lacks stands for itself: the program pushes
    its id in the seed store. Each list keeps the rules in the order given.

    Rules by shape starts empty and is filled by _filed as rewriting meets
    new shapes: the shape of an application is (head, each argument's head),
    with None for a variable argument, and its list keeps the rules by head
    that could match such a node, in the same order.
    """
    seed = _TermStore()
    rules = []
    for src, dst, axiom, forward in directed:
        names = tuple(sorted(src._vars))
        slots = {v: ~k for k, v in enumerate(names)}
        for v in sorted(dst._vars - src._vars):
            slots[v] = seed.id_of((v,), 1)
        head = src.symbol if src.__class__ is App else None
        rule = (_pattern(src, slots, seed), _program(dst, slots, seed),
                (axiom, forward, names))
        rules.append((head, rule))
    any_head = [r for h, r in rules if h is None]
    by_head = {h: [r for g, r in rules if g is None or g == h]
               for h, _ in rules if h is not None}
    return seed, any_head, by_head, {}


def _rule_table(theory: TheoryPresentation):
    """The (axiom, direction) rules proof search may apply, compiled once per
    theory (see _compile), in successor order: axioms in order, forward
    before backward. Every search starts from a copy of the seed store. A
    direction that would introduce variables absent from the matched side is
    left out; it needs instantiation guessing. The bidirectional search in
    congruent() recovers it from the opposite endpoint, where the same axiom
    application is variable-dropping.
    """
    return _compile(
        (src, dst, i, forward)
        for i, (lhs, rhs) in enumerate(theory.axioms)
        for forward, src, dst in ((True, lhs, rhs), (False, rhs, lhs))
        if dst._vars <= src._vars)


def _filed(rules, shape: tuple) -> list:
    """The rules that could match an application of this shape, in
    successor order, filed under the shape in the rule table on first use.

    A rule with an application source fits when each of its argument
    patterns is a variable, or has the head the shape gives for that
    argument (an application pattern's symbol, a ground id's head). Rules
    with a variable or a ground source always fit."""
    seed, any_head, by_head, by_shape = rules
    keys = seed.keys
    fits = []
    for rule in by_head.get(shape[0], any_head):
        pattern = rule[0]
        if pattern.__class__ is tuple and any(
                p[0] != h if p.__class__ is tuple else p >= 0 and keys[p][0] != h
                for p, h in zip(pattern[1:], shape[1:])):
            continue
        fits.append(rule)
    by_shape[shape] = fits
    return fits


def _match(pattern: tuple, key: tuple, keys: list, binding: list) -> bool:
    """Whether an application pattern matches the term with this key,
    filling binding with the id of each of the pattern's slots."""
    todo = []
    while True:
        if len(key) != len(pattern) or key[0] != pattern[0]:
            return False
        for p, s in zip(pattern, key):
            if p.__class__ is int:
                if p >= 0:
                    if p != s:
                        return False
                elif binding[~p] is None:
                    binding[~p] = s
                elif binding[~p] != s:
                    return False
            elif p.__class__ is tuple:
                todo.append((p, s))
        if not todo:
            return True
        pattern, s = todo.pop()
        key = keys[s]


def _rewrites(rules, store: _TermStore, t: int, max_size: int, memo: dict) -> list:
    """The one-step rewrites of id t under compiled rules, in successor order,
    without self-loops or repeats.

    A root rewrite is the entry (new id, growth in size, rule info,
    binding); a rewrite inside argument j is (new id, growth, j, the
    argument's entry). memo maps each id met so far in one search to its
    own entries, so a subterm shared by many frontier terms is rewritten
    once; it is filled in post-order. A subterm u keeps only entries whose
    growth fits in max_size - size(u): no term containing u can use the
    others. An entry whose new id is u itself or that of an earlier entry
    is dropped: congruent() would skip it, and it lifts to such an entry at
    every ancestor. An application is tried only against the rules filed
    under its shape (see _filed). t's own list is taken out of memo, since
    each frontier term is expanded once.
    """
    _, any_head, _, by_shape = rules
    ids, keys, sizes = store.ids, store.keys, store.sizes
    id_of = store.id_of
    # an id to visit, or ~id once its arguments have their entries
    todo = [t]
    while todo:
        u = todo.pop()
        if u >= 0:
            if u in memo:
                continue
            key = keys[u]
            if len(key) == 3:
                todo += (~u, key[2], key[1])
                continue
            if len(key) > 1:
                todo.append(~u)
                todo += key[:0:-1]
                continue
        else:
            u = ~u
            key = keys[u]
        head = key[0]
        arity = len(key) - 1
        if head.__class__ is int:  # a variable
            filed = any_head
        else:
            if arity == 2:
                a, b = keys[key[1]][0], keys[key[2]][0]
                shape = (head, a if a.__class__ is str else None,
                         b if b.__class__ is str else None)
            else:
                shape = (head, *[h if h.__class__ is str else None
                                 for h in (keys[a][0] for a in key[1:])])
            filed = by_shape.get(shape)
            if filed is None:
                filed = _filed(rules, shape)
        size = sizes[u]
        slack = max_size - size
        entries = []
        found = [u]  # u and the ids of its root entries
        for pattern, program, info in filed:
            if pattern.__class__ is tuple:
                binding = [None] * len(info[2])
                if not _match(pattern, key, keys, binding):
                    continue
            elif pattern < 0:  # a variable, the source's only one
                binding = [u]
            elif pattern == u:  # a ground source
                binding = []
            else:
                continue
            values = []
            for op in program:
                if op.__class__ is int:
                    values.append(op if op >= 0 else binding[~op])
                else:
                    symbol, n = op
                    args = values[-n:]
                    del values[-n:]
                    new_key = (symbol, *args)
                    new = ids.get(new_key)
                    if new is None:
                        new = id_of(new_key, 1 + sum(map(sizes.__getitem__, args)))
                    values.append(new)
            instance = values[0]
            growth = sizes[instance] - size
            if growth <= slack and instance not in found:
                found.append(instance)
                entries.append((instance, growth, info, binding))
        # a lifted entry is new unless it repeats a root entry: the
        # arguments' lists hold no self-loops or repeats
        if arity == 2:
            _, a, b = key
            for entry in memo[a]:
                growth = entry[1]
                if growth <= slack:
                    lifted_key = (head, entry[0], b)
                    lifted = ids.get(lifted_key)
                    if lifted is None:  # store.id_of, inlined
                        lifted = ids[lifted_key] = len(keys)
                        keys.append(lifted_key)
                        sizes.append(size + growth)
                    elif lifted in found:
                        continue
                    entries.append((lifted, growth, 0, entry))
            for entry in memo[b]:
                growth = entry[1]
                if growth <= slack:
                    lifted_key = (head, a, entry[0])
                    lifted = ids.get(lifted_key)
                    if lifted is None:
                        lifted = ids[lifted_key] = len(keys)
                        keys.append(lifted_key)
                        sizes.append(size + growth)
                    elif lifted in found:
                        continue
                    entries.append((lifted, growth, 1, entry))
        else:
            for j in range(1, arity + 1):
                before, after, position = key[:j], key[j + 1:], j - 1
                for entry in memo[key[j]]:
                    growth = entry[1]
                    if growth <= slack:
                        lifted_key = before + (entry[0],) + after
                        lifted = ids.get(lifted_key)
                        if lifted is None:
                            lifted = ids[lifted_key] = len(keys)
                            keys.append(lifted_key)
                            sizes.append(size + growth)
                        elif lifted in found:
                            continue
                        entries.append((lifted, growth, position, entry))
        memo[u] = entries
    return memo.pop(t)


def _step(store: _TermStore, entry, forward: bool = True) -> ProofStep:
    """The ProofStep of a _rewrites entry, inverted when forward is False."""
    position = []
    while entry[2].__class__ is int:
        position.append(entry[2])
        entry = entry[3]
    _, _, (axiom, fwd, names), binding = entry
    subst = tuple(zip(names, map(store.term, binding)))
    return ProofStep(tuple(position), axiom, subst, fwd == forward)


class _ProofSearch:
    """congruent's search, kept between runs: run(k), then run(m), is run(k + m)."""

    __slots__ = ("_rules", "_store", "_sides", "_frontiers", "_memo", "_max_size", "_met", "_expansions")

    def __init__(self, theory: TheoryPresentation, lhs: Term, rhs: Term, max_size: int):
        self._rules, self._memo, self._max_size, self._expansions = theory._rules, {}, max_size, 0
        store = self._store = self._rules[0].copy()
        lhs, rhs = store.add(lhs), store.add(rhs)
        # sides[side][id] = (previous id, _rewrites entry applied to previous)
        self._sides = ({lhs: None}, {rhs: None})
        self._frontiers = (deque([lhs]), deque([rhs]))
        self._met = lhs if lhs == rhs else None  # the id where the two sides meet

    def run(self, steps: int) -> CongruenceResult:
        """Up to steps further expansions, and the result so far."""
        rules, store, memo, max_size = self._rules, self._store, self._memo, self._max_size
        sides, frontiers, met, expansions = self._sides, self._frontiers, self._met, self._expansions
        limit = expansions + steps
        while met is None and expansions < limit and (frontiers[0] or frontiers[1]):
            side = 1 if not frontiers[0] or 0 < len(frontiers[1]) < len(frontiers[0]) else 0
            seen, other, frontier = sides[side], sides[1 - side], frontiers[side]
            current = frontier.popleft()
            expansions += 1
            for entry in _rewrites(rules, store, current, max_size, memo):
                new = entry[0]
                if new in seen:
                    continue
                seen[new] = (current, entry)
                if new in other:
                    met = new
                    break
                frontier.append(new)
        self._met, self._expansions = met, expansions
        if met is None:
            return CongruenceResult("unknown", None, expansions)
        proof = []
        for seen, forward in zip(sides, (True, False)):
            chain, cur = [], met
            while seen[cur] is not None:
                cur, entry = seen[cur]
                chain.append(_step(store, entry, forward))
            proof += reversed(chain) if forward else chain
        return CongruenceResult("provable", tuple(proof), expansions)


def congruent(
    theory: TheoryPresentation, lhs: Term, rhs: Term, budget: Budget | int = Budget()
) -> CongruenceResult:
    """Semi-decide lhs ~ rhs under the theory's axioms.

    Bidirectional breadth-first search over single axiom-instance rewrites.
    Provable always carries a certificate replayable by replay_certificate;
    budget exhaustion yields Unknown, never a negative.
    """
    if isinstance(budget, int):
        budget = Budget(steps=budget)
    return _ProofSearch(theory, lhs, rhs, budget.max_term_size).run(budget.steps)


class Normalizer:
    """Normal forms under size-decreasing rules (big, small), rewritten by
    proof search's engine: the rules compiled by _compile, one-step
    rewrites by _rewrites.

    A step rewrites the first subterm in preorder, by the first rule in
    order whose instance there is smaller (outermost first). An instance
    that does not shrink is never applied: a rule whose small side repeats a
    variable more often than its big side has instances that grow, and would
    rewrite some terms forever. So each step shrinks the term and
    normalization terminates. A variable on the small side only stands for
    itself. Normal forms are ids in the normalizer's store, so equal normal
    forms are equal ids; they certify that the rules derive one term from
    the other (each step is a rule instance), unequal ones prove nothing.
    The store, the rewrite memo and each id's normal form live as long as
    the normalizer.
    """

    __slots__ = ("_rules", "store", "_memo", "_normal")

    def __init__(self, rules):
        self._rules = _compile((big, small, i, True) for i, (big, small) in enumerate(rules))
        self.store: _TermStore = self._rules[0]
        self._memo: dict = {}
        self._normal: dict[int, int] = {}

    def normal_form(self, t: Term) -> int:
        """The id of t's normal form; store.term reads it back."""
        normal = self._normal
        u = self.store.add(t)
        path = []
        while u not in normal:
            path.append(u)
            smaller = self._shrink(u)
            if smaller is None:
                normal[u] = u
            else:
                u = smaller
        nf = normal[u]
        for v in path:
            normal[v] = nf
        return nf

    def _shrink(self, u: int) -> int | None:
        """The first of u's one-step rewrites that is smaller than u, or
        None. _rewrites keeps rewrites of any size, so that each memo entry
        holds all of a subterm's rewrites, whatever term it sits in."""
        for entry in _rewrites(self._rules, self.store, u, sys.maxsize, self._memo):
            if entry[1] < 0:
                return entry[0]
        return None


def replay_certificate(
    theory: TheoryPresentation, lhs: Term, rhs: Term, certificate
) -> bool:
    """Re-run a proof chain step by step, validating each rewrite. A step
    naming an axiom or a position that does not exist fails the replay."""
    cur = lhs
    for step in certificate:
        if not 0 <= step.axiom < len(theory.axioms):
            return False
        l, r = theory.axioms[step.axiom]
        src, dst = (l, r) if step.forward else (r, l)
        binding = dict(step.subst)
        try:
            if substitute(src, binding) != subterm_at(cur, step.position):
                return False
        except InvariantError:
            return False
        cur = replace_at(cur, step.position, substitute(dst, binding))
    return cur == rhs


# -- theory morphisms and quotients -------------------------------------------

@dataclass(frozen=True)
class TheoryMorphismData:
    """Determined by symbol images: each n-ary symbol goes to a term over
    variables x0..x(n-1) of the target theory. Objects (naturals) are fixed."""

    source: TheoryPresentation
    target: TheoryPresentation
    images: tuple[tuple[str, Term], ...]

    def __post_init__(self):
        named = dict(self.images)
        for sym, arity in self.source.signature.ops:
            if sym not in named:
                raise InvariantError(f"morphism misses image for {sym!r}")
            img = named[sym]
            check_term(self.target.signature, img, context=arity)
        if len(named) != len(self.source.signature.ops):
            raise InvariantError("morphism names symbols outside the source signature")

    def image_of(self, symbol: str) -> Term:
        for s, t in self.images:
            if s == symbol:
                return t
        raise SignatureMismatch(f"no image for {symbol!r}")

    def apply(self, t: Term) -> Term:
        return _fold(
            t, lambda u: u if isinstance(u, Var) else None,
            lambda u, translated: substitute(
                self.image_of(u.symbol), dict(enumerate(translated))))


def identity_morphism(T: TheoryPresentation) -> TheoryMorphismData:
    images = tuple(
        (sym, App(sym, tuple(Var(i) for i in range(ar)))) for sym, ar in T.signature.ops
    )
    return TheoryMorphismData(T, T, images)


def quotient_theory(
    T: TheoryPresentation, extra, name: str | None = None
) -> tuple[TheoryPresentation, TheoryMorphismData]:
    """Presentation with added axioms plus the canonical morphism into it.

    The morphism is identity on symbols, hence full and bijective on objects
    by construction.
    """
    extra = tuple((l, r) for l, r in extra)
    quotient = TheoryPresentation(
        name or (T.name + "/~"), T.signature, T.axioms + extra
    )
    m = identity_morphism(T)
    return quotient, TheoryMorphismData(T, quotient, m.images)


def general_cosolution_theories(
    pairs, name: str | None = None
) -> tuple[TheoryPresentation, TheoryMorphismData]:
    """Universal quotient coequalizing each (P, Q) pair of theory morphisms.

    Generators: one axiom P(sym) ~ Q(sym) per source symbol; congruences are
    closed under composition and tupling, so symbol images suffice.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise SourceMismatch("need at least one morphism pair")
    T = pairs[0][0].target
    for P, Q in pairs:
        if P.target != T:
            raise SourceMismatch("all pairs must land in one common theory")
        if Q.target != P.target:
            raise SourceMismatch("pair members must share their target")
        if Q.source != P.source:
            raise SourceMismatch("pair members must share their source")
    extra = []
    for P, Q in pairs:
        for sym, _ in P.source.signature.ops:
            l, r = P.image_of(sym), Q.image_of(sym)
            if l != r:
                extra.append((l, r))
    return quotient_theory(T, extra, name)


def kernel_pair_membership(
    M: TheoryMorphismData, f: Term, g: Term, budget: Budget | int = Budget()
) -> str:
    """"InKernel" when M(f) ~ M(g) is provable in the target, else "Unknown"."""
    res = congruent(M.target, M.apply(f), M.apply(g), budget)
    return "InKernel" if res.provable else "Unknown"


@dataclass(frozen=True)
class AgreementSubtheory:
    """Wide subtheory of terms on which two parallel morphisms provably agree.

    Not materialized as a presentation (it rarely has a finite one); offers a
    budgeted membership test instead.
    """

    P: TheoryMorphismData
    Q: TheoryMorphismData

    def contains(self, t: Term, budget: Budget | int = Budget()) -> str:
        res = congruent(self.P.target, self.P.apply(t), self.Q.apply(t), budget)
        return "InSubtheory" if res.provable else "Unknown"


@dataclass(frozen=True)
class LawvereEquationResult:
    holds: bool
    witness: AgreementSubtheory


def is_lawvere_equation(P: TheoryMorphismData, Q: TheoryMorphismData) -> LawvereEquationResult:
    """Every parallel pair qualifies here: morphisms fix objects (naturals),
    so the agreement subtheory is wide and its inclusion is surjective on
    objects. The witness is returned as a membership tester."""
    if P.source != Q.source or P.target != Q.target:
        raise NotParallel("morphism pair must share source and target theories")
    return LawvereEquationResult(True, AgreementSubtheory(P, Q))
