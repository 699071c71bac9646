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

Within one search, congruent() keeps a memo from each subterm met to the
list of its one-step rewrites, so a subterm shared by many frontier terms
is matched and rewritten once, and each successor costs one new node on top
of its argument's cached list. A term's list is its own root rewrites
followed by each argument's list in argument order, lifted one level, which
is preorder again: the successor order, and with it every certificate and
expansion count, is unchanged. The memo lives and dies with the search.

Beside the memo, congruent() keeps an intern table for the same search: it
maps (symbol, args) to the one App with that symbol and those arguments,
and each variable to one Var. The endpoints are rebuilt through it once,
and every successor and root instance the search builds goes through it, so
equal terms within a search are one object. (The variable-free parts of an
axiom, which substitution shares instead of building, stay the axiom's own
objects and compare by equality.) A duplicate successor then costs a
dictionary lookup instead of a construction, and the lookups in the memo and
the search's side tables stop at the identity check instead of comparing
terms node by node. A term's hash and repr depend only on its symbol and
arguments, so they, the successor order, the certificates and the expansion
counts are unchanged. The table dies with the search, like the memo.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import is_

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

    def __contains__(self, symbol: str) -> bool:
        return any(n == symbol for n, _ in self.ops)


def subterms(t: Term):
    """(position, subterm) pairs in preorder."""
    stack = [((), t)]
    while stack:
        pos, u = stack.pop()
        yield pos, u
        if u.__class__ is App:
            args = u.args
            for i in range(len(args) - 1, -1, -1):
                stack.append((pos + (i,), args[i]))


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


def term_depth(t: Term) -> int:
    """Height: variables 0, applications 1 + max over arguments."""
    return _fold(
        t, lambda u: 0 if isinstance(u, Var) else None,
        lambda u, depths: 1 + max(depths, default=0))


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


def substitute(t: Term, s: Substitution, *, intern: dict | None = None) -> Term:
    """Simultaneous substitution; variables outside s are untouched, and
    subterms without a variable in s are shared, not copied. With a proof
    search's intern table, each new application is looked up in it first."""
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
        if intern is None:
            new = App(u.symbol, tuple(built))
        else:
            key = (u.symbol, tuple(built))
            new = intern.get(key)
            if new is None:
                new = intern[key] = App(*key)
        if not stack:
            return new
        stack[-1][1].append(new)


def compose_subst(first: Substitution, then: Substitution) -> Substitution:
    """Substitution doing `first`, then `then`."""
    out = {v: substitute(t, then) for v, t in first.items()}
    for v, t in then.items():
        out.setdefault(v, t)
    return out


def is_idempotent(s: Substitution) -> bool:
    return all(substitute(t, s) == t for t in s.values())


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


def match(pattern: Term, subject: Term) -> Substitution | None:
    """One-sided unification: bind pattern variables only."""
    binding: Substitution = {}
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
        if not isinstance(t, App) or i >= len(t.args):
            raise InvariantError(f"position {pos} does not exist")
        t = t.args[i]
    return t


def replace_at(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    spine = []
    for i in pos:
        if not isinstance(t, App) or i >= len(t.args):
            raise InvariantError(f"position {pos} does not exist")
        spine.append((t, i))
        t = t.args[i]
    for parent, i in reversed(spine):
        args = parent.args
        new = App(parent.symbol, args[:i] + (new,) + args[i + 1:])
    return new


def _interned(t: Term, intern: dict) -> Term:
    """The one term equal to t in a proof search's intern table, adding t's
    subterms that are not there yet."""
    def node(u, args):
        key = (u.symbol, tuple(args))
        new = intern.get(key)
        if new is None:
            # u itself when its arguments are already the interned ones
            new = intern[key] = u if all(map(is_, args, u.args)) else App(*key)
        return new
    return _fold(t, lambda u: intern.setdefault(u, u) if u.__class__ is Var else None, node)


def _rule_table(theory: TheoryPresentation):
    """The (axiom, direction) rules proof search may apply, worked out once
    per search, as (rules for a variable subterm, rules by head symbol).

    Each list keeps successor order: axioms in order, forward before
    backward. A direction that would introduce variables absent from the
    matched side is left out; it needs instantiation guessing. The
    bidirectional search in congruent() recovers it from the opposite
    endpoint, where the same axiom application is variable-dropping.
    """
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


def _rewrites(table, t: Term, max_size: int, memo: dict, intern: dict | None = None) -> list:
    """t's one-step rewrites under a _rule_table, in successor order, as
    (new term, growth in size, position, axiom, forward, binding) entries.

    memo maps each subterm met so far in one search to its own entries, so
    a subterm shared by many frontier terms is rewritten once; it is filled
    in post-order. A subterm u keeps only entries whose growth fits in
    max_size - size(u): no term containing u can use the others. t's own
    list is taken out of memo, since each frontier term is expanded once.
    Every new term is built through intern, the search's intern table
    (a fresh one when it is not given).
    """
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
            instance = substitute(dst, binding, intern=intern)
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


def _step(entry, forward: bool = True) -> ProofStep:
    """The ProofStep of a _rewrites entry, inverted when forward is False."""
    _, _, pos, axiom, fwd, binding = entry
    return ProofStep(pos, axiom, tuple(sorted(binding.items())), fwd == forward)


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
    if lhs == rhs:
        return CongruenceResult("provable", (), 0)

    intern: dict = {}
    lhs, rhs = _interned(lhs, intern), _interned(rhs, intern)
    # parents[side][term] = (previous term, _rewrites entry applied to previous)
    sides = ({lhs: None}, {rhs: None})
    frontiers = (deque([lhs]), deque([rhs]))
    expansions = 0
    table = _rule_table(theory)
    memo: dict = {}

    def build(meeting: Term) -> tuple[ProofStep, ...]:
        fwd = []
        cur = meeting
        while sides[0][cur] is not None:
            prev, entry = sides[0][cur]
            fwd.append(_step(entry))
            cur = prev
        fwd.reverse()
        back = []
        cur = meeting
        while sides[1][cur] is not None:
            prev, entry = sides[1][cur]
            back.append(_step(entry, False))
            cur = prev
        return tuple(fwd + back)

    while expansions < budget.steps and (frontiers[0] or frontiers[1]):
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) and frontiers[0] else 1
        if not frontiers[side]:
            side = 1 - side
        current = frontiers[side].popleft()
        expansions += 1
        for entry in _rewrites(table, current, budget.max_term_size, memo, intern):
            new = entry[0]
            if new in sides[side]:
                continue
            sides[side][new] = (current, entry)
            if new in sides[1 - side]:
                return CongruenceResult("provable", build(new), expansions)
            frontiers[side].append(new)
    return CongruenceResult("unknown", None, expansions)


def replay_certificate(
    theory: TheoryPresentation, lhs: Term, rhs: Term, certificate
) -> bool:
    """Re-run a proof chain step by step, validating each rewrite."""
    cur = lhs
    for step in certificate:
        l, r = theory.axioms[step.axiom]
        src, dst = (l, r) if step.forward else (r, l)
        binding = dict(step.subst)
        if substitute(src, binding) != subterm_at(cur, step.position):
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
