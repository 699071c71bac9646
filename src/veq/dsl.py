"""Declarative workspace language and its canonical printer.

One small language covers every definition kind the command surface needs:
sets, functions, equation systems, algebras, groups, theories, theory
morphisms, categories, functors, adjunctions, and series. A file is loaded
top to bottom; references resolve immediately and every value is validated
by its home module's constructor on the spot, so a parsed workspace is a
checked workspace.

The scanner reads one line at a time with one compiled pattern, which finds
each token after its blanks; a table keyed by the token's first character
gives its kind, and only a token that starts with '-', '#', a non-ASCII or
a stray character needs a second look. Identifiers follow `str.isalpha` and
`str.isalnum`; numbers are ASCII digits with an optional leading '-', so a
non-ASCII digit is an unexpected character. A number too long for `int` is
a ParseError at its position.

Every list is read by one reader, `_Parser._list`: an item, and one more
after each separator. A list that names its closing token may be empty;
one that does not needs at least one item. `_Parser._mapping` reads
`key -> value` lists through it and reports a key read twice as soon as
its pair is read.

Printing is canonical: parse(print_workspace(w)) rebuilds w exactly, and
printing an already-canonical source is the identity.
"""

from __future__ import annotations

import itertools
import re
import string
import sys
from fractions import Fraction
from typing import NamedTuple

from . import cats
from .algebras import FiniteAlgebra
from .equations import CoEquationSystem, Equation, EquationSystem
from .errors import InvariantError, ParseError, ResolutionError, VeqError
from .finset import FinFunction, FinSetObj, fin_function
from .groups import corpus as group_corpus
from .instances import FinSetCat
from .series import TruncatedSeries, from_ratio, from_recurrence, series
from .theories import (
    App,
    Signature,
    Term,
    TheoryMorphismData,
    TheoryPresentation,
    Var,
    check_term,
    print_term,
)

FINSET_CAT = FinSetCat()

KINDS = (
    "set", "fun", "system", "cosystem", "algebra", "group",
    "theory", "thmor", "category", "functor", "adjunction", "series",
)

VAR_NAME = re.compile(r"[u-z][0-9]*")


class Workspace:
    """Named definitions, one namespace per kind, in declaration order."""

    def __init__(self):
        self.defs: dict[str, dict[str, object]] = {k: {} for k in KINDS}
        self.order: list[tuple[str, str]] = []
        self.lines: dict[tuple[str, str], str] = {}
        self.cat_generators: dict[str, tuple[str, ...]] = {}

    def add(self, kind: str, name: str, value, line: str):
        if name in self.defs[kind]:
            raise ResolutionError(f"duplicate {kind} {name!r}")
        self.defs[kind][name] = value
        self.order.append((kind, name))
        self.lines[(kind, name)] = line

    def get(self, kind: str, name: str):
        try:
            return self.defs[kind][name]
        except KeyError:
            raise ResolutionError(f"undefined {kind} {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, Workspace)
            and self.order == other.order
            and self.lines == other.lines
        )


def print_workspace(w: Workspace) -> str:
    if not w.order:
        return ""
    return "\n".join(w.lines[key] for key in w.order) + "\n"


# --- tokens -----------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


# A line is scanned with one pattern: blanks, then one token. The token is an
# identifier, a number, an arrow, a punctuation mark, a comment, a run of word
# characters that starts outside ASCII, or any other single character. `\w`
# matches exactly what `str.isalnum` accepts, and '_'.
_TOKEN = re.compile(
    r"([ \t\r]*)([A-Za-z_]\w*|-?[0-9]+|->|[{}()\[\],;:=~/.]|#.*|\w+|[^ \t\r])")

# The kind a token's first character settles; '-', '#', characters outside
# ASCII and stray characters need a second look.
_KIND = {
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI",
    ":": "COLON", "=": "EQUALS", "~": "TILDE", "/": "SLASH", ".": "DOT",
    **dict.fromkeys(string.ascii_letters + "_", "IDENT"),
    **dict.fromkeys(string.digits, "NUMBER"),
}


def tokenize(src: str, where: str = "<input>") -> list[Token]:
    """Tokens with 1-based line and column, ending in one EOF token.

    Identifiers start with a letter or '_' and go on with letters, digits
    and '_', in the `str.isalpha`/`str.isalnum` sense. Numbers are ASCII
    digits with an optional leading '-'. Columns count characters, a tab as
    one; a comment's characters are not counted, so an EOF token after a
    final comment stands where the comment starts.
    """
    out = []
    append = out.append
    make = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    kinds = _KIND
    for line, text in enumerate(src.split("\n"), 1):
        col = 1
        for blank, word in _TOKEN.findall(text):
            col += len(blank)
            kind = kinds.get(word[0])
            if kind is None:
                first = word[0]
                if first == "#":
                    break
                if word == "->":
                    kind = "ARROW"
                elif first == "-" and len(word) > 1:
                    kind = "NUMBER"
                elif first.isalpha():
                    kind = "IDENT"
                else:
                    raise ParseError(
                        f"{where}: unexpected character {first!r}", line, col)
            append(make(Token, (kind, word, line, col)))
            col += len(word)
        else:
            col = len(text) + 1
    append(make(Token, ("EOF", "", line, col)))
    return out


# --- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], ws: Workspace, where: str):
        self.toks = tokens
        self.pos = 0
        self.ws = ws
        self.where = where

    def peek(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and (text is None or t.text == text)

    def eat(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.peek()
        found = t.text if t.kind != "EOF" else "end of input"
        raise ParseError(
            f"{self.where}: expected {expected}, found {found!r}", t.line, t.col)

    def expect(self, kind: str, text: str | None = None, expected: str | None = None) -> Token:
        t = self.toks[self.pos]
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(expected or (text if text is not None else kind.lower()))
        self.pos += 1
        return t

    def keyword(self, word: str) -> Token:
        t = self.toks[self.pos]
        if t.kind != "IDENT" or t.text != word:
            self.fail(f"keyword {word!r}")
        self.pos += 1
        return t

    # -- shared small pieces --

    def _name(self, what: str) -> str:
        t = self.toks[self.pos]
        if t.kind != "IDENT":
            self.fail(what)
        self.pos += 1
        return t.text

    def _element(self) -> str:
        t = self.peek()
        if t.kind == "IDENT" or (t.kind == "NUMBER" and not t.text.startswith("-")):
            return self.eat().text
        self.fail("an element label")

    def _list(self, item, closing: str | None = None, sep: str = "COMMA") -> list:
        """Items read by `item()`, one more after each `sep` token. With a
        `closing` token kind the list may be empty, and the closing token is
        read after it; without one there is at least one item."""
        out = []
        if closing is None or not self.at(closing):
            out.append(item())
            while self.toks[self.pos].kind == sep:
                self.pos += 1
                out.append(item())
        if closing is not None:
            self.expect(closing)
        return out

    def _mapping(self, key, value, twice: str, closing: str | None = None) -> dict:
        """`key -> value` pairs read through `_list`; a key read twice raises
        ResolutionError(twice.format(repr(key))) as soon as its pair is read."""
        out = {}

        def pair():
            k = key()
            self.expect("ARROW")
            v = value()
            if k in out:
                raise ResolutionError(twice.format(repr(k)))
            out[k] = v

        self._list(pair, closing)
        return out

    def _integer(self, expected: str) -> int:
        t = self.expect("NUMBER", expected=expected)
        try:
            return int(t.text)
        except ValueError:
            # the digits are ASCII, so only Python's limit on the length of
            # an integer literal (sys.get_int_max_str_digits) is left
            digits = len(t.text.lstrip("-"))
            raise ParseError(
                f"{self.where}: number too long ({digits} digits, at most "
                f"{sys.get_int_max_str_digits()})", t.line, t.col) from None

    def _rational(self) -> Fraction:
        num = self._integer("a number")
        if self.at("SLASH"):
            self.eat()
            t = self.peek()
            den = self._integer("a denominator")
            if den == 0:
                raise ParseError(f"{self.where}: zero denominator", t.line, t.col)
            return Fraction(num, den)
        return Fraction(num)

    def _rational_list(self, stop_kinds: tuple[str, ...]) -> list[Fraction]:
        out = self._list(self._rational)
        if self.peek().kind not in stop_kinds:
            self.fail(" or ".join(k.lower() for k in stop_kinds))
        return out

    def term(self, mode: str, reg: dict[str, int]) -> Term:
        """One term, left to right, with an explicit stack of the
        applications still open, so nesting depth is not bounded by Python's
        recursion limit. Variables are numbered in order of first appearance.
        """
        open_apps: list[tuple[str, list[Term]]] = []
        while True:
            name = self._name("a term")
            if self.at("LPAREN"):
                self.eat()
                if not self.at("RPAREN"):
                    open_apps.append((name, []))
                    continue
                self.eat()
                done = App(name, ())
            else:
                done = self._leaf(name, mode, reg)
            # hand the finished term to the innermost open application,
            # closing every application that ends right after it
            while open_apps:
                head, args = open_apps[-1]
                args.append(done)
                if self.at("COMMA"):
                    self.eat()
                    break
                self.expect("RPAREN")
                open_apps.pop()
                done = App(head, tuple(args))
            else:
                return done

    def _leaf(self, name: str, mode: str, reg: dict[str, int]) -> Term:
        if mode == "indexed":
            m = re.fullmatch(r"x([0-9]+)", name)
            if m:
                try:
                    return Var(int(m.group(1)))
                except ValueError:
                    t = self.toks[self.pos - 1]
                    raise ParseError(
                        f"{self.where}: variable index too long", t.line, t.col) from None
            return App(name, ())
        if VAR_NAME.fullmatch(name):
            if name not in reg:
                reg[name] = len(reg)
            return Var(reg[name])
        return App(name, ())

    # -- declarations --

    def file(self):
        while not self.at("EOF"):
            if self.at("SEMI"):
                self.eat()
                continue
            self.declaration()

    def declaration(self):
        t = self.peek()
        if t.kind != "IDENT" or t.text not in KINDS:
            self.fail("one of " + ", ".join(KINDS))
        handler = getattr(self, "_decl_" + t.text)
        self.eat()
        name = self._name(f"a {t.text} name")
        try:
            value, line = handler(name)
        except (ParseError, ResolutionError):
            raise
        except VeqError as e:
            raise InvariantError(f"{t.text} {name}: {e}") from e
        self.ws.add(t.text, name, value, line)

    def _decl_set(self, name):
        self.expect("EQUALS")
        self.expect("LBRACE")
        elems = self._list(self._element, "RBRACE")
        obj = FinSetObj(tuple(elems))
        return obj, f"set {name} = {{{', '.join(elems)}}}"

    def _decl_fun(self, name):
        self.expect("COLON")
        dom_name = self._name("a set name")
        self.expect("ARROW")
        cod_name = self._name("a set name")
        self.expect("EQUALS")
        self.expect("LBRACE")
        mapping = self._mapping(
            self._element, self._element, f"fun {name}: {{}} mapped twice", "RBRACE")
        dom = self.ws.get("set", dom_name)
        cod = self.ws.get("set", cod_name)
        f = fin_function(dom, cod, mapping)
        body = ", ".join(f"{x} -> {f(x)}" for x in dom.elements)
        return f, f"fun {name} : {dom_name} -> {cod_name} = {{{body}}}"

    def _equation_pair(self) -> tuple[str, str]:
        lhs = self._name("a function name")
        self.expect("TILDE")
        return lhs, self._name("a function name")

    def _decl_system(self, name):
        return self._equations("system", name, EquationSystem, "domain", "start")

    def _decl_cosystem(self, name):
        return self._equations("cosystem", name, CoEquationSystem, "codomain", "end")

    def _equations(self, kind, name, make, side, verb):
        """A system or cosystem: `side` names the end of its equations that
        must be the declared set, `verb` says so in the error."""
        self.keyword("on")
        on_name = self._name("a set name")
        self.expect("LBRACE")
        pairs = self._list(self._equation_pair)
        self.expect("RBRACE")
        on = self.ws.get("set", on_name)
        eqs = tuple(
            Equation(self.ws.get("fun", p), self.ws.get("fun", q)) for p, q in pairs)
        value = make(FINSET_CAT, eqs)
        if getattr(value, side) != on:
            raise InvariantError(
                f"{kind} {name} is declared on {on_name} but its equations {verb} elsewhere")
        body = ", ".join(f"{p} ~ {q}" for p, q in pairs)
        return value, f"{kind} {name} on {on_name} {{ {body} }}"

    def _decl_algebra(self, name):
        self.keyword("on")
        self.expect("LBRACE")
        elems = self._list(self._element, "RBRACE")
        carrier = FinSetObj(tuple(elems))
        self.expect("LBRACE")

        def entry_key() -> tuple[str, ...]:
            self.expect("LPAREN")
            return tuple(self._list(self._element, "RPAREN"))

        def op():
            self.keyword("op")
            sym, arity = self._operation()
            self.expect("EQUALS")
            self.expect("LBRACE")
            twice = f"algebra {name}: duplicate entry for {{}} in {sym}"
            return sym, arity, self._mapping(entry_key, self._element, twice, "RBRACE")

        read = self._list(op)
        self.expect("RBRACE")
        ops = [(sym, arity) for sym, arity, _ in read]
        tables = {sym: table for sym, _, table in read}
        algebra = FiniteAlgebra(name, Signature(tuple(ops)), carrier, tables)
        parts = []
        for sym, arity in ops:
            entries = ", ".join(
                f"({','.join(key)}) -> {tables[sym][key]}"
                for key in itertools.product(carrier.elements, repeat=arity))
            parts.append(f"op {sym}/{arity} = {{{entries}}}")
        body = ", ".join(parts)
        return algebra, f"algebra {name} on {{{', '.join(elems)}}} {{ {body} }}"

    def _decl_group(self, name):
        self.expect("EQUALS")
        ref = self._name("a bundled group name")
        groups = group_corpus()
        if ref not in groups:
            raise ResolutionError(
                f"group {name}: no bundled group {ref!r} "
                f"(have {', '.join(sorted(groups))})")
        return groups[ref], f"group {name} = {ref}"

    def _operation(self) -> tuple[str, int]:
        sym = self._name("an operation name")
        self.expect("SLASH")
        return sym, self._integer("an arity")

    def _decl_theory(self, name):
        self.expect("LBRACE")
        self.keyword("sig")
        ops = self._list(self._operation)
        sig = Signature(tuple(ops))
        axioms = []
        while self.at("IDENT", "ax"):
            self.eat()
            reg: dict[str, int] = {}
            lhs = self.term("named", reg)
            self.expect("TILDE")
            rhs = self.term("named", reg)
            check_term(sig, lhs)
            check_term(sig, rhs)
            axioms.append((lhs, rhs))
        self.expect("RBRACE")
        theory = TheoryPresentation(name, sig, tuple(axioms))
        sig_txt = ", ".join(f"{s}/{a}" for s, a in ops)
        ax_txt = "".join(
            f" ax {print_term(l)} ~ {print_term(r)}" for l, r in axioms)
        return theory, f"theory {name} {{ sig {sig_txt}{ax_txt} }}"

    def _decl_thmor(self, name):
        self.expect("COLON")
        src_name = self._name("a theory name")
        self.expect("ARROW")
        tgt_name = self._name("a theory name")
        src = self.ws.get("theory", src_name)
        tgt = self.ws.get("theory", tgt_name)
        self.expect("LBRACE")
        images: dict[str, Term] = self._mapping(
            lambda: self._name("a source operation name"),
            lambda: self.term("indexed", {}),
            f"thmor {name}: {{}} mapped twice", "RBRACE")
        ordered = tuple(
            (sym, images[sym]) for sym, _ in src.signature.ops if sym in images)
        morphism = TheoryMorphismData(src, tgt, ordered + tuple(
            (sym, img) for sym, img in images.items()
            if sym not in {s for s, _ in ordered}))
        body = ", ".join(f"{sym} -> {print_term(img)}" for sym, img in morphism.images)
        return morphism, f"thmor {name} : {src_name} -> {tgt_name} {{ {body} }}"

    def _word(self) -> tuple[str, ...]:
        return tuple(self._list(lambda: self._name("an arrow name"), sep="DOT"))

    def _decl_category(self, name):
        self.expect("LBRACE")
        self.keyword("ob")
        objects = self._list(lambda: self._name("an object name"))
        generators: dict[str, tuple[str, str]] = {}
        gen_order: list[str] = []
        while self.at("IDENT", "ar"):
            self.eat()
            arrow = self._name("an arrow name")
            self.expect("COLON")
            a = self._name("an object name")
            self.expect("ARROW")
            b = self._name("an object name")
            if arrow in generators:
                raise ResolutionError(f"category {name}: duplicate arrow {arrow!r}")
            if a not in objects or b not in objects:
                raise ResolutionError(
                    f"category {name}: arrow {arrow} uses an undeclared object")
            generators[arrow] = (a, b)
            gen_order.append(arrow)
        relations: dict[tuple[str, ...], tuple[str, ...]] = {}
        rel_order: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
        while self.at("IDENT", "rel"):
            self.eat()
            lhs = self._word()
            self.expect("EQUALS")
            if self.at("IDENT", "id"):
                self.eat()
                rhs: tuple[str, ...] = ()
            else:
                rhs = self._word()
            for part in lhs + rhs:
                if part not in generators:
                    raise ResolutionError(
                        f"category {name}: relation uses unknown arrow {part!r}")
            relations[lhs] = rhs
            rel_order.append((lhs, rhs))
        self.expect("RBRACE")
        C = cats.category_from_generators(name, objects, generators, relations)
        self.ws.cat_generators[name] = tuple(gen_order)
        parts = ["ob " + ", ".join(objects)]
        for arrow in gen_order:
            a, b = generators[arrow]
            parts.append(f"ar {arrow} : {a} -> {b}")
        for lhs, rhs in rel_order:
            parts.append(f"rel {'.'.join(lhs)} = {'.'.join(rhs) if rhs else 'id'}")
        return C, f"category {name} {{ {' '.join(parts)} }}"

    def _decl_functor(self, name):
        self.expect("COLON")
        src_name = self._name("a category name")
        self.expect("ARROW")
        tgt_name = self._name("a category name")
        C = self.ws.get("category", src_name)
        D = self.ws.get("category", tgt_name)
        self.expect("LBRACE")
        self.keyword("ob")

        def obj():
            return self._name("an object name")

        obj_map = self._mapping(obj, obj, f"functor {name}: object {{}} mapped twice")
        ar_map: dict[str, str] = {}
        if self.at("IDENT", "ar"):
            self.eat()
            ar_map = self._mapping(
                lambda: self._name("an arrow name"),
                lambda: self._name("a target morphism name"),
                f"functor {name}: arrow {{}} mapped twice")
        self.expect("RBRACE")
        F = self._complete_functor(name, src_name, C, D, obj_map, ar_map)
        gens = self.ws.cat_generators.get(src_name, ())
        parts = ["ob " + ", ".join(f"{a} -> {obj_map[a]}" for a in C.objects)]
        if gens:
            parts.append("ar " + ", ".join(f"{g} -> {ar_map[g]}" for g in gens))
        return F, f"functor {name} : {src_name} -> {tgt_name} {{ {' '.join(parts)} }}"

    def _complete_functor(self, name, src_name, C, D, obj_map, ar_map):
        for x in C.objects:
            if x not in obj_map:
                raise ResolutionError(f"functor {name}: no image for object {x!r}")
            if obj_map[x] not in D.objects:
                raise ResolutionError(
                    f"functor {name}: image {obj_map[x]!r} is not an object of {D.name}")
        gens = self.ws.cat_generators.get(src_name, ())
        for g in gens:
            if g not in ar_map:
                raise ResolutionError(f"functor {name}: no image for arrow {g!r}")
        for g, img in ar_map.items():
            if g not in gens:
                raise ResolutionError(f"functor {name}: {g!r} is not a generating arrow")
            if img not in D.morphisms:
                raise ResolutionError(
                    f"functor {name}: image {img!r} is not a morphism of {D.name}")
        mor_map: dict[str, str] = {}
        for m in C.morphisms:
            if m.startswith("id_") and m[3:] in C.objects:
                mor_map[m] = D.ids[obj_map[m[3:]]]
                continue
            if "@" in m:
                raise ResolutionError(
                    f"functor {name}: composite {m!r} is ambiguous, rename the arrows")
            parts = m.split(".")
            for p in parts:
                if p not in ar_map:
                    raise ResolutionError(f"functor {name}: no image for arrow {p!r}")
            cur = ar_map[parts[-1]]
            for p in reversed(parts[:-1]):
                cur = D.comp[(ar_map[p], cur)]
            mor_map[m] = cur
        return cats.FunctorData(C, D, dict(obj_map), mor_map)

    def _decl_adjunction(self, name):
        self.expect("EQUALS")
        self.expect("LPAREN")
        left_name = self._name("a functor name")
        self.expect("COMMA")
        right_name = self._name("a functor name")
        self.expect("RPAREN")
        L = self.ws.get("functor", left_name)
        R = self.ws.get("functor", right_name)
        C, D = L.source, L.target
        if R.source != D or R.target != C:
            raise ResolutionError(
                f"adjunction {name}: {right_name} must run opposite to {left_name}")
        for cat in (C, D):
            for x in cat.objects:
                for y in cat.objects:
                    if len(cat.hom(x, y)) > 1:
                        raise InvariantError(
                            f"adjunction {name}: unit and counit are only derivable "
                            f"for thin categories, {cat.name} is not thin")
        unit_parts: dict[str, str] = {}
        for x in C.objects:
            hom = C.hom(x, R.obj_map[L.obj_map[x]])
            if not hom:
                raise InvariantError(
                    f"adjunction {name}: no unit component at {x}, not an adjunction")
            unit_parts[x] = hom[0]
        counit_parts: dict[str, str] = {}
        for y in D.objects:
            hom = D.hom(L.obj_map[R.obj_map[y]], y)
            if not hom:
                raise InvariantError(
                    f"adjunction {name}: no counit component at {y}, not an adjunction")
            counit_parts[y] = hom[0]
        unit = cats.NatTransData(
            cats.identity_functor(C), cats.compose_functors(R, L), unit_parts)
        counit = cats.NatTransData(
            cats.compose_functors(L, R), cats.identity_functor(D), counit_parts)
        adj = cats.AdjunctionData(L, R, unit, counit)
        return adj, f"adjunction {name} = ({left_name}, {right_name})"

    def _decl_series(self, name):
        self.expect("EQUALS")
        if self.at("LBRACK"):
            self.eat()
            coeffs = self._rational_list(("RBRACK",))
            self.expect("RBRACK")
            value = series(coeffs)
            body = "[" + ", ".join(str(c) for c in coeffs) + "]"
            return value, f"series {name} = {body}"
        form = self._name("one of rec, ratio, or a coefficient list")
        if form not in ("rec", "ratio"):
            self.fail("one of rec, ratio, or a coefficient list")
        self.expect("LPAREN")
        first = self._rational_list(("SEMI",))
        self.expect("SEMI")
        second = self._rational_list(("RPAREN",))
        self.expect("RPAREN")
        self.keyword("prec")
        prec = self._integer("a precision")
        if form == "rec":
            value = from_recurrence(first, second, prec)
        else:
            value = from_ratio(first, second, prec)
        body = (
            f"{form}({', '.join(str(c) for c in first)}; "
            f"{', '.join(str(c) for c in second)}) prec {prec}")
        return value, f"series {name} = {body}"


def parse(source: str, where: str = "<input>", into: Workspace | None = None) -> Workspace:
    ws = into if into is not None else Workspace()
    parser = _Parser(tokenize(source, where), ws, where)
    parser.file()
    return ws


def parse_files(paths) -> Workspace:
    ws = Workspace()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            parse(fh.read(), where=str(path), into=ws)
    return ws


# --- term literals for command arguments ------------------------------------


def parse_term_texts(texts, sig: Signature | None = None):
    """Parse standalone term literals sharing one variable registry.

    Returns the terms plus the variable names in index order, for printing
    substitutions with the caller's own names.
    """
    reg: dict[str, int] = {}
    terms = []
    for text in texts:
        p = _Parser(tokenize(text, "<term>"), Workspace(), "<term>")
        t = p.term("named", reg)
        p.expect("EOF", expected="end of term")
        if sig is not None:
            check_term(sig, t)
        terms.append(t)
    names = [None] * len(reg)
    for n, i in reg.items():
        names[i] = n
    return terms, names


def parse_axiom_text(text: str, sig: Signature):
    """Parse one "lhs ~ rhs" pair against a signature."""
    p = _Parser(tokenize(text, "<axiom>"), Workspace(), "<axiom>")
    reg: dict[str, int] = {}
    lhs = p.term("named", reg)
    p.expect("TILDE", expected="~")
    rhs = p.term("named", reg)
    p.expect("EOF", expected="end of axiom")
    check_term(sig, lhs)
    check_term(sig, rhs)
    return lhs, rhs
