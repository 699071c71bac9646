"""The character-by-character tokenizer and the hand-written list loops that
veq.dsl replaced, kept as oracles.

veq.dsl now scans each line with one compiled pattern. This is the earlier
loop, unchanged apart from its name and its own copy of the punctuation
table. It read a number as any run of characters that `str.isdigit` accepts,
so a non-ASCII digit such as '²' or '٣' became part of a NUMBER token; the
new scanner takes ASCII digits only and reports such a character as
unexpected. That is the one place the two differ.

`OracleParser` keeps the parser's earlier list readers: each list had its own
separator loop, empty-list rule and duplicate-key check, and systems and
cosystems had a declaration reader each. veq.dsl now reads every list through
`_Parser._list` and `_mapping`. The subclass brings back only those
readers, `_element_list` and `_equation_pairs` among them, unchanged apart
from their home; tests/test_dsl.py checks that it accepts, prints and
rejects exactly what veq.dsl does.
"""

import itertools
from fractions import Fraction

from veq import cats
from veq.algebras import FiniteAlgebra
from veq.dsl import FINSET_CAT, Token, _Parser
from veq.equations import CoEquationSystem, Equation, EquationSystem
from veq.errors import InvariantError, ParseError, ResolutionError
from veq.finset import FinSetObj, fin_function
from veq.theories import (
    Signature,
    Term,
    TheoryMorphismData,
    TheoryPresentation,
    check_term,
    print_term,
)

_SINGLE = {
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACK", "]": "RBRACK", ",": "COMMA", ";": "SEMI",
    ":": "COLON", "=": "EQUALS", "~": "TILDE", "/": "SLASH", ".": "DOT",
}


def oracle_tokenize(src: str, where: str = "<input>") -> list[Token]:
    out = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if src.startswith("->", i):
            out.append(Token("ARROW", "->", line, col))
            i += 2
            col += 2
            continue
        if ch == "-" and i + 1 < n and src[i + 1].isdigit():
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("NUMBER", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            out.append(Token("NUMBER", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(Token("IDENT", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SINGLE:
            out.append(Token(_SINGLE[ch], ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"{where}: unexpected character {ch!r}", line, col)
    out.append(Token("EOF", "", line, col))
    return out


class OracleParser(_Parser):
    """veq.dsl's parser with the list readers it had before `_list`."""

    def _element_list(self, closing: str) -> list[str]:
        out = []
        if not self.at(closing):
            out.append(self._element())
            while self.at("COMMA"):
                self.eat()
                out.append(self._element())
        self.expect(closing)
        return out

    def _rational_list(self, stop_kinds: tuple[str, ...]) -> list[Fraction]:
        out = [self._rational()]
        while self.at("COMMA"):
            self.eat()
            out.append(self._rational())
        if self.peek().kind not in stop_kinds:
            self.fail(" or ".join(k.lower() for k in stop_kinds))
        return out

    def _decl_fun(self, name):
        self.expect("COLON")
        dom_name = self._name("a set name")
        self.expect("ARROW")
        cod_name = self._name("a set name")
        self.expect("EQUALS")
        self.expect("LBRACE")
        mapping: dict[str, str] = {}
        if not self.at("RBRACE"):
            while True:
                k = self._element()
                self.expect("ARROW")
                v = self._element()
                if k in mapping:
                    raise ResolutionError(f"fun {name}: {k!r} mapped twice")
                mapping[k] = v
                if not self.at("COMMA"):
                    break
                self.eat()
        self.expect("RBRACE")
        dom = self.ws.get("set", dom_name)
        cod = self.ws.get("set", cod_name)
        f = fin_function(dom, cod, mapping)
        body = ", ".join(f"{x} -> {f(x)}" for x in dom.elements)
        return f, f"fun {name} : {dom_name} -> {cod_name} = {{{body}}}"

    def _equation_pairs(self):
        pairs = []
        self.expect("LBRACE")
        while True:
            lhs = self._name("a function name")
            self.expect("TILDE")
            rhs = self._name("a function name")
            pairs.append((lhs, rhs))
            if not self.at("COMMA"):
                break
            self.eat()
        self.expect("RBRACE")
        return pairs

    def _decl_system(self, name):
        self.keyword("on")
        on_name = self._name("a set name")
        pairs = self._equation_pairs()
        on = self.ws.get("set", on_name)
        eqs = tuple(
            Equation(self.ws.get("fun", p), self.ws.get("fun", q)) for p, q in pairs)
        system = EquationSystem(FINSET_CAT, eqs)
        if system.domain != on:
            raise InvariantError(
                f"system {name} is declared on {on_name} but its equations start elsewhere")
        body = ", ".join(f"{p} ~ {q}" for p, q in pairs)
        return system, f"system {name} on {on_name} {{ {body} }}"

    def _decl_cosystem(self, name):
        self.keyword("on")
        on_name = self._name("a set name")
        pairs = self._equation_pairs()
        on = self.ws.get("set", on_name)
        eqs = tuple(
            Equation(self.ws.get("fun", p), self.ws.get("fun", q)) for p, q in pairs)
        cosystem = CoEquationSystem(FINSET_CAT, eqs)
        if cosystem.codomain != on:
            raise InvariantError(
                f"cosystem {name} is declared on {on_name} but its equations end elsewhere")
        body = ", ".join(f"{p} ~ {q}" for p, q in pairs)
        return cosystem, f"cosystem {name} on {on_name} {{ {body} }}"

    def _decl_algebra(self, name):
        self.keyword("on")
        self.expect("LBRACE")
        elems = self._element_list("RBRACE")
        carrier = FinSetObj(tuple(elems))
        self.expect("LBRACE")
        ops: list[tuple[str, int]] = []
        tables: dict[str, dict[tuple[str, ...], str]] = {}
        while True:
            self.keyword("op")
            sym = self._name("an operation name")
            self.expect("SLASH")
            arity = self._integer("an arity")
            self.expect("EQUALS")
            self.expect("LBRACE")
            table: dict[tuple[str, ...], str] = {}
            if not self.at("RBRACE"):
                while True:
                    self.expect("LPAREN")
                    key = tuple(self._element_list("RPAREN"))
                    self.expect("ARROW")
                    out = self._element()
                    if key in table:
                        raise ResolutionError(
                            f"algebra {name}: duplicate entry for {key} in {sym}")
                    table[key] = out
                    if not self.at("COMMA"):
                        break
                    self.eat()
            self.expect("RBRACE")
            ops.append((sym, arity))
            tables[sym] = table
            if not self.at("COMMA"):
                break
            self.eat()
        self.expect("RBRACE")
        algebra = FiniteAlgebra(name, Signature(tuple(ops)), carrier, tables)
        parts = []
        for sym, arity in ops:
            entries = ", ".join(
                f"({','.join(key)}) -> {tables[sym][key]}"
                for key in itertools.product(carrier.elements, repeat=arity))
            parts.append(f"op {sym}/{arity} = {{{entries}}}")
        body = ", ".join(parts)
        return algebra, f"algebra {name} on {{{', '.join(elems)}}} {{ {body} }}"

    def _decl_theory(self, name):
        self.expect("LBRACE")
        self.keyword("sig")
        ops = []
        while True:
            sym = self._name("an operation name")
            self.expect("SLASH")
            arity = self._integer("an arity")
            ops.append((sym, arity))
            if not self.at("COMMA"):
                break
            self.eat()
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
        images: dict[str, Term] = {}
        if not self.at("RBRACE"):
            while True:
                sym = self._name("a source operation name")
                self.expect("ARROW")
                img = self.term("indexed", {})
                if sym in images:
                    raise ResolutionError(f"thmor {name}: {sym!r} mapped twice")
                images[sym] = img
                if not self.at("COMMA"):
                    break
                self.eat()
        self.expect("RBRACE")
        ordered = tuple(
            (sym, images[sym]) for sym, _ in src.signature.ops if sym in images)
        morphism = TheoryMorphismData(src, tgt, ordered + tuple(
            (sym, img) for sym, img in images.items()
            if sym not in {s for s, _ in ordered}))
        body = ", ".join(f"{sym} -> {print_term(img)}" for sym, img in morphism.images)
        return morphism, f"thmor {name} : {src_name} -> {tgt_name} {{ {body} }}"

    def _word(self) -> tuple[str, ...]:
        parts = [self._name("an arrow name")]
        while self.at("DOT"):
            self.eat()
            parts.append(self._name("an arrow name"))
        return tuple(parts)

    def _decl_category(self, name):
        self.expect("LBRACE")
        self.keyword("ob")
        objects = [self._name("an object name")]
        while self.at("COMMA"):
            self.eat()
            objects.append(self._name("an object name"))
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
        obj_map: dict[str, str] = {}
        while True:
            a = self._name("an object name")
            self.expect("ARROW")
            b = self._name("an object name")
            if a in obj_map:
                raise ResolutionError(f"functor {name}: object {a!r} mapped twice")
            obj_map[a] = b
            if not self.at("COMMA"):
                break
            self.eat()
        ar_map: dict[str, str] = {}
        if self.at("IDENT", "ar"):
            self.eat()
            while True:
                f = self._name("an arrow name")
                self.expect("ARROW")
                g = self._name("a target morphism name")
                if f in ar_map:
                    raise ResolutionError(f"functor {name}: arrow {f!r} mapped twice")
                ar_map[f] = g
                if not self.at("COMMA"):
                    break
                self.eat()
        self.expect("RBRACE")
        F = self._complete_functor(name, src_name, C, D, obj_map, ar_map)
        gens = self.ws.cat_generators.get(src_name, ())
        parts = ["ob " + ", ".join(f"{a} -> {obj_map[a]}" for a in C.objects)]
        if gens:
            parts.append("ar " + ", ".join(f"{g} -> {ar_map[g]}" for g in gens))
        return F, f"functor {name} : {src_name} -> {tgt_name} {{ {' '.join(parts)} }}"
