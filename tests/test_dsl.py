import glob
import os
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_manifest import GOLDEN_COMMANDS
from dsl_oracle import OracleParser, oracle_tokenize
from veq import cli, series
from veq.dsl import (
    Token,
    Workspace,
    _Parser,
    parse,
    parse_axiom_text,
    parse_files,
    parse_term_texts,
    print_workspace,
    tokenize,
)
from veq.errors import (
    InvariantError,
    ParseError,
    ResolutionError,
    SignatureMismatch,
)
from veq.theories import print_term

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = sorted(glob.glob(os.path.join(ROOT, "corpus", "*.veq")))


def test_corpus_present():
    assert len(CORPUS) == 6


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_corpus_round_trip(path):
    with open(path) as fh:
        src = fh.read()
    ws = parse(src, where=path)
    printed = print_workspace(ws)
    again = parse(printed, where="<printed>")
    assert again == ws
    assert print_workspace(again) == printed


def test_separators_and_comments_are_immaterial():
    a = parse("set A = {a, b}\nfun f : A -> A = {a -> b, b -> a}\n")
    b = parse("# heading\nset A = {a, b}; fun f : A -> A = {a -> b, b -> a}")
    assert a == b


def test_parse_error_position_unexpected_character():
    with pytest.raises(ParseError) as exc:
        parse("set A = {a!}\n")
    assert exc.value.line == 1
    assert exc.value.column == 11
    assert "unexpected character" in str(exc.value)


def test_parse_error_expected_token():
    with pytest.raises(ParseError) as exc:
        parse("set A = a, b}\n")
    assert "expected" in str(exc.value)
    assert "found 'a'" in str(exc.value)


def test_parse_error_end_of_input():
    with pytest.raises(ParseError) as exc:
        parse("set A = {a, b\n")
    assert "end of input" in str(exc.value)


def test_parse_error_unknown_declaration():
    with pytest.raises(ParseError) as exc:
        parse("widget W = {}\n")
    assert "widget" in str(exc.value)


def test_dangling_reference():
    with pytest.raises(ResolutionError) as exc:
        parse("set A = {a}\nfun p : A -> B = {a -> a}\n")
    assert "undefined set 'B'" in str(exc.value)


def test_duplicate_name_same_kind():
    with pytest.raises(ResolutionError) as exc:
        parse("set A = {a}\nset A = {b}\n")
    assert "duplicate set 'A'" in str(exc.value)


def test_same_name_different_kinds_is_fine():
    ws = parse("set A = {a}\nfun A : A -> A = {a -> a}\n")
    assert ws.get("set", "A").elements == ("a",)
    assert ws.get("fun", "A")("a") == "a"


def test_fun_total_and_in_codomain():
    with pytest.raises(InvariantError):
        parse("set A = {a, b}\nset B = {x}\nfun p : A -> B = {a -> x}\n")
    with pytest.raises(InvariantError) as exc:
        parse("set A = {a}\nset B = {x}\nfun p : A -> B = {a -> zzz}\n")
    assert "not in codomain" in str(exc.value)


def test_system_must_be_parallel():
    src = (
        "set A = {a}\nset B = {x}\n"
        "fun p : A -> B = {a -> x}\n"
        "fun q : B -> A = {x -> a}\n"
        "system E on A { p ~ q }\n"
    )
    with pytest.raises(InvariantError) as exc:
        parse(src)
    assert str(exc.value).startswith("system E:")


def test_system_on_wrong_set():
    src = (
        "set A = {a}\nset B = {x}\n"
        "fun p : A -> B = {a -> x}\n"
        "system E on B { p ~ p }\n"
    )
    with pytest.raises(InvariantError) as exc:
        parse(src)
    assert "declared on B" in str(exc.value)


def test_algebra_table_must_be_total():
    src = "algebra M on {0, 1} { op mul/2 = {(0,0) -> 0} }\n"
    with pytest.raises(InvariantError):
        parse(src)


def test_unknown_bundled_group():
    with pytest.raises(ResolutionError) as exc:
        parse("group G = NoSuch\n")
    assert "no bundled group" in str(exc.value)


def test_adjunction_requires_thin_categories():
    src = (
        "category C2 { ob a, b ar f : a -> b ar g : a -> b }\n"
        "functor I : C2 -> C2 { ob a -> a, b -> b ar f -> f, g -> g }\n"
        "adjunction X = (I, I)\n"
    )
    with pytest.raises(InvariantError) as exc:
        parse(src)
    assert "thin" in str(exc.value)


def test_adjunction_endpoints_checked():
    src = (
        "category P1 { ob z }\n"
        "category P2 { ob a, b ar f : a -> b }\n"
        "functor Bang : P2 -> P1 { ob a -> z, b -> z ar f -> id_z }\n"
        "functor IdOne : P1 -> P1 { ob z -> z }\n"
        "adjunction X = (Bang, IdOne)\n"
    )
    with pytest.raises(ResolutionError) as exc:
        parse(src)
    assert "opposite" in str(exc.value)


def test_functor_must_cover_generators():
    src = (
        "category P2 { ob a, b ar f : a -> b }\n"
        "category P1 { ob z }\n"
        "functor F : P2 -> P1 { ob a -> z, b -> z }\n"
    )
    with pytest.raises(ResolutionError) as exc:
        parse(src)
    assert "no image for arrow 'f'" in str(exc.value)


def test_term_variable_convention():
    terms, names = parse_term_texts(["f(x, a, u9, zz)"])
    assert names == ["x", "u9"]
    assert print_term(terms[0]) == "f(x0,a,x1,zz)"


def test_term_registry_shared_across_texts():
    terms, names = parse_term_texts(["f(x,y)", "g(y,x)"])
    assert names == ["x", "y"]
    assert print_term(terms[0]) == "f(x0,x1)"
    assert print_term(terms[1]) == "g(x1,x0)"


def test_axiom_text_checked_against_signature():
    ws = parse("theory Mon { sig m/2, e/0 ax m(m(x,y),z) ~ m(x,m(y,z)) }\n")
    T = ws.get("theory", "Mon")
    lhs, rhs = parse_axiom_text("m(x,y) ~ m(y,x)", T.signature)
    assert print_term(lhs) == "m(x0,x1)"
    assert print_term(rhs) == "m(x1,x0)"
    with pytest.raises(SignatureMismatch):
        parse_axiom_text("nope(x) ~ x", T.signature)


def test_theory_axiom_printing_is_fixed_point():
    src = "theory T { sig m/2 ax m(y,x) ~ m(x,y) }\n"
    printed = print_workspace(parse(src))
    assert "m(x0,x1) ~ m(x1,x0)" in printed
    assert print_workspace(parse(printed)) == printed


def test_series_decls_match_constructors():
    ws = parse(
        "series fib = rec(0, 1; 1, 1) prec 10\n"
        "series geo = ratio(1; 1, -1) prec 6\n"
        "series lit = [1, 1/2, -2/3]\n"
    )
    assert ws.get("series", "fib") == series.from_recurrence([0, 1], [1, 1], 10)
    assert ws.get("series", "geo") == series.from_ratio([1], [1, -1], 6)
    assert ws.get("series", "lit").coeffs == (
        Fraction(1), Fraction(1, 2), Fraction(-2, 3))


def test_parse_files_merges_and_cross_references(tmp_path):
    first = tmp_path / "one.veq"
    second = tmp_path / "two.veq"
    first.write_text("set A = {a, b}\n")
    second.write_text("fun f : A -> A = {a -> b, b -> a}\n")
    ws = parse_files([str(first), str(second)])
    assert ws.get("fun", "f")("a") == "b"


def test_parse_into_accumulates():
    ws = Workspace()
    parse("set A = {a}\n", into=ws)
    parse("fun f : A -> A = {a -> a}\n", into=ws)
    assert [kind for kind, _ in ws.order] == ["set", "fun"]


def test_print_workspace_ends_with_newline():
    ws = parse("set A = {a}\n")
    out = print_workspace(ws)
    assert out.endswith("\n")
    assert not out.endswith("\n\n")


# --- the one-pattern scanner against the character loop it replaced ---------

WHERE = "<src>"


def _scan(tokenizer, src):
    try:
        return [tuple(t) for t in tokenizer(src, WHERE)]
    except ParseError as e:
        return (str(e), e.line, e.column)


def _oracle_tokens_and_error(src):
    """Every token the old tokenizer read, and its ParseError or None."""
    try:
        return [tuple(t) for t in oracle_tokenize(src, WHERE)], None
    except ParseError as e:
        # the error stands at a token start with no comment before it on its
        # line, so the source up to it tokenizes to the tokens read so far
        lines = src.split("\n")
        offset = sum(len(text) + 1 for text in lines[:e.line - 1]) + e.column - 1
        return oracle_tokenize(src[:offset], WHERE)[:-1], (str(e), e.line, e.column)


def _expected_scan(src):
    """The old tokenizer's answer, except where it read a non-ASCII digit
    into a number: the new scanner stops there, at the first character of
    that token that is neither an ASCII digit nor a leading '-' before one."""
    tokens, error = _oracle_tokens_and_error(src)
    for kind, text, line, col in tokens:
        if kind == "NUMBER" and not re.fullmatch(r"-?[0-9]+", text):
            ascii_part = re.match(r"-?[0-9]+", text)
            k = ascii_part.end() if ascii_part else 0
            e = ParseError(f"{WHERE}: unexpected character {text[k]!r}", line, col + k)
            return (str(e), e.line, e.column)
    return error if error is not None else [tuple(t) for t in tokens]


# Token characters and runs, blanks, comments, '-' and '->', and letters and
# digits outside ASCII: '²' and '٣' are digits to `str.isdigit`, '½', '〇' and
# 'Ⅻ' are numeric but not letters, 'ǅ' is a title-case letter.
FRAGMENTS = [
    "a", "Mon", "x0", "_t", "b_2", "0", "17", "007", "-", "->", "-3", "--", "-x",
    " ", "  ", "\t", "\r", "\n", "\n\n", "#", "# note -> 1", "{", "}", "(", ")",
    "[", "]", ",", ";", ":", "=", "~", "/", ".", "!", "@", ">", "\\", "é", "ß",
    "Ж", "ǅ", "²", "٣", "½", "〇", "Ⅻ", "x²", "a٣", "1²", "-٣", "\u00a0", "\x0b",
]
SOURCES = st.one_of(
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet="".join(sorted(set("".join(FRAGMENTS)))), max_size=40),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(SOURCES)
def test_tokenize_matches_character_loop_oracle(src):
    assert _scan(tokenize, src) == _expected_scan(src)


def test_expected_scan_reads_non_ascii_digits_where_the_oracle_did():
    # the exception in the differential test, spelled out
    assert _scan(oracle_tokenize, "1²")[0] == ("NUMBER", "1²", 1, 1)
    assert _expected_scan("a 1²") == _scan(tokenize, "a 1²") == (
        "1:4: <src>: unexpected character '²'", 1, 4)
    assert _expected_scan("-٣") == _scan(tokenize, "-٣") == (
        "1:1: <src>: unexpected character '-'", 1, 1)
    assert _expected_scan("x ²") == _scan(tokenize, "x ²") == (
        "1:3: <src>: unexpected character '²'", 1, 3)


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_tokenize_matches_oracle_on_corpus(path):
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    got = _scan(tokenize, src)
    assert isinstance(got, list) and got == _expected_scan(src)


def test_tokenize_matches_oracle_on_manifest_arguments():
    texts = sorted({arg for _, argv, _ in GOLDEN_COMMANDS for arg in argv})
    assert "m(x,y) ~ m(y,x)" in texts and "f(x,b)" in texts
    for text in texts:
        assert _scan(tokenize, text) == _expected_scan(text), text


def test_tokens_are_tuples_with_named_fields():
    first, eof = tokenize("set # c")[0], tokenize("set # c")[-1]
    assert first == Token("IDENT", "set", 1, 1) == ("IDENT", "set", 1, 1)
    assert (first.kind, first.text, first.line, first.col) == ("IDENT", "set", 1, 1)
    assert eof == ("EOF", "", 1, 5)


# --- number literals ---------------------------------------------------------


def _parse_error(src):
    with pytest.raises(ParseError) as exc:
        parse(src)
    return str(exc.value), exc.value.line, exc.value.column


def test_non_ascii_digit_is_an_unexpected_character():
    assert _parse_error("series s = [1, ²]\n") == (
        "1:16: <input>: unexpected character '²'", 1, 16)
    assert _parse_error("set A = {٣}\n") == (
        "1:10: <input>: unexpected character '٣'", 1, 10)
    assert _parse_error("series s = [1, 2٣]\n") == (
        "1:17: <input>: unexpected character '٣'", 1, 17)
    # letters and digits outside ASCII still continue an identifier
    assert parse("set A = {x², é٣}\n").get("set", "A").elements == ("x²", "é٣")


@pytest.fixture
def int_digit_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("template,col", [
    ("series s = [1, {n}]", 16),
    ("series s = [1, -{n}]", 16),
    ("series s = [1/{n}]", 15),
    ("series s = rec(1; 1) prec {n}", 27),
    ("algebra A on {{a}} {{ op f/{n} = {{}} }}", 25),
], ids=["element", "negative", "denominator", "precision", "arity"])
def test_number_past_the_int_limit_is_a_parse_error(int_digit_limit, template, col):
    src = "set A = {a}\n" + template.format(n="9" * (int_digit_limit + 1)) + "\n"
    message, line, column = _parse_error(src)
    assert (line, column) == (2, col)
    assert message == (
        f"2:{col}: <input>: number too long ({int_digit_limit + 1} digits, "
        f"at most {int_digit_limit})")
    # at the limit the number is read
    assert parse("series s = [" + "9" * int_digit_limit + "]\n")


def test_zero_denominator_is_a_parse_error():
    assert _parse_error("series s = [1, 2/0]\n") == (
        "1:18: <input>: zero denominator", 1, 18)


def test_variable_index_past_the_int_limit_is_a_parse_error(int_digit_limit):
    src = ("theory T { sig m/2 }\n"
           f"thmor s : T -> T {{ m -> m(x{'1' * (int_digit_limit + 1)}, x0) }}\n")
    assert _parse_error(src) == (
        "2:27: <input>: variable index too long", 2, 27)


@pytest.mark.parametrize("text", [
    "series s = [1, ²]",
    "series s = [1, {big}]",
    "series s = [1/0]",
], ids=["non-ascii-digit", "past-int-limit", "zero-denominator"])
def test_malformed_number_exits_2(int_digit_limit, tmp_path, capsys, text):
    path = tmp_path / "bad.veq"
    path.write_text(text.format(big="7" * (int_digit_limit + 1)) + "\n", encoding="utf-8")
    code = cli.main(["check", "--json", "-f", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("veq: 1:")
    assert captured.err.count("\n") == 1


# --- lists: empty-list rules, duplicate keys, relations ----------------------


@pytest.mark.parametrize("src,message", [
    ("set A = {a}\nfun f : A -> A = {a -> a, a -> a}\n",
     "fun f: 'a' mapped twice"),
    ("theory T { sig m/2 }\nthmor h : T -> T { m -> m(x0,x1), m -> m(x1,x0) }\n",
     "thmor h: 'm' mapped twice"),
    ("category P { ob a }\nfunctor F : P -> P { ob a -> a, a -> a }\n",
     "functor F: object 'a' mapped twice"),
    ("category P2 { ob a, b ar f : a -> b }\n"
     "functor F : P2 -> P2 { ob a -> a, b -> b ar f -> f, f -> f }\n",
     "functor F: arrow 'f' mapped twice"),
    ("algebra M on {0} { op e/1 = {(0) -> 0, (0) -> 0} }\n",
     "algebra M: duplicate entry for ('0',) in e"),
    ("algebra M on {0, 1} { op m/2 = {(0,1) -> 0, (0, 1) -> 1} }\n",
     "algebra M: duplicate entry for ('0', '1') in m"),
], ids=["fun", "thmor", "functor-object", "functor-arrow", "algebra-unary", "algebra-binary"])
def test_a_key_read_twice_is_a_resolution_error(src, message):
    with pytest.raises(ResolutionError) as exc:
        parse(src)
    assert str(exc.value) == message


def test_a_repeated_key_is_reported_after_its_pair_is_read():
    assert _parse_error("set A = {a}\nfun f : A -> A = {a -> a, a -> }\n") == (
        "2:32: <input>: expected an element label, found '}'", 2, 32)


@pytest.mark.parametrize("src", [
    "set E = {}\n",
    "set E = {}\nfun f : E -> E = {}\n",
    "algebra E on {} { op c/1 = {} }\n",
], ids=["set", "fun", "algebra-table"])
def test_lists_that_may_be_empty(src):
    assert print_workspace(parse(src)) == src


def test_an_empty_theory_morphism_is_read_and_then_checked():
    with pytest.raises(InvariantError) as exc:
        parse("theory T { sig e/0 }\nthmor h : T -> T {}\n")
    assert str(exc.value) == "thmor h: morphism misses image for 'e'"


@pytest.mark.parametrize("src,expected", [
    ("set A = {a}\nsystem E on A { }\n",
     ("2:17: <input>: expected a function name, found '}'", 2, 17)),
    ("set A = {a}\ncosystem D on A {}\n",
     ("2:18: <input>: expected a function name, found '}'", 2, 18)),
    ("theory T { sig }\n",
     ("1:16: <input>: expected an operation name, found '}'", 1, 16)),
    ("category C { ob }\n",
     ("1:17: <input>: expected an object name, found '}'", 1, 17)),
    ("category P { ob a }\nfunctor F : P -> P { ob }\n",
     ("2:25: <input>: expected an object name, found '}'", 2, 25)),
    ("category P { ob a }\nfunctor F : P -> P { ob a -> a ar }\n",
     ("2:35: <input>: expected an arrow name, found '}'", 2, 35)),
    ("algebra M on {0} { }\n",
     ("1:20: <input>: expected keyword 'op', found '}'", 1, 20)),
], ids=["system", "cosystem", "signature", "category-objects", "functor-objects",
        "functor-arrows", "algebra-ops"])
def test_lists_that_must_not_be_empty(src, expected):
    assert _parse_error(src) == expected


@pytest.mark.parametrize("src,message", [
    ("set A = {a}\nset B = {x}\nfun p : A -> B = {a -> x}\nsystem E on B { p ~ p }\n",
     "system E: system E is declared on B but its equations start elsewhere"),
    ("set A = {a}\nset B = {x}\nfun p : A -> B = {a -> x}\ncosystem D on A { p ~ p }\n",
     "cosystem D: cosystem D is declared on A but its equations end elsewhere"),
], ids=["system", "cosystem"])
def test_equations_must_meet_the_declared_set(src, message):
    with pytest.raises(InvariantError) as exc:
        parse(src)
    assert str(exc.value) == message


@pytest.mark.parametrize("src,arrows", [
    ("category Z3 { ob x ar t : x -> x rel t.t.t = id }\n", ("id_x", "t", "t.t")),
    ("category Sq { ob a, b, c, d ar f : a -> b ar g : b -> d ar h : a -> c "
     "ar k : c -> d rel g.f = k.h }\n",
     ("f", "g", "h", "id_a", "id_b", "id_c", "id_d", "k", "k.h")),
], ids=["cyclic", "commuting-square"])
def test_relations_round_trip(src, arrows):
    ws = parse(src)
    assert print_workspace(ws) == src
    assert parse(print_workspace(ws)) == ws
    (_, name), = ws.order
    assert ws.get("category", name).morphisms == arrows


@pytest.mark.parametrize("rel", ["t.u = id", "t = u.t"], ids=["left", "right"])
def test_a_relation_over_an_unknown_arrow_is_a_resolution_error(rel):
    with pytest.raises(ResolutionError) as exc:
        parse(f"category Z3 {{ ob x ar t : x -> x rel {rel} }}\n")
    assert str(exc.value) == "category Z3: relation uses unknown arrow 'u'"


def test_a_word_cannot_end_in_a_dot():
    assert _parse_error("category Z3 { ob x ar t : x -> x rel t. = id }\n") == (
        "1:41: <input>: expected an arrow name, found '='", 1, 41)


# --- the list readers against the loops they replaced --------------------------

# replacement tokens: every punctuation kind, keywords, a label and numbers
_PALETTE = (
    ("COMMA", ","), ("ARROW", "->"), ("LBRACE", "{"), ("RBRACE", "}"),
    ("LPAREN", "("), ("RPAREN", ")"), ("LBRACK", "["), ("RBRACK", "]"),
    ("DOT", "."), ("TILDE", "~"), ("SLASH", "/"), ("EQUALS", "="), ("SEMI", ";"),
    ("COLON", ":"), ("IDENT", "a"), ("IDENT", "ob"), ("IDENT", "ar"),
    ("IDENT", "id"), ("NUMBER", "0"), ("NUMBER", "-1"),
)
_OPEN, _CLOSE = ("LBRACE", "LPAREN", "LBRACK"), ("RBRACE", "RPAREN", "RBRACK")
_MUTATIONS_PER_FILE = 500


def _entry_start(tokens, sep):
    """Where the list entry that ends at the separator `tokens[sep]` starts:
    after the nearest enclosing bracket, separator or list keyword."""
    depth, j = 0, sep - 1
    while j >= 0:
        kind = tokens[j].kind
        if kind in _CLOSE:
            depth += 1
        elif kind in _OPEN:
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and (
                kind in ("COMMA", "DOT", "SEMI") or tokens[j].text in ("ob", "ar", "sig")):
            break
        j -= 1
    return j + 1


def _mutate(tokens, rng):
    """Drop, duplicate or replace one token, or repeat one list entry; the
    final EOF token stays."""
    body, eof = tokens[:-1], tokens[-1:]
    i = rng.randrange(len(body))
    how = rng.choice(("drop", "duplicate", "replace", "repeat"))
    if how == "drop":
        return body[:i] + body[i + 1:] + eof
    if how == "duplicate":
        return body[:i + 1] + body[i:] + eof
    if how == "replace":
        kind, text = rng.choice(_PALETTE)
        return body[:i] + [Token(kind, text, body[i].line, body[i].col)] + body[i + 1:] + eof
    seps = [j for j, t in enumerate(body) if t.kind in ("COMMA", "DOT")]
    if not seps:
        return body[:i] + body[i + 1:] + eof
    j = rng.choice(seps)
    return body[:j + 1] + body[_entry_start(body, j):j + 1] + body[j + 1:] + eof


def _outcome(parser, tokens):
    """The printed workspace, or the error's type, message and position."""
    ws = Workspace()
    try:
        parser(list(tokens), ws, WHERE).file()
    except Exception as e:  # any fault counts, as long as both parsers share it
        return type(e).__name__, str(e), getattr(e, "line", None), getattr(e, "column", None)
    return print_workspace(ws)


@pytest.mark.parametrize("path", CORPUS, ids=[os.path.basename(p) for p in CORPUS])
def test_list_readers_match_the_oracle_under_token_mutations(path):
    with open(path, encoding="utf-8") as fh:
        tokens = tokenize(fh.read(), WHERE)
    printed = _outcome(_Parser, tokens)
    assert isinstance(printed, str) and printed == _outcome(OracleParser, tokens)
    rng = random.Random(f"dsl-lists-{os.path.basename(path)}")
    kinds = set()
    for _ in range(_MUTATIONS_PER_FILE):
        mutated = _mutate(tokens, rng)
        got = _outcome(_Parser, mutated)
        assert got == _outcome(OracleParser, mutated), mutated
        kinds.add("printed" if isinstance(got, str) else got[0])
    # the mutations get past the parser, not only into its syntax errors
    assert {"ParseError"} < kinds
