"""The character-by-character tokenizer that veq.dsl replaced, kept as an
oracle.

veq.dsl now scans each line with one compiled pattern. This is the earlier
loop, unchanged apart from its name and its own copy of the punctuation
table. It read a number as any run of characters that `str.isdigit` accepts,
so a non-ASCII digit such as '²' or '٣' became part of a NUMBER token; the
new scanner takes ASCII digits only and reports such a character as
unexpected. That is the one place the two differ.
"""

from veq.dsl import Token
from veq.errors import ParseError

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
