"""Token definitions for the MATLAB frontend.

The lexer produces a flat stream of :class:`Token` objects.  Tokens carry
their source span (for diagnostics) and a ``space_before`` flag which the
parser needs to disambiguate MATLAB's space-sensitive matrix-literal
syntax (``[1 -2]`` is two elements, ``[1 - 2]`` is one).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.frontend.source import Span


class TokenKind(enum.Enum):
    """Lexical categories of the MATLAB subset."""

    # Literals and names
    NUMBER = "number"              # 1, 2.5, 1e-3  (value: float)
    IMAG_NUMBER = "imag_number"    # 3i, 2.5j      (value: float, imag part)
    INT_NUMBER = "int_number"      # integer-valued literal (value: int)
    STRING = "string"              # 'text'        (value: str)
    IDENT = "ident"

    # Keywords
    KW_FUNCTION = "function"
    KW_END = "end"
    KW_IF = "if"
    KW_ELSEIF = "elseif"
    KW_ELSE = "else"
    KW_FOR = "for"
    KW_WHILE = "while"
    KW_SWITCH = "switch"
    KW_CASE = "case"
    KW_OTHERWISE = "otherwise"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_RETURN = "return"

    # Operators
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    BACKSLASH = "\\"
    CARET = "^"
    DOT_STAR = ".*"
    DOT_SLASH = "./"
    DOT_BACKSLASH = ".\\"
    DOT_CARET = ".^"
    QUOTE = "'"          # complex-conjugate transpose
    DOT_QUOTE = ".'"     # plain transpose
    ASSIGN = "="
    EQ = "=="
    NEQ = "~="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AMP = "&"
    PIPE = "|"
    AMP_AMP = "&&"
    PIPE_PIPE = "||"
    TILDE = "~"
    COLON = ":"
    COMMA = ","
    SEMICOLON = ";"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    AT = "@"
    DOT = "."

    # Structure
    NEWLINE = "newline"
    EOF = "eof"

    # Members are singletons, so identity hashing is exact; Enum's own
    # __hash__ is a Python-level call on every set or dict lookup.
    __hash__ = object.__hash__


#: Reserved words mapped to their keyword token kinds.
KEYWORDS = {
    "function": TokenKind.KW_FUNCTION,
    "end": TokenKind.KW_END,
    "if": TokenKind.KW_IF,
    "elseif": TokenKind.KW_ELSEIF,
    "else": TokenKind.KW_ELSE,
    "for": TokenKind.KW_FOR,
    "while": TokenKind.KW_WHILE,
    "switch": TokenKind.KW_SWITCH,
    "case": TokenKind.KW_CASE,
    "otherwise": TokenKind.KW_OTHERWISE,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "return": TokenKind.KW_RETURN,
}


@dataclass(slots=True)
class Token:
    """One lexical token.

    Attributes:
        kind: lexical category.
        text: exact source text of the token.
        span: source location.
        value: decoded literal value (float/int/str) for literal tokens.
        space_before: True when whitespace (or a continuation) separated
            this token from the previous one on the same logical line.
    """

    kind: TokenKind
    text: str
    span: Span
    value: object = None
    space_before: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        val = f", value={self.value!r}" if self.value is not None else ""
        return f"Token({self.kind.name}, {self.text!r}{val})"


#: Tokens after which a single-quote means transpose rather than a string.
TRANSPOSE_CONTEXT = frozenset(
    {
        TokenKind.IDENT,
        TokenKind.NUMBER,
        TokenKind.INT_NUMBER,
        TokenKind.IMAG_NUMBER,
        TokenKind.RPAREN,
        TokenKind.RBRACKET,
        TokenKind.RBRACE,
        TokenKind.QUOTE,
        TokenKind.DOT_QUOTE,
        TokenKind.KW_END,
    }
)
