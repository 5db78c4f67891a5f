"""Tokenizer for the MATLAB subset.

Handles the classically awkward corners of MATLAB lexing:

* single-quote is *transpose* after a value-like token and a *string
  delimiter* elsewhere (``a'`` vs ``'a'``), with ``''`` as the in-string
  escape;
* ``...`` swallows the rest of the line and the newline (continuation);
* ``%`` line comments and ``%{``/``%}`` block comments;
* imaginary literals ``3i`` / ``2.5e-1j``;
* ``1.`` / ``.5`` numeric forms, and the ``1.^2`` ambiguity (the ``.``
  binds to the operator, not the number, when followed by an operator
  character — matching MATLAB);
* ``space_before`` flags so the parser can resolve ``[1 -2]`` vs
  ``[1 - 2]``.

Everything except quotes and block comments is one compiled master
regex: the scanner calls ``match(text, pos)`` and branches on the name
of the alternative that matched.  Names and numerals are ASCII only; any
other character is a :class:`LexError`.
"""

from __future__ import annotations

import re

from repro.errors import LexError
from repro.frontend.source import SourceFile, Span
from repro.frontend.tokens import KEYWORDS, TRANSPOSE_CONTEXT, Token, TokenKind

_K = TokenKind

_OPERATORS = {
    ".*": _K.DOT_STAR, "./": _K.DOT_SLASH, ".\\": _K.DOT_BACKSLASH,
    ".^": _K.DOT_CARET, ".'": _K.DOT_QUOTE, "==": _K.EQ, "~=": _K.NEQ,
    "<=": _K.LE, ">=": _K.GE, "&&": _K.AMP_AMP, "||": _K.PIPE_PIPE,
    "+": _K.PLUS, "-": _K.MINUS, "*": _K.STAR, "/": _K.SLASH,
    "\\": _K.BACKSLASH, "^": _K.CARET, "=": _K.ASSIGN, "<": _K.LT,
    ">": _K.GT, "&": _K.AMP, "|": _K.PIPE, "~": _K.TILDE, ":": _K.COLON,
    ",": _K.COMMA, ";": _K.SEMICOLON, "(": _K.LPAREN, ")": _K.RPAREN,
    "[": _K.LBRACKET, "]": _K.RBRACKET, "{": _K.LBRACE, "}": _K.RBRACE,
    "@": _K.AT, ".": _K.DOT,
}

# Alternatives are tried in order: '...' before a '.5' number before the
# '.' operators.  A continuation ('...' to the end of the line, newline
# included) separates tokens like a blank.  A number's '.' is left to the
# operator when one of * / \ ^ ' follows it ('1.^2'); an 'i'/'j' suffix
# makes it imaginary unless a name character follows ('2ix' is 2 then ix).
_MASTER = re.compile(r"""
    (?P<blank>[ \t\r]+|\.\.\.[^\n]*\n?)
  | (?P<newline>\n)
  | (?P<comment>%[^\n]*)
  | (?P<number>(?:[0-9]+(?:\.(?![*/\\^'])[0-9]*)?|\.[0-9]+)
               (?:[eEdD][+-]?[0-9]+)?(?:[ij](?![A-Za-z0-9_]))?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<operator>\.[*/\\^']|[=~<>]=|&&|\|\||[-+*/\\^=<>&|~:,;()\[\]{}@.])
  | (?P<quote>')
""", re.VERBOSE)


class Lexer:
    """Converts MATLAB source text into a token stream."""

    def __init__(self, source: SourceFile | str):
        if isinstance(source, str):
            source = SourceFile(source)
        self.source = source
        self.text = source.text
        self.tokens: list[Token] = []

    def tokenize(self) -> list[Token]:
        """Tokenize the whole file, appending a final EOF token."""
        text = self.text
        filename = self.source.filename
        tokens = self.tokens
        append = tokens.append
        match = _MASTER.match
        space = False
        pos = 0
        size = len(text)
        while pos < size:
            m = match(text, pos)
            if m is None:
                raise self._error(f"unexpected character {text[pos]!r}", pos)
            group = m.lastgroup
            end = m.end()
            if group == "name":
                name = m.group()
                kind = KEYWORDS.get(name)
                token = Token(kind or _K.IDENT, name, Span(pos, end, filename),
                              None if kind else name, space)
            elif group == "blank":
                space = True
                pos = end
                continue
            elif group == "operator":
                op = m.group()
                token = Token(_OPERATORS[op], op, Span(pos, end, filename), None, space)
            elif group == "newline":
                token = Token(_K.NEWLINE, "\n", Span(pos, end, filename), None, space)
            elif group == "number":
                token = self._number(m.group(), Span(pos, end, filename), space)
            elif group == "comment":
                if self._opens_block(pos, end):
                    end = self._block_comment_end(pos)
                    space = True
                pos = end
                continue
            elif (tokens and tokens[-1].kind in TRANSPOSE_CONTEXT
                  and not space):
                token = Token(_K.QUOTE, "'", Span(pos, end, filename), None, False)
            else:
                end = self._string_end(pos)
                token = Token(_K.STRING, text[pos:end], Span(pos, end, filename),
                              text[pos + 1:end - 1].replace("''", "'"), space)
            append(token)
            space = False
            pos = end
        append(Token(_K.EOF, "", Span(pos, pos, filename), None, space))
        return tokens

    def _error(self, message: str, start: int) -> LexError:
        line, col = self.source.line_col(start)
        return LexError(f"{self.source.filename}:{line}:{col}: {message}")

    @staticmethod
    def _number(literal: str, span: Span, space: bool) -> Token:
        if literal.isdigit():
            return Token(_K.INT_NUMBER, literal, span, int(literal), space)
        kind = _K.NUMBER
        digits = literal
        if literal[-1] in "ij":
            kind = _K.IMAG_NUMBER
            digits = literal[:-1]
        value = float(digits.replace("d", "e").replace("D", "E"))  # MATLAB's 1d3
        return Token(kind, literal, span, value, space)

    def _opens_block(self, start: int, end: int) -> bool:
        # MATLAB opens a block comment only on a line holding just '%{'.
        line_start = self.text.rfind("\n", 0, start) + 1
        return (self.text[start:end].strip() == "%{"
                and not self.text[line_start:start].strip())

    def _block_comment_end(self, start: int) -> int:
        # '%{' alone on a line opens, '%}' alone closes; blocks nest.  The
        # closing line's newline goes with the comment.
        text = self.text
        depth = 0
        i = start
        while i < len(text):
            nl = text.find("\n", i)
            line = text[i:nl if nl >= 0 else len(text)].strip()
            if line == "%{":
                depth += 1
            elif line == "%}":
                depth -= 1
                if depth == 0:
                    return nl + 1 if nl >= 0 else len(text)
            if nl < 0:
                break
            i = nl + 1
        raise self._error("unterminated block comment", start)

    def _string_end(self, start: int) -> int:
        # A string ends at a lone quote on its line; '' is an escaped quote.
        text = self.text
        line_end = text.find("\n", start)
        if line_end < 0:
            line_end = len(text)
        i = start + 1
        while True:
            close = text.find("'", i, line_end)
            if close < 0:
                raise self._error("unterminated string literal", start)
            if not text.startswith("''", close):
                return close + 1
            i = close + 2


def tokenize(source: SourceFile | str) -> list[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source).tokenize()
