"""Recursive-descent parser for the MATLAB subset.

Grammar notes:

* ``f(x)`` parses to :class:`CallIndex` for both calls and indexing;
  semantic analysis disambiguates using the symbol table.
* Inside ``[ ]`` the parser applies MATLAB's juxtaposition rules:
  elements are separated by commas *or* whitespace, rows by semicolons
  *or* newlines, and a ``+``/``-`` with space before but not after is a
  unary sign that begins a new element (``[1 -2]`` vs ``[1 - 2]``).
* ``end`` is an expression only inside indexing parentheses/brackets.
* Newlines are statement separators at statement level, row separators
  inside ``[ ]``, and ignored inside ``( )``.

Operator precedence (lowest to highest), matching MATLAB:

    || / && / | / & / comparisons / : / + - / * / etc. / unary / ^ '
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import tokenize
from repro.frontend.source import SourceFile
from repro.frontend.tokens import Token, TokenKind

_K = TokenKind

_STMT_SEPARATORS = frozenset({_K.NEWLINE, _K.SEMICOLON, _K.COMMA})

_BLOCK_ENDERS = frozenset(
    {
        _K.KW_END,
        _K.KW_ELSEIF,
        _K.KW_ELSE,
        _K.KW_CASE,
        _K.KW_OTHERWISE,
        _K.KW_FUNCTION,
        _K.EOF,
    }
)

#: The left-associative operators looser than ':', as (precedence, op).
_LOOSE_BINARY_OPS = {
    _K.PIPE_PIPE: (0, "||"),
    _K.AMP_AMP: (1, "&&"),
    _K.PIPE: (2, "|"),
    _K.AMP: (3, "&"),
    _K.EQ: (4, "=="),
    _K.NEQ: (4, "~="),
    _K.LT: (4, "<"),
    _K.LE: (4, "<="),
    _K.GT: (4, ">"),
    _K.GE: (4, ">="),
}

_ADDITIVE_OPS = {_K.PLUS: "+", _K.MINUS: "-"}

_MULTIPLICATIVE_OPS = {
    _K.STAR: "*",
    _K.SLASH: "/",
    _K.BACKSLASH: "\\",
    _K.DOT_STAR: ".*",
    _K.DOT_SLASH: "./",
    _K.DOT_BACKSLASH: ".\\",
}

_POWER_OPS = {_K.CARET: "^", _K.DOT_CARET: ".^"}

#: Tokens that may begin an expression (used for matrix juxtaposition).
_EXPR_STARTERS = frozenset(
    {
        _K.NUMBER,
        _K.INT_NUMBER,
        _K.IMAG_NUMBER,
        _K.STRING,
        _K.IDENT,
        _K.LPAREN,
        _K.LBRACKET,
        _K.LBRACE,
        _K.AT,
        _K.TILDE,
        _K.KW_END,
        _K.COLON,
    }
)


class Parser:
    """Parses a token stream into a :class:`repro.frontend.ast_nodes.Program`."""

    def __init__(self, source: SourceFile | str, filename: str = "<string>"):
        if isinstance(source, str):
            source = SourceFile(source, filename)
        self.source = source
        # One spare EOF lets one-token lookahead index without a bound check.
        self.tokens = tokenize(source)
        self.tokens.append(self.tokens[-1])
        self.pos = 0
        # Context depths for newline/end handling.
        self._paren_depth = 0
        self._bracket_depth = 0
        self._index_depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def _at(self, kind: TokenKind, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].kind is kind

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not _K.EOF:
            self.pos += 1
        # Inside parentheses newlines are insignificant.
        if self._paren_depth > 0 and self._bracket_depth == 0:
            while self._at(_K.NEWLINE):
                self.pos += 1
        return token

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        if not self._at(kind):
            found = self._peek()
            wanted = what or kind.value
            raise self._error(f"expected {wanted}, found {found.kind.value!r}", found)
        return self._advance()

    def _error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self._peek()
        line, col = self.source.line_col(token.span.start)
        excerpt = self.source.excerpt(token.span)
        return ParseError(
            f"{self.source.filename}:{line}:{col}: syntax error: {message}\n{excerpt}"
        )

    def _skip_separators(self) -> None:
        while self._peek().kind in _STMT_SEPARATORS:
            self._advance()

    def _skip_newlines(self) -> None:
        while self._at(_K.NEWLINE):
            self._advance()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        """Parse a whole file: function definitions or a script body."""
        self._skip_separators()
        start = self._peek().span
        if self._at(_K.KW_FUNCTION):
            functions = []
            while True:
                self._skip_separators()
                if self._at(_K.EOF):
                    break
                functions.append(self._parse_function())
            if not functions:
                raise self._error("empty file")
            span = functions[0].span.merge(functions[-1].span)
            return ast.Program(span=span, functions=functions)
        body = self._parse_stmt_list(top_level=True)
        if not self._at(_K.EOF):
            raise self._error("unexpected token at top level")
        span = start if not body else body[0].span.merge(body[-1].span)
        return ast.Program(span=span, script=body)

    def _parse_function(self) -> ast.Function:
        start = self._expect(_K.KW_FUNCTION).span
        returns: list[str] = []
        # Three header forms:
        #   function [a, b] = name(params)
        #   function a = name(params)
        #   function name(params)
        if self._at(_K.LBRACKET):
            self._advance()
            while not self._at(_K.RBRACKET):
                returns.append(self._expect(_K.IDENT, "output name").text)
                if self._at(_K.COMMA):
                    self._advance()
            self._advance()  # ]
            self._expect(_K.ASSIGN, "'=' after output list")
            name = self._expect(_K.IDENT, "function name").text
        else:
            first = self._expect(_K.IDENT, "function name").text
            if self._at(_K.ASSIGN):
                self._advance()
                returns = [first]
                name = self._expect(_K.IDENT, "function name").text
            else:
                name = first
        params: list[str] = []
        if self._at(_K.LPAREN):
            self._advance()
            while not self._at(_K.RPAREN):
                if self._at(_K.TILDE):  # unused input placeholder
                    self._advance()
                    params.append("~")
                else:
                    params.append(self._expect(_K.IDENT, "parameter name").text)
                if self._at(_K.COMMA):
                    self._advance()
            self._advance()  # )
        body = self._parse_stmt_list()
        end_span = self._peek().span
        if self._at(_K.KW_END):
            self._advance()
        elif not (self._at(_K.EOF) or self._at(_K.KW_FUNCTION)):
            raise self._error("expected 'end' or end of file after function body")
        return ast.Function(
            span=start.merge(end_span), name=name, params=params, returns=returns, body=body
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _parse_stmt_list(self, top_level: bool = False) -> list[ast.Stmt]:
        stmts: list[ast.Stmt] = []
        while True:
            self._skip_separators()
            kind = self._peek().kind
            if kind in _BLOCK_ENDERS:
                if top_level and kind is _K.KW_FUNCTION:
                    raise self._error("function definitions are not allowed inside a script")
                break
            stmts.append(self._parse_statement())
        return stmts

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        kind = token.kind
        if kind is _K.KW_IF:
            return self._parse_if()
        if kind is _K.KW_FOR:
            return self._parse_for()
        if kind is _K.KW_WHILE:
            return self._parse_while()
        if kind is _K.KW_SWITCH:
            return self._parse_switch()
        if kind is _K.KW_BREAK:
            self._advance()
            return ast.Break(span=token.span)
        if kind is _K.KW_CONTINUE:
            self._advance()
            return ast.Continue(span=token.span)
        if kind is _K.KW_RETURN:
            self._advance()
            return ast.Return(span=token.span)
        if kind is _K.LBRACKET and self._looks_like_multi_assign():
            return self._parse_multi_assign()
        return self._parse_expr_or_assign()

    def _terminator_suppressed(self) -> bool:
        """Consume the statement terminator; True when it was ';'."""
        kind = self._peek().kind
        if kind is _K.SEMICOLON:
            self._advance()
            return True
        if kind in (_K.NEWLINE, _K.COMMA):
            self._advance()
            return False
        if kind in _BLOCK_ENDERS:
            return False
        raise self._error("expected end of statement")

    def _parse_expr_or_assign(self) -> ast.Stmt:
        start = self._peek().span
        expr = self._parse_expression()
        if self._at(_K.ASSIGN):
            if not isinstance(expr, (ast.Identifier, ast.CallIndex)):
                raise self._error("invalid assignment target")
            self._advance()
            value = self._parse_expression()
            suppressed = self._terminator_suppressed()
            return ast.Assign(
                span=start.merge(value.span), target=expr, value=value, suppressed=suppressed
            )
        suppressed = self._terminator_suppressed()
        return ast.ExprStmt(span=expr.span, expr=expr, suppressed=suppressed)

    def _looks_like_multi_assign(self) -> bool:
        """Lookahead: does ``[ ... ]`` here close and get followed by '='?"""
        depth = 0
        i = self.pos
        while i < len(self.tokens):
            kind = self.tokens[i].kind
            if kind in (_K.LBRACKET, _K.LBRACE, _K.LPAREN):
                depth += 1
            elif kind in (_K.RBRACKET, _K.RBRACE, _K.RPAREN):
                depth -= 1
                if depth == 0:
                    return self.tokens[i + 1].kind is _K.ASSIGN
            elif kind in (_K.NEWLINE, _K.EOF) and depth <= 1:
                # A newline directly inside the outer [ ] means matrix literal.
                return False
            i += 1
        return False

    def _parse_multi_assign(self) -> ast.Stmt:
        start = self._expect(_K.LBRACKET).span
        targets: list[ast.Expr] = []
        while not self._at(_K.RBRACKET):
            if self._at(_K.TILDE):
                tilde = self._advance()
                targets.append(ast.Identifier(span=tilde.span, name="~"))
            else:
                target = self._parse_postfix()
                if not isinstance(target, (ast.Identifier, ast.CallIndex)):
                    raise self._error("invalid assignment target in multi-assignment")
                targets.append(target)
            if self._at(_K.COMMA):
                self._advance()
        self._advance()  # ]
        self._expect(_K.ASSIGN)
        value = self._parse_expression()
        suppressed = self._terminator_suppressed()
        return ast.MultiAssign(
            span=start.merge(value.span), targets=targets, value=value, suppressed=suppressed
        )

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(_K.KW_IF).span
        branches: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        cond = self._parse_expression()
        body = self._parse_stmt_list()
        branches.append((cond, body))
        else_body: list[ast.Stmt] = []
        while self._at(_K.KW_ELSEIF):
            self._advance()
            cond = self._parse_expression()
            body = self._parse_stmt_list()
            branches.append((cond, body))
        if self._at(_K.KW_ELSE):
            self._advance()
            else_body = self._parse_stmt_list()
        end = self._expect(_K.KW_END, "'end' to close 'if'").span
        return ast.If(span=start.merge(end), branches=branches, else_body=else_body)

    def _parse_for(self) -> ast.Stmt:
        start = self._expect(_K.KW_FOR).span
        paren = self._at(_K.LPAREN)
        if paren:  # for (i = 1:n) is legal MATLAB
            self._advance()
        var = self._expect(_K.IDENT, "loop variable").text
        self._expect(_K.ASSIGN, "'=' in for statement")
        iterable = self._parse_expression()
        if paren:
            self._expect(_K.RPAREN)
        body = self._parse_stmt_list()
        end = self._expect(_K.KW_END, "'end' to close 'for'").span
        return ast.For(span=start.merge(end), var=var, iterable=iterable, body=body)

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(_K.KW_WHILE).span
        cond = self._parse_expression()
        body = self._parse_stmt_list()
        end = self._expect(_K.KW_END, "'end' to close 'while'").span
        return ast.While(span=start.merge(end), condition=cond, body=body)

    def _parse_switch(self) -> ast.Stmt:
        start = self._expect(_K.KW_SWITCH).span
        subject = self._parse_expression()
        self._skip_separators()
        cases: list[tuple[ast.Expr, list[ast.Stmt]]] = []
        otherwise: list[ast.Stmt] = []
        while self._at(_K.KW_CASE):
            self._advance()
            match = self._parse_expression()
            body = self._parse_stmt_list()
            cases.append((match, body))
        if self._at(_K.KW_OTHERWISE):
            self._advance()
            otherwise = self._parse_stmt_list()
        end = self._expect(_K.KW_END, "'end' to close 'switch'").span
        return ast.Switch(span=start.merge(end), subject=subject, cases=cases, otherwise=otherwise)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expression(self, min_precedence: int = 0) -> ast.Expr:
        """Precedence climbing over ``_LOOSE_BINARY_OPS`` above ranges."""
        left = self._parse_range()
        while True:
            entry = _LOOSE_BINARY_OPS.get(self.tokens[self.pos].kind)
            if entry is None or entry[0] < min_precedence:
                return left
            self._advance()
            right = self._parse_expression(entry[0] + 1)
            left = ast.BinaryOp(span=left.span.merge(right.span), op=entry[1],
                                left=left, right=right)

    def _parse_range(self) -> ast.Expr:
        first = self._parse_additive()
        if not self._at(_K.COLON):
            return first
        self._advance()
        second = self._parse_additive()
        if not self._at(_K.COLON):
            return ast.Range(span=first.span.merge(second.span), start=first, stop=second)
        self._advance()
        third = self._parse_additive()
        return ast.Range(
            span=first.span.merge(third.span), start=first, stop=third, step=second
        )

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in _ADDITIVE_OPS:
            if self._bracket_depth > 0 and self._is_matrix_element_boundary():
                break
            op = _ADDITIVE_OPS[self._advance().kind]
            right = self._parse_multiplicative()
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)
        return left

    def _is_matrix_element_boundary(self) -> bool:
        """In ``[ ]``: is this +/- a unary sign starting a new element?

        MATLAB rule: space before the sign but none after it means the
        sign binds to the next element (``[1 -2]``); space on both sides
        (or none before) means a binary operator (``[1 - 2]``, ``[1-2]``).
        """
        sign = self._peek()
        nxt = self._peek(1)
        return sign.space_before and not nxt.space_before and nxt.kind in _EXPR_STARTERS

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while self._peek().kind in _MULTIPLICATIVE_OPS:
            op = _MULTIPLICATIVE_OPS[self._advance().kind]
            right = self._parse_unary()
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is _K.MINUS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(span=token.span.merge(operand.span), op="-", operand=operand)
        if token.kind is _K.PLUS:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(span=token.span.merge(operand.span), op="+", operand=operand)
        if token.kind is _K.TILDE:
            self._advance()
            operand = self._parse_unary()
            return ast.UnaryOp(span=token.span.merge(operand.span), op="~", operand=operand)
        return self._parse_power()

    def _parse_power(self) -> ast.Expr:
        left = self._parse_postfix()
        while self._peek().kind in _POWER_OPS:
            op = _POWER_OPS[self._advance().kind]
            # MATLAB allows a unary sign in the exponent: 2^-3.
            right = self._parse_power_operand()
            left = ast.BinaryOp(span=left.span.merge(right.span), op=op, left=left, right=right)
        return left

    def _parse_power_operand(self) -> ast.Expr:
        token = self._peek()
        if token.kind in (_K.MINUS, _K.PLUS, _K.TILDE):
            self._advance()
            operand = self._parse_power_operand()
            return ast.UnaryOp(
                span=token.span.merge(operand.span),
                op={"-": "-", "+": "+", "~": "~"}[token.text],
                operand=operand,
            )
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._peek()
            if token.kind is _K.LPAREN and not token.space_before or (
                token.kind is _K.LPAREN and self._bracket_depth == 0
            ):
                expr = self._parse_call_index(expr)
            elif token.kind is _K.QUOTE:
                self._advance()
                expr = ast.Transpose(span=expr.span.merge(token.span), operand=expr, conjugate=True)
            elif token.kind is _K.DOT_QUOTE:
                self._advance()
                expr = ast.Transpose(span=expr.span.merge(token.span), operand=expr, conjugate=False)
            elif token.kind is _K.LBRACE:
                raise self._error("cell arrays are not supported by this compiler")
            elif token.kind is _K.DOT and self._peek(1).kind is _K.IDENT:
                raise self._error("struct field access is not supported by this compiler")
            else:
                break
        return expr

    def _parse_call_index(self, target: ast.Expr) -> ast.Expr:
        lparen = self._expect(_K.LPAREN)
        self._paren_depth += 1
        self._index_depth += 1
        self._skip_newlines()
        args: list[ast.Expr] = []
        while not self._at(_K.RPAREN):
            args.append(self._parse_index_arg())
            if self._at(_K.COMMA):
                self._advance()
            elif not self._at(_K.RPAREN):
                raise self._error("expected ',' or ')' in argument list")
        rparen = self._advance()
        self._paren_depth -= 1
        self._index_depth -= 1
        return ast.CallIndex(
            span=target.span.merge(rparen.span), target=target, args=args
        )

    def _parse_index_arg(self) -> ast.Expr:
        token = self._peek()
        if token.kind is _K.COLON and self._peek(1).kind in (_K.COMMA, _K.RPAREN):
            self._advance()
            return ast.ColonAll(span=token.span)
        return self._parse_expression()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        kind = token.kind
        if kind is _K.INT_NUMBER:
            self._advance()
            return ast.NumberLit(span=token.span, value=float(token.value), is_integer=True)
        if kind is _K.NUMBER:
            self._advance()
            return ast.NumberLit(span=token.span, value=float(token.value))
        if kind is _K.IMAG_NUMBER:
            self._advance()
            return ast.ImagLit(span=token.span, value=float(token.value))
        if kind is _K.STRING:
            self._advance()
            return ast.StringLit(span=token.span, value=str(token.value))
        if kind is _K.IDENT:
            self._advance()
            return ast.Identifier(span=token.span, name=token.text)
        if kind is _K.KW_END:
            if self._index_depth == 0:
                raise self._error("'end' is only valid inside an index expression")
            self._advance()
            return ast.EndMarker(span=token.span)
        if kind is _K.LPAREN:
            self._advance()
            self._paren_depth += 1
            self._skip_newlines()
            inner = self._parse_expression()
            self._paren_depth -= 1
            self._expect(_K.RPAREN, "')'")
            return inner
        if kind is _K.LBRACKET:
            return self._parse_matrix_literal()
        if kind is _K.AT:
            return self._parse_at()
        if kind is _K.LBRACE:
            raise self._error("cell arrays are not supported by this compiler")
        raise self._error(f"unexpected token {token.text!r} in expression")

    def _parse_at(self) -> ast.Expr:
        at = self._expect(_K.AT)
        if self._at(_K.IDENT):
            name = self._advance()
            return ast.FuncHandle(span=at.span.merge(name.span), name=name.text)
        self._expect(_K.LPAREN, "'(' after '@'")
        params: list[str] = []
        while not self._at(_K.RPAREN):
            params.append(self._expect(_K.IDENT, "parameter name").text)
            if self._at(_K.COMMA):
                self._advance()
        self._advance()  # )
        body = self._parse_expression()
        return ast.AnonFunc(span=at.span.merge(body.span), params=params, body=body)

    def _parse_matrix_literal(self) -> ast.Expr:
        lbracket = self._expect(_K.LBRACKET)
        self._bracket_depth += 1
        self._index_depth += 1
        rows: list[list[ast.Expr]] = []
        current: list[ast.Expr] = []

        def finish_row() -> None:
            nonlocal current
            if current:
                rows.append(current)
                current = []

        while True:
            kind = self._peek().kind
            if kind is _K.RBRACKET:
                break
            if kind is _K.EOF:
                raise self._error("unterminated matrix literal")
            if kind is _K.SEMICOLON or kind is _K.NEWLINE:
                self._advance()
                finish_row()
                continue
            if kind is _K.COMMA:
                self._advance()
                continue
            current.append(self._parse_expression())
        rbracket = self._advance()
        finish_row()
        self._bracket_depth -= 1
        self._index_depth -= 1
        return ast.MatrixLit(span=lbracket.span.merge(rbracket.span), rows=rows)


def parse(source: str, filename: str = "<string>") -> ast.Program:
    """Parse MATLAB ``source`` text into a Program AST."""
    return Parser(source, filename).parse_program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single MATLAB expression (testing convenience)."""
    parser = Parser(source)
    expr = parser._parse_expression()
    parser._skip_separators()
    if not parser._at(_K.EOF):
        raise parser._error("trailing input after expression")
    return expr
