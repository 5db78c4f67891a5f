"""AST -> MATLAB source rendering.

The inverse of the parser, for tools that *construct* programs as
:mod:`repro.frontend.ast_nodes` trees — the differential fuzzer's
program generator and delta-debugging reducer build ASTs and need
concrete source text to feed both ``compile_source`` (which parses
internally) and corpus files on disk.

Rendering is deliberately conservative: every compound subexpression is
parenthesized, so operator precedence never needs to be reproduced and
``parse(to_source(tree))`` is structurally faithful for the whole
supported subset.
"""

from __future__ import annotations

from repro.frontend import ast_nodes as ast

_INDENT = "  "


def to_source(node: "ast.Program | ast.Function | ast.Stmt") -> str:
    """Render a program, function, or single statement as MATLAB text."""
    if isinstance(node, ast.Program):
        if node.functions:
            return "\n\n".join(_function(f) for f in node.functions) + "\n"
        return "".join(_stmt(s, 0) for s in node.script)
    if isinstance(node, ast.Function):
        return _function(node) + "\n"
    return _stmt(node, 0)


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------


def _function(func: ast.Function) -> str:
    if len(func.returns) == 1:
        head = f"function {func.returns[0]} = {func.name}"
    elif func.returns:
        head = f"function [{', '.join(func.returns)}] = {func.name}"
    else:
        head = f"function {func.name}"
    head += f"({', '.join(func.params)})"
    body = "".join(_stmt(s, 1) for s in func.body)
    return f"{head}\n{body}end"


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


def _stmt(stmt: ast.Stmt, depth: int) -> str:
    pad = _INDENT * depth
    if isinstance(stmt, ast.ExprStmt):
        return f"{pad}{_expr(stmt.expr)}{';' if stmt.suppressed else ''}\n"
    if isinstance(stmt, ast.Assign):
        tail = ";" if stmt.suppressed else ""
        return f"{pad}{_expr(stmt.target)} = {_expr(stmt.value)}{tail}\n"
    if isinstance(stmt, ast.MultiAssign):
        targets = ", ".join(_expr(t) for t in stmt.targets)
        tail = ";" if stmt.suppressed else ""
        return f"{pad}[{targets}] = {_expr(stmt.value)}{tail}\n"
    if isinstance(stmt, ast.If):
        out = []
        for index, (cond, body) in enumerate(stmt.branches):
            kw = "if" if index == 0 else "elseif"
            out.append(f"{pad}{kw} {_expr(cond)}\n")
            out.extend(_stmt(s, depth + 1) for s in body)
        if stmt.else_body:
            out.append(f"{pad}else\n")
            out.extend(_stmt(s, depth + 1) for s in stmt.else_body)
        out.append(f"{pad}end\n")
        return "".join(out)
    if isinstance(stmt, ast.For):
        body = "".join(_stmt(s, depth + 1) for s in stmt.body)
        return f"{pad}for {stmt.var} = {_expr(stmt.iterable)}\n{body}{pad}end\n"
    if isinstance(stmt, ast.While):
        body = "".join(_stmt(s, depth + 1) for s in stmt.body)
        return f"{pad}while {_expr(stmt.condition)}\n{body}{pad}end\n"
    if isinstance(stmt, ast.Switch):
        out = [f"{pad}switch {_expr(stmt.subject)}\n"]
        for match, body in stmt.cases:
            out.append(f"{pad}{_INDENT}case {_expr(match)}\n")
            out.extend(_stmt(s, depth + 2) for s in body)
        if stmt.otherwise:
            out.append(f"{pad}{_INDENT}otherwise\n")
            out.extend(_stmt(s, depth + 2) for s in stmt.otherwise)
        out.append(f"{pad}end\n")
        return "".join(out)
    if isinstance(stmt, ast.Break):
        return f"{pad}break;\n"
    if isinstance(stmt, ast.Continue):
        return f"{pad}continue;\n"
    if isinstance(stmt, ast.Return):
        return f"{pad}return;\n"
    raise TypeError(f"cannot unparse statement {type(stmt).__name__}")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def _number(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def _expr(expr: ast.Expr) -> str:
    if isinstance(expr, ast.NumberLit):
        return _number(expr.value)
    if isinstance(expr, ast.ImagLit):
        return _number(expr.value) + "i"
    if isinstance(expr, ast.StringLit):
        return "'" + expr.value.replace("'", "''") + "'"
    if isinstance(expr, ast.Identifier):
        return expr.name
    if isinstance(expr, ast.EndMarker):
        return "end"
    if isinstance(expr, ast.ColonAll):
        return ":"
    if isinstance(expr, ast.UnaryOp):
        return f"{expr.op}{_paren(expr.operand)}"
    if isinstance(expr, ast.BinaryOp):
        return f"{_paren(expr.left)} {expr.op} {_paren(expr.right)}"
    if isinstance(expr, ast.Transpose):
        mark = "'" if expr.conjugate else ".'"
        return f"{_paren(expr.operand)}{mark}"
    if isinstance(expr, ast.Range):
        parts = [_paren(expr.start)]
        if expr.step is not None:
            parts.append(_paren(expr.step))
        parts.append(_paren(expr.stop))
        return ":".join(parts)
    if isinstance(expr, ast.MatrixLit):
        rows = "; ".join(", ".join(_paren(e) for e in row)
                         for row in expr.rows)
        return f"[{rows}]"
    if isinstance(expr, ast.CallIndex):
        target = _expr(expr.target) if isinstance(
            expr.target, ast.Identifier) else _paren(expr.target)
        return f"{target}({', '.join(_expr(a) for a in expr.args)})"
    if isinstance(expr, ast.AnonFunc):
        return f"@({', '.join(expr.params)}) {_paren(expr.body)}"
    if isinstance(expr, ast.FuncHandle):
        return f"@{expr.name}"
    raise TypeError(f"cannot unparse expression {type(expr).__name__}")


#: Expression kinds that never need wrapping when used as an operand.
_ATOMS = (ast.NumberLit, ast.ImagLit, ast.StringLit, ast.Identifier,
          ast.EndMarker, ast.MatrixLit, ast.CallIndex, ast.FuncHandle)


def _paren(expr: ast.Expr) -> str:
    if isinstance(expr, _ATOMS):
        return _expr(expr)
    return f"({_expr(expr)})"
