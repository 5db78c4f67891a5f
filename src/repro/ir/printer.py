"""Human-readable IR dump, used by tests and ``repro-mc --dump-ir``."""

from __future__ import annotations

from repro.ir import nodes as ir
from repro.ir.types import ArrayType


def format_expr(expr: ir.Expr) -> str:
    if isinstance(expr, ir.Const):
        return repr(expr.value)
    if isinstance(expr, ir.VarRef):
        return expr.name
    if isinstance(expr, ir.BinOp):
        return f"({format_expr(expr.left)} {expr.op} {format_expr(expr.right)})"
    if isinstance(expr, ir.UnOp):
        return f"{expr.op}({format_expr(expr.operand)})"
    if isinstance(expr, ir.MathCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, ir.Cast):
        return f"cast<{expr.type.describe()}>({format_expr(expr.operand)})"
    if isinstance(expr, ir.MakeComplex):
        return f"complex({format_expr(expr.real)}, {format_expr(expr.imag)})"
    if isinstance(expr, ir.Load):
        return f"{expr.array}[{format_expr(expr.index)}]"
    if isinstance(expr, ir.VecLoad):
        return f"vload.{expr.type.describe()} {expr.array}[{format_expr(expr.base)}]"
    if isinstance(expr, ir.IntrinsicCall):
        args = ", ".join(format_expr(a) for a in expr.args)
        return f"@{expr.instruction.name}({args})"
    return f"<{type(expr).__name__}>"


def _format_stmt(stmt: ir.Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(stmt, ir.AssignVar):
        out.append(f"{pad}{stmt.name} = {format_expr(stmt.value)}")
    elif isinstance(stmt, ir.Store):
        out.append(f"{pad}{stmt.array}[{format_expr(stmt.index)}] = "
                   f"{format_expr(stmt.value)}")
    elif isinstance(stmt, ir.VecStore):
        out.append(f"{pad}vstore {stmt.array}[{format_expr(stmt.base)}] = "
                   f"{format_expr(stmt.value)}")
    elif isinstance(stmt, ir.ForRange):
        out.append(f"{pad}for {stmt.var} = {format_expr(stmt.start)} .. "
                   f"{format_expr(stmt.stop)} step {stmt.step}:")
        for sub in stmt.body:
            _format_stmt(sub, indent + 1, out)
    elif isinstance(stmt, ir.While):
        out.append(f"{pad}while {format_expr(stmt.condition)}:")
        for sub in stmt.body:
            _format_stmt(sub, indent + 1, out)
    elif isinstance(stmt, ir.If):
        out.append(f"{pad}if {format_expr(stmt.condition)}:")
        for sub in stmt.then_body:
            _format_stmt(sub, indent + 1, out)
        if stmt.else_body:
            out.append(f"{pad}else:")
            for sub in stmt.else_body:
                _format_stmt(sub, indent + 1, out)
    elif isinstance(stmt, ir.Break):
        out.append(f"{pad}break")
    elif isinstance(stmt, ir.Continue):
        out.append(f"{pad}continue")
    elif isinstance(stmt, ir.Return):
        out.append(f"{pad}return")
    elif isinstance(stmt, ir.Call):
        args = ", ".join(a if isinstance(a, str) else format_expr(a)
                         for a in stmt.args)
        results = ", ".join(stmt.results)
        prefix = f"{results} = " if results else ""
        out.append(f"{pad}{prefix}call {stmt.callee}({args})")
    elif isinstance(stmt, ir.Emit):
        args = ", ".join(format_expr(a) for a in stmt.args)
        out.append(f"{pad}emit {stmt.format!r} {args}".rstrip())
    elif isinstance(stmt, ir.CopyArray):
        out.append(f"{pad}{stmt.dst}[:] = {stmt.src}[:]")
    else:
        out.append(f"{pad}<{type(stmt).__name__}>")


def format_function(func: ir.IRFunction) -> str:
    lines: list[str] = []
    params = ", ".join(f"{p.name}: {p.type.describe()}" for p in func.params)
    outs = ", ".join(f"{p.name}: {p.type.describe()}" for p in func.outputs)
    lines.append(f"func {func.name}({params}) -> ({outs})")
    for name, ir_type in sorted(func.locals.items()):
        if isinstance(ir_type, ArrayType):
            lines.append(f"  local {name}: {ir_type.describe()}")
    for stmt in func.body:
        _format_stmt(stmt, 1, lines)
    return "\n".join(lines)


def format_module(module: ir.IRModule) -> str:
    return "\n\n".join(format_function(f) for f in module.functions)
