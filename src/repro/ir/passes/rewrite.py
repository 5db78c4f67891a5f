"""Generic expression/statement rewriting helpers shared by passes."""

from __future__ import annotations

from typing import Callable

from repro.ir import nodes as ir

ExprRewriter = Callable[[ir.Expr], ir.Expr]


def rewrite_expr(expr: ir.Expr, fn: ExprRewriter) -> ir.Expr:
    """Bottom-up rewrite: children first, then ``fn`` on the node."""
    if isinstance(expr, ir.BinOp):
        expr.left = rewrite_expr(expr.left, fn)
        expr.right = rewrite_expr(expr.right, fn)
    elif isinstance(expr, ir.UnOp):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.MathCall):
        expr.args = [rewrite_expr(a, fn) for a in expr.args]
    elif isinstance(expr, ir.Cast):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.MakeComplex):
        expr.real = rewrite_expr(expr.real, fn)
        expr.imag = rewrite_expr(expr.imag, fn)
    elif isinstance(expr, ir.Load):
        expr.index = rewrite_expr(expr.index, fn)
    elif isinstance(expr, ir.VecLoad):
        expr.base = rewrite_expr(expr.base, fn)
    elif isinstance(expr, ir.VecSplat):
        expr.operand = rewrite_expr(expr.operand, fn)
    elif isinstance(expr, ir.IntrinsicCall):
        expr.args = [rewrite_expr(a, fn) for a in expr.args]
    return fn(expr)


def rewrite_stmt_exprs(stmt: ir.Stmt, fn: ExprRewriter) -> None:
    """Apply ``fn`` bottom-up to every expression directly owned by
    ``stmt`` (not to nested statements)."""
    if isinstance(stmt, ir.AssignVar):
        stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ir.Store):
        stmt.index = rewrite_expr(stmt.index, fn)
        stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ir.VecStore):
        stmt.base = rewrite_expr(stmt.base, fn)
        stmt.value = rewrite_expr(stmt.value, fn)
    elif isinstance(stmt, ir.IntrinsicStmt):
        stmt.call = rewrite_expr(stmt.call, fn)
    elif isinstance(stmt, ir.ForRange):
        stmt.start = rewrite_expr(stmt.start, fn)
        stmt.stop = rewrite_expr(stmt.stop, fn)
    elif isinstance(stmt, (ir.While, ir.If)):
        stmt.condition = rewrite_expr(stmt.condition, fn)
    elif isinstance(stmt, ir.Call):
        stmt.args = [rewrite_expr(a, fn) if isinstance(a, ir.Expr) else a
                     for a in stmt.args]
    elif isinstance(stmt, ir.Emit):
        stmt.args = [rewrite_expr(a, fn) for a in stmt.args]


def rewrite_tree(body: list[ir.Stmt], fn: ExprRewriter) -> None:
    """Apply ``fn`` to every expression in a whole statement tree."""
    for stmt in body:
        rewrite_stmt_exprs(stmt, fn)
        for sub in stmt.substatements():
            rewrite_tree(sub, fn)


def assigned_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar variable names assigned anywhere in ``body``."""
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        if isinstance(stmt, ir.AssignVar):
            names.add(stmt.name)
        elif isinstance(stmt, ir.ForRange):
            names.add(stmt.var)
        elif isinstance(stmt, ir.Call):
            names.update(stmt.results)
    return names


def stored_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names written anywhere in ``body``."""
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        if isinstance(stmt, (ir.Store, ir.VecStore)):
            names.add(stmt.array)
        elif isinstance(stmt, ir.CopyArray):
            names.add(stmt.dst)
        elif isinstance(stmt, ir.Call):
            names.update(stmt.results)
        elif isinstance(stmt, ir.IntrinsicStmt):
            # Store-like intrinsics name their target array as a string
            # argument by convention; be conservative and treat every
            # array-typed VarRef argument as potentially written.
            for arg in stmt.call.args:
                for node in ir.walk_expr(arg):
                    if isinstance(node, (ir.VecLoad, ir.Load)):
                        names.add(node.array)
    return names


def read_outside_loop(body: list[ir.Stmt], loop: ir.ForRange,
                      name: str) -> bool:
    """Is scalar ``name`` read anywhere in ``body`` outside ``loop``?

    ``loop`` itself (bounds and body) is skipped.  Reads in the body of
    another ``ForRange`` that rebinds ``name`` as its own induction
    variable don't count: that loop redefines the value before any body
    use.  Its bounds still do.
    """
    for stmt in body:
        if stmt is loop:
            continue
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef) and node.name == name:
                    return True
        if isinstance(stmt, ir.ForRange) and stmt.var == name:
            continue
        for sub in stmt.substatements():
            if read_outside_loop(sub, loop, name):
                return True
    return False


def used_vars_expr(expr: ir.Expr, names: set[str]) -> None:
    for node in ir.walk_expr(expr):
        if isinstance(node, ir.VarRef):
            names.add(node.name)


def used_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar variable names read anywhere in ``body``."""
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        for expr in ir.statement_exprs(stmt):
            used_vars_expr(expr, names)
    return names


def loaded_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names read anywhere in ``body``."""
    names: set[str] = set()
    for stmt in ir.walk_statements(body):
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, (ir.Load, ir.VecLoad)):
                    names.add(node.array)
        if isinstance(stmt, ir.CopyArray):
            names.add(stmt.src)
        elif isinstance(stmt, ir.Call):
            names.update(a for a in stmt.args if isinstance(a, str))
    return names
