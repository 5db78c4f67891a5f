"""Generic expression/statement rewriting helpers shared by passes."""

from __future__ import annotations

from typing import Callable

from repro.ir import nodes as ir

ExprRewriter = Callable[[ir.Expr], ir.Expr]


def rewrite_expr(expr: ir.Expr, fn: ExprRewriter) -> ir.Expr:
    """Bottom-up rewrite: children first, then ``fn`` on the node.

    A child is written back only when its rewrite is a new node, and a
    list is rebuilt only when one of its items is.
    """
    for name, many in ir.EXPR_SLOTS[type(expr)]:
        child = getattr(expr, name)
        if many:
            items = _rewrite_items(child, fn)
            if items is not child:
                setattr(expr, name, items)
        elif child is not None:
            new = rewrite_expr(child, fn)
            if new is not child:
                setattr(expr, name, new)
    return fn(expr)


def _rewrite_items(items: list, fn: ExprRewriter) -> list:
    """``items`` with every ``Expr`` rewritten: the same list when no
    item changed, else a new one."""
    for index, item in enumerate(items):
        if isinstance(item, ir.Expr):
            new = rewrite_expr(item, fn)
            if new is not item:
                out = items[:index]
                out.append(new)
                out.extend(rewrite_expr(a, fn)
                           if isinstance(a, ir.Expr) else a
                           for a in items[index + 1:])
                return out
    return items


def rewrite_stmt_exprs(stmt: ir.Stmt, fn: ExprRewriter) -> None:
    """Apply ``fn`` bottom-up to every expression directly owned by
    ``stmt`` (not to nested statements)."""
    for name, many in ir.STMT_EXPR_SLOTS[type(stmt)]:
        value = getattr(stmt, name)
        if many:
            items = _rewrite_items(value, fn)
            if items is not value:
                setattr(stmt, name, items)
        elif value is not None:
            new = rewrite_expr(value, fn)
            if new is not value:
                setattr(stmt, name, new)


def rewrite_tree(body: list[ir.Stmt], fn: ExprRewriter) -> None:
    """Apply ``fn`` to every expression in a whole statement tree."""
    for stmt in body:
        rewrite_stmt_exprs(stmt, fn)
        for sub in stmt.substatements():
            rewrite_tree(sub, fn)


def writes(body: list[ir.Stmt]) -> tuple[set[str], set[str]]:
    """The scalar names and the array names written anywhere in
    ``body``, from one walk; a call's results count as both."""
    names: set[str] = set()
    arrays: set[str] = set()
    for stmt in ir.walk_statements(body):
        if isinstance(stmt, ir.AssignVar):
            names.add(stmt.name)
        elif isinstance(stmt, (ir.Store, ir.VecStore)):
            arrays.add(stmt.array)
        elif isinstance(stmt, ir.ForRange):
            names.add(stmt.var)
        elif isinstance(stmt, ir.CopyArray):
            arrays.add(stmt.dst)
        elif isinstance(stmt, ir.Call):
            names.update(stmt.results)
            arrays.update(stmt.results)
    return names, arrays


def assigned_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar variable names assigned anywhere in ``body``."""
    return writes(body)[0]


def stored_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names written anywhere in ``body``."""
    return writes(body)[1]


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


def names_read(body: list[ir.Stmt],
               skip: ir.Stmt | None = None) -> set[str]:
    """The scalar names read in ``body`` outside statement ``skip``.

    ``name in names_read(body, loop)`` is ``read_outside_loop(body,
    loop, name)`` for every name at once, with the same rule for a
    ``ForRange`` rebinding a name: its body's reads of that name don't
    count, its bounds' do.
    """
    names: set[str] = set()
    for stmt in body:
        if stmt is skip:
            continue
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef):
                    names.add(node.name)
        nested = stmt.substatements()
        if nested:
            inner: set[str] = set()
            for sub in nested:
                inner |= names_read(sub, skip)
            if isinstance(stmt, ir.ForRange):
                inner.discard(stmt.var)
            names |= inner
    return names


def reads(body: list[ir.Stmt]) -> tuple[set[str], set[str]]:
    """The scalar names and the array names read anywhere in ``body``,
    from one walk."""
    names: set[str] = set()
    arrays: set[str] = set()
    for stmt in ir.walk_statements(body):
        for expr in ir.statement_exprs(stmt):
            for node in ir.walk_expr(expr):
                if isinstance(node, ir.VarRef):
                    names.add(node.name)
                elif isinstance(node, (ir.Load, ir.VecLoad)):
                    arrays.add(node.array)
        if isinstance(stmt, ir.CopyArray):
            arrays.add(stmt.src)
        elif isinstance(stmt, ir.Call):
            arrays.update(a for a in stmt.args if isinstance(a, str))
    return names, arrays


def used_vars(body: list[ir.Stmt]) -> set[str]:
    """All scalar variable names read anywhere in ``body``."""
    return reads(body)[0]


def loaded_arrays(body: list[ir.Stmt]) -> set[str]:
    """All array names read anywhere in ``body``."""
    return reads(body)[1]
