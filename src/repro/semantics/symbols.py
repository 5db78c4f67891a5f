"""Symbol tables and function registry for semantic analysis."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import ast_nodes as ast
from repro.frontend.source import Span
from repro.semantics.types import MType


@dataclass
class Symbol:
    """A local variable binding inside one function specialization."""

    name: str
    mtype: MType
    span: Span
    is_param: bool = False
    is_loop_var: bool = False


class Environment:
    """A flat (function-scope) mapping from names to symbols.

    MATLAB has no block scoping: a variable assigned anywhere in the
    function is function-scoped, so a single flat table per function
    suffices.  Copy/join support control-flow merges during inference.
    """

    def __init__(self, symbols: dict[str, Symbol] | None = None):
        self._symbols: dict[str, Symbol] = dict(symbols or {})

    def define(self, name: str, mtype: MType, span: Span, *, is_param: bool = False,
               is_loop_var: bool = False) -> Symbol:
        symbol = Symbol(name, mtype, span, is_param=is_param, is_loop_var=is_loop_var)
        self._symbols[name] = symbol
        return symbol

    def lookup(self, name: str) -> Symbol | None:
        return self._symbols.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._symbols

    def names(self) -> list[str]:
        return list(self._symbols)

    def copy(self) -> "Environment":
        # Symbols are shared: ``define`` replaces a binding and nothing
        # mutates a Symbol in place.
        return Environment(self._symbols)

    def join(self, other: "Environment") -> "Environment":
        """Merge two branch environments; only common names survive."""
        merged: dict[str, Symbol] = {}
        for name, sym in self._symbols.items():
            other_sym = other._symbols.get(name)
            if other_sym is None:
                continue
            merged[name] = Symbol(
                name,
                sym.mtype.join(other_sym.mtype),
                sym.span,
                is_param=sym.is_param,
                is_loop_var=sym.is_loop_var,
            )
        return Environment(merged)

    def same_types(self, other: "Environment") -> bool:
        if set(self._symbols) != set(other._symbols):
            return False
        return all(self._symbols[n].mtype == other._symbols[n].mtype for n in self._symbols)


@dataclass
class FunctionRegistry:
    """All user-defined functions of one compilation unit, by name."""

    functions: dict[str, ast.Function] = field(default_factory=dict)

    @staticmethod
    def from_program(program: ast.Program) -> "FunctionRegistry":
        registry = FunctionRegistry()
        for func in program.functions:
            registry.functions[func.name] = func
        return registry

    def lookup(self, name: str) -> ast.Function | None:
        return self.functions.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.functions
