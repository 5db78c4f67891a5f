"""Cycle-cost model of the target ASIP.

Wraps a processor's :class:`~repro.asip.model.CostTable` and expands
complex scalar arithmetic into its real-operation equivalent — a complex
multiply on a plain scalar datapath is four multiplies and two adds,
which is exactly the gap the paper's ``cmul``/``cmac`` custom
instructions close.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asip.model import CostTable, ProcessorDescription
from repro.ir.types import ScalarKind, ScalarType


@dataclass
class CycleReport:
    """One run's cycles, broken down by category."""

    total: int = 0
    by_category: dict[str, int] = field(default_factory=dict)
    instruction_counts: dict[str, int] = field(default_factory=dict)


class CostModel:
    """Per-operation cycle costs for one processor."""

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor
        self.costs: CostTable = processor.costs

    # -- scalar operations ------------------------------------------------

    def binop(self, op: str, operand: ScalarType) -> int:
        base = self.costs.for_binop(op)
        if not operand.is_complex:
            return base
        if op in ("add", "sub"):
            return 2 * self.costs.add
        if op == "mul":
            return 4 * self.costs.mul + 2 * self.costs.add
        if op == "div":
            # (4 mul + 2 add) numerator, |d|^2, two divides.
            return 4 * self.costs.mul + 3 * self.costs.add + \
                2 * self.costs.div
        if op in ("eq", "ne"):
            return 2 * self.costs.compare
        return 2 * base

    def unop(self, op: str, operand: ScalarType) -> int:
        if operand.is_complex:
            return 2 * self.costs.add
        return self.costs.add

    def math(self, name: str, operand: ScalarType) -> int:
        base = self.costs.for_math(name)
        if not operand.is_complex:
            return base
        if name in ("real", "imag"):
            return self.costs.move
        if name == "conj":
            return self.costs.add
        if name == "abs":
            return 2 * self.costs.mul + self.costs.add + self.costs.sqrt
        return 4 * base  # complex transcendental via real routines

    def load(self, elem: ScalarType) -> int:
        return 2 * self.costs.load if elem.is_complex else self.costs.load

    def store(self, elem: ScalarType) -> int:
        return 2 * self.costs.store if elem.is_complex else self.costs.store

    def cast(self) -> int:
        return self.costs.move

    def move(self) -> int:
        return self.costs.move

    def branch(self) -> int:
        return self.costs.branch

    def call(self) -> int:
        return self.costs.call

    def copy_element(self, elem: ScalarType) -> int:
        return self.load(elem) + self.store(elem)

    def intrinsic(self, cycles: int) -> int:
        return cycles


def kind_of(expr_type) -> ScalarKind:
    if isinstance(expr_type, ScalarType):
        return expr_type.kind
    return ScalarKind.F64
