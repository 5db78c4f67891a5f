"""Cycle-cost model of the target ASIP.

The simulator counts processor-free *cost terms*; this module prices
them.  A term is a tuple naming the :class:`CostModel` method that
prices one occurrence of it, followed by that method's arguments:

* ``("move",)``, ``("cast",)``, ``("branch",)``, ``("call",)``;
* ``("load", is_complex)``, ``("store", is_complex)`` and
  ``("copy", is_complex)`` (one element of an array copy);
* ``("binop", op, is_complex)`` and ``("unop", op, is_complex)``, where
  ``is_complex`` describes the operand;
* ``("math", name, is_complex)``;
* ``("intrinsic", name)``: a custom instruction, priced from the
  processor's instruction table by name.

Complex scalar arithmetic is expanded into its real-operation
equivalent — a complex multiply on a plain scalar datapath is four
multiplies and two adds, which is exactly the gap the paper's
``cmul``/``cmac`` custom instructions close.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from repro.asip.model import CostTable, ProcessorDescription
from repro.errors import SimulationError

#: ``CycleReport.by_category`` keys, in report order.
CATEGORIES = ("move", "mem", "branch", "alu", "math", "call", "intrinsic")

#: Category index of each term kind.
_TERM_CATEGORY = {
    "move": 0, "load": 1, "store": 1, "copy": 1, "branch": 2,
    "binop": 3, "unop": 3, "cast": 3, "math": 4, "call": 5, "intrinsic": 6,
}


@dataclass
class CycleReport:
    """One run's cycles, broken down by category.

    ``by_category`` holds the categories that charged cycles, in
    :data:`CATEGORIES` order; ``instruction_counts`` holds the custom
    instructions that executed, sorted by name.  Neither holds a zero.
    """

    total: int = 0
    by_category: dict[str, int] = field(default_factory=dict)
    instruction_counts: dict[str, int] = field(default_factory=dict)


class PricedPoint(NamedTuple):
    """One execution of a charge point, priced.  Every part lists only
    non-zero entries."""

    #: (category index, cycles) pairs.
    categories: tuple[tuple[int, int], ...]
    #: (instruction name, executions) pairs.
    instructions: tuple[tuple[str, int], ...]
    #: (source line, cycles) pairs.
    lines: tuple[tuple[int, int], ...]


class CostModel:
    """Per-operation cycle costs for one processor."""

    def __init__(self, processor: ProcessorDescription):
        self.processor = processor
        self.costs: CostTable = processor.costs
        self._instruction_cycles = {instr.name: instr.cycles
                                    for instr in processor.instructions}

    # -- pricing a profile ----------------------------------------------

    def cycles(self, term: tuple) -> int:
        """Cycles of one occurrence of ``term``."""
        return getattr(self, term[0])(*term[1:])

    def price(self, terms: Mapping[tuple[int, tuple], int]) -> PricedPoint:
        """Price one execution of a charge point: ``terms`` maps
        ``(source line, term)`` to its occurrences per execution."""
        categories = [0] * len(CATEGORIES)
        instructions: dict[str, int] = {}
        lines: dict[int, int] = {}
        for (line, term), count in terms.items():
            cycles = count * self.cycles(term)
            categories[_TERM_CATEGORY[term[0]]] += cycles
            lines[line] = lines.get(line, 0) + cycles
            if term[0] == "intrinsic":
                instructions[term[1]] = \
                    instructions.get(term[1], 0) + count
        return PricedPoint(
            tuple((i, c) for i, c in enumerate(categories) if c),
            tuple(instructions.items()),
            tuple((line, c) for line, c in lines.items() if c))

    # -- scalar operations ------------------------------------------------

    def binop(self, op: str, is_complex: bool) -> int:
        base = self.costs.for_binop(op)
        if not is_complex:
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

    def unop(self, op: str, is_complex: bool) -> int:
        if is_complex:
            return 2 * self.costs.add
        return self.costs.add

    def math(self, name: str, is_complex: bool) -> int:
        base = self.costs.for_math(name)
        if not is_complex:
            return base
        if name in ("real", "imag"):
            return self.costs.move
        if name == "conj":
            return self.costs.add
        if name == "abs":
            return 2 * self.costs.mul + self.costs.add + self.costs.sqrt
        return 4 * base  # complex transcendental via real routines

    def load(self, is_complex: bool) -> int:
        return 2 * self.costs.load if is_complex else self.costs.load

    def store(self, is_complex: bool) -> int:
        return 2 * self.costs.store if is_complex else self.costs.store

    def copy(self, is_complex: bool) -> int:
        return self.load(is_complex) + self.store(is_complex)

    def cast(self) -> int:
        return self.costs.move

    def move(self) -> int:
        return self.costs.move

    def branch(self) -> int:
        return self.costs.branch

    def call(self) -> int:
        return self.costs.call

    def intrinsic(self, name: str) -> int:
        cycles = self._instruction_cycles.get(name)
        if cycles is None:
            raise SimulationError(
                f"processor {self.processor.name!r} has no instruction "
                f"{name!r}")
        return cycles


def cycle_report(charged: Iterable[tuple[int, PricedPoint]]) -> CycleReport:
    """The report of a run that executed each priced point ``n`` times,
    given as ``(n, point)`` pairs with ``n > 0``."""
    by_category = [0] * len(CATEGORIES)
    counts: dict[str, int] = {}
    for n, point in charged:
        for index, cycles in point.categories:
            by_category[index] += n * cycles
        for name, count in point.instructions:
            counts[name] = counts.get(name, 0) + n * count
    return CycleReport(
        total=sum(by_category),
        by_category={CATEGORIES[i]: cycles
                     for i, cycles in enumerate(by_category) if cycles},
        instruction_counts=dict(sorted(counts.items())))


def line_cycles(charged: Iterable[tuple[int, PricedPoint]]) \
        -> dict[int, int]:
    """Cycles per source line of the same run, sorted by line."""
    lines: dict[int, int] = {}
    for n, point in charged:
        for line, cycles in point.lines:
            lines[line] = lines.get(line, 0) + n * cycles
    return dict(sorted(lines.items()))
