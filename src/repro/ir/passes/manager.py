"""Pass manager for IR-to-IR optimization passes.

A pass is any object with ``name`` and ``run(func: IRFunction) -> bool``
(returning True when it changed something).  The manager runs its pass
list over every function of a module repeatedly until a fixpoint, with a
safety bound: it stops as soon as every pass has run on the current IR
without changing it.  The standard pipelines used by the compiler driver
live here so the ablation benchmarks can switch them off selectively.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Protocol

from repro.ir import nodes as ir
from repro.observe import remarks as obs_remarks
from repro.observe import trace as obs_trace


class Pass(Protocol):  # pragma: no cover - typing only
    name: str

    def run(self, func: ir.IRFunction) -> bool: ...


def _print_changed(pass_: Pass, func: ir.IRFunction, round_: int) -> None:
    """IR-after-pass dump for the CLI's ``--print-changed``."""
    from repro.ir.printer import format_function
    print(f";; IR after {pass_.name} "
          f"(function {func.name}, round {round_})", file=sys.stderr)
    print(format_function(func), file=sys.stderr)


@dataclass
class PassManager:
    """Runs a pass pipeline to fixpoint over an IR module."""

    passes: list[Pass] = field(default_factory=list)
    max_rounds: int = 8

    def run(self, module: ir.IRModule) -> dict[str, int]:
        """Run all passes; returns per-pass change counts (diagnostics).

        Besides per-pass change counts, the stats record the number of
        fixpoint rounds taken per function under ``rounds[<name>]``
        keys.  When the ``max_rounds`` safety bound is hit before the
        pipeline converges, an ``analysis`` remark is emitted into the
        ambient trace session.
        """
        session = obs_trace.current()
        stats: dict[str, int] = {}
        for func in module.functions:
            rounds = 0
            # Passes run since the IR last changed.  Once every pass has
            # run on the current IR without changing it, a further round
            # would change nothing: stop there, even mid-round.  The pass
            # that changed the IR last runs again too (DCE can change its
            # own output).
            unchanged = 0
            converged = False
            while not converged and rounds < self.max_rounds:
                rounds += 1
                for pass_ in self.passes:
                    with session.span(pass_.name, "pass",
                                      function=func.name,
                                      round=rounds) as span:
                        did_change = pass_.run(func)
                    session.observe(f"pass.{pass_.name}_s",
                                    span.duration)
                    if did_change:
                        unchanged = 0
                        stats[pass_.name] = stats.get(pass_.name, 0) + 1
                        if session.print_changed:
                            _print_changed(pass_, func, rounds)
                    else:
                        unchanged += 1
                    if unchanged == len(self.passes):
                        break
                converged = unchanged == len(self.passes)
            stats[f"rounds[{func.name}]"] = \
                stats.get(f"rounds[{func.name}]", 0) + rounds
            if not converged:
                obs_remarks.analysis(
                    "pass-manager",
                    f"stopped after max_rounds={self.max_rounds} rounds "
                    "without reaching a fixpoint; results may be "
                    "under-optimized",
                    function=func.name)
        return stats


def standard_pipeline() -> PassManager:
    """Pre-vectorization scalar pipeline.

    Deliberately excludes CSE: CSE introduces scalar index temporaries
    inside loop bodies that would hide the store/reduction patterns the
    SIMD vectorizer matches.  CSE belongs in :func:`cleanup_pipeline`,
    which runs after instruction selection.

    Slice forwarding runs first, while the gather nests of inlined
    slice arguments are still in the lowerer's shape.
    """
    from repro.ir.passes.constant_folding import ConstantFolding
    from repro.ir.passes.dce import DeadCodeElimination
    from repro.ir.passes.licm import LoopInvariantCodeMotion
    from repro.ir.passes.loop_fusion import LoopFusion
    from repro.ir.passes.propagation import ConstantPropagation
    from repro.ir.passes.slice_forwarding import SliceForwarding
    from repro.ir.passes.while_to_for import WhileToFor

    return PassManager(passes=[
        SliceForwarding(),
        ConstantPropagation(),
        ConstantFolding(),
        WhileToFor(),
        LoopFusion(),
        LoopInvariantCodeMotion(),
        DeadCodeElimination(),
    ])


def cleanup_pipeline() -> PassManager:
    """Post-vectorization cleanup: folding, CSE, DCE."""
    from repro.ir.passes.constant_folding import ConstantFolding
    from repro.ir.passes.cse import CommonSubexpressionElimination
    from repro.ir.passes.dce import DeadCodeElimination
    from repro.ir.passes.propagation import ConstantPropagation

    return PassManager(passes=[
        ConstantPropagation(),
        ConstantFolding(),
        CommonSubexpressionElimination(),
        DeadCodeElimination(),
    ])
