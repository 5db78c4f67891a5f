"""Properties of the cycle simulator over generated programs.

For random well-typed programs from the fuzz generator, one simulation
must account for every cycle it charges: each charge point contributes
its priced static cost times the number of times it executed, the
categories sum to the total, a line profile sums to the same total,
profiling changes nothing else, the executed counts do not depend on
the processor's costs, and the outputs match the golden interpreter.
"""

from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import cost_variant
from repro.compiler import compile_source
from repro.errors import UnsupportedFeatureError
from repro.fuzz import ProgramGenerator
from repro.fuzz.oracle import _TOLERANCE, _program_dtype, compare_outputs
from repro.mlab.interp import MatlabInterpreter
from repro.sim.compiled import CompiledProgram
from repro.sim.cost import CATEGORIES, CostModel


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=30, deadline=None)
# Squares a single array in a loop until its elements overflow to Inf.
@example(seed=213287)
# Reshapes a complex parameter inside a call that wants a real operand.
@example(seed=158258)
def test_cycle_report_accounts_for_every_cycle(seed):
    program = ProgramGenerator(seed).generate()
    try:
        result = compile_source(program.source, args=program.arg_specs(),
                                entry=program.entry, use_cache=False)
    except UnsupportedFeatureError:
        assume(False)
    plain = result.simulate(program.inputs())
    translated = result.compiled_program()
    executed = list(translated.counts)
    profiled = result.simulate(program.inputs(), hotspots=True)

    # Each point contributes its static cost x its executed count.
    cost = CostModel(result.processor)
    categories, lines, instructions = Counter(), Counter(), Counter()
    for terms, n in zip(translated.points, executed):
        for (line, term), count in terms.items():
            cycles = n * count * cost.cycles(term)
            categories[_category(term)] += cycles
            lines[line] += cycles
            if term[0] == "intrinsic":
                instructions[term[1]] += n * count
    report = plain.report
    assert report.by_category == {
        name: categories[name] for name in CATEGORIES if categories[name]}
    assert report.instruction_counts == {
        name: count for name, count in sorted(instructions.items())
        if count}
    assert profiled.line_cycles == {
        line: cycles for line, cycles in sorted(lines.items()) if cycles}

    assert report.total == sum(report.by_category.values())
    assert sum(profiled.line_cycles.values()) == report.total
    assert profiled.report == report
    assert profiled.stdout == plain.stdout

    # The counts are the processor's to price, not to change.
    variant = CompiledProgram(result.module, cost_variant(result.processor))
    variant.run(program.inputs())
    assert variant.counts == executed

    golden = MatlabInterpreter(program.source).call(
        program.entry, program.inputs(), nargout=program.nargout)
    rtol = _TOLERANCE[(_program_dtype(program), "sim")]
    assert compare_outputs(golden, plain.outputs, rtol) is None


def _category(term: tuple) -> str:
    """The report category of a term kind, spelled out independently of
    the cost model's own table."""
    return {"load": "mem", "store": "mem", "copy": "mem", "binop": "alu",
            "unop": "alu", "cast": "alu"}.get(term[0], term[0])
