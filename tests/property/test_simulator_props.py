"""Properties of the cycle simulator over generated programs.

For random well-typed programs from the fuzz generator, one simulation
must account for every cycle it charges: the categories sum to the
total, a line profile sums to the same total, profiling changes nothing
else, and the outputs match the golden interpreter.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.errors import UnsupportedFeatureError
from repro.fuzz import ProgramGenerator
from repro.fuzz.oracle import _TOLERANCE, _program_dtype, compare_outputs
from repro.mlab.interp import MatlabInterpreter


@given(st.integers(min_value=0, max_value=2 ** 31))
@settings(max_examples=30, deadline=None)
def test_cycle_report_accounts_for_every_cycle(seed):
    program = ProgramGenerator(seed).generate()
    try:
        result = compile_source(program.source, args=program.arg_specs(),
                                entry=program.entry, use_cache=False)
    except UnsupportedFeatureError:
        assume(False)
    plain = result.simulate(program.inputs())
    profiled = result.simulate(program.inputs(), hotspots=True)

    report = plain.report
    assert report.total == sum(report.by_category.values())
    assert sum(profiled.line_cycles.values()) == report.total
    assert profiled.report == report
    assert profiled.stdout == plain.stdout

    golden = MatlabInterpreter(program.source).call(
        program.entry, program.inputs(), nargout=program.nargout)
    rtol = _TOLERANCE[(_program_dtype(program), "sim")]
    assert compare_outputs(golden, plain.outputs, rtol) is None
