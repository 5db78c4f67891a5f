"""Runs every C fallback against the simulator's code for its operation.

For each (operation, element kind, lanes) a processor of
:func:`helpers.pinned_processors` declares, one case calls the
intrinsic's portable C fallback on seeded random operands and compares
the result with the operation's simulator template (``Operation.sim``)
evaluated on the same operands; loads, stores and splats, which the
simulator builds itself, compare with the numpy code it builds.  All
fallbacks and the driver that calls them form one strict-C89
translation unit, compiled with one gcc call.

Real float operations run a second time with a NaN lane, and ``clip``
a second time with ``lo > hi``.  Known divergences are strict xfails:
the C ternaries of ``vmin``, ``vmax``, ``vredmin`` and ``vredmax`` drop
a NaN the simulator's numpy keeps (MATLAB's min/max ignore it); C
``clip`` returns ``lo`` when ``lo > hi`` where the simulator's
``min(max(x, lo), hi)`` returns ``hi``; and integer ``vdiv`` truncates
in C where the simulator's ``/`` keeps the fraction.
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from helpers import pinned_processors, requires_gcc
from repro.asip.header_gen import (c_elem_name, generate_header,
                                   vector_type_name)
from repro.asip.model import ProcessorDescription
from repro.asip.operations import OPERATIONS
from repro.ir.types import ScalarKind
from repro.sim.compiled import _BASE_NS
from repro.sim.machine import numpy_dtype


def _declared() -> dict:
    found = {}
    for processor in pinned_processors():
        for instr in processor.instructions:
            found.setdefault((instr.operation, instr.elem, instr.lanes),
                             instr)
    return found


INSTRUCTIONS = _declared()


def _known_divergence(operation: str, elem: ScalarKind,
                      variant: str) -> str | None:
    if variant == "nan" and operation in ("vmin", "vmax", "vredmin",
                                          "vredmax"):
        return "the C ternary drops a NaN numpy keeps"
    if variant == "inverted":
        return "C clip returns lo when lo > hi"
    if operation == "vdiv" and elem.is_integer:
        return "C truncates the quotient, numpy's '/' does not"
    return None


def _cases() -> list:
    """``(number, instr, variant)`` parameters."""
    cases = []
    for (operation, elem, lanes), instr in INSTRUCTIONS.items():
        variants = ["random"]
        if elem.is_float:
            variants.append("nan")
        if operation == "clip":
            variants.append("inverted")
        for variant in variants:
            reason = _known_divergence(operation, elem, variant)
            marks = [pytest.mark.xfail(strict=True, reason=reason)] \
                if reason else []
            name = f"{operation}-{elem.value}x{lanes}"
            if variant != "random":
                name += f"-{variant}"
            cases.append(pytest.param(len(cases), instr, variant, id=name,
                                      marks=marks))
    return cases


CASES = _cases()


def _inputs(instr, variant: str) -> list:
    """The operands the case passes, as the simulator holds them."""
    op = OPERATIONS[instr.operation]
    params = op.params[1:] if op.shape == "store" else op.params
    count = 1 if op.shape in ("splat", "scalar") else instr.lanes
    seed = list(INSTRUCTIONS).index(
        (instr.operation, instr.elem, instr.lanes))
    rng = np.random.default_rng(seed)
    values = []
    for _ in params:
        if instr.elem.is_integer:
            v = rng.integers(-50, 51, count)
        else:
            v = rng.uniform(-4.0, 4.0, count)
            if instr.elem.is_complex:
                v = v + 1j * rng.uniform(-4.0, 4.0, count)
        values.append(v.astype(numpy_dtype(instr.elem)))
    if op.tag == "vdiv":
        values[1][values[1] == 0] = 1
    if op.tag == "clip":  # lo <= hi; inverted: x <= hi < lo
        x, lo, hi = (v[0] for v in values)
        if variant == "inverted":
            x, hi, lo = sorted((x, lo, hi))
        else:
            lo, hi = sorted((lo, hi))
        values = [np.array([v]) for v in (x, lo, hi)]
    if variant == "nan":
        values[0][min(1, count - 1)] = np.nan
    if count == 1:
        return [v[0].item() for v in values]
    return values


def _simulated(instr, args: list):
    op = OPERATIONS[instr.operation]
    if op.tag in ("vload", "vstore"):
        return args[0]
    if op.tag == "vloadr":
        return args[0][::-1]
    if op.tag == "vsplat":
        return _BASE_NS["_splat"](instr.lanes, args[0],
                                  numpy_dtype(instr.elem))
    names = [f"_x{k}" for k in range(len(args))]
    return eval(op.sim.format(*names), dict(_BASE_NS, **dict(zip(names,
                                                                 args))))


def _c_number(kind: ScalarKind, value) -> str:
    if kind.is_complex:
        parts = (_c_number(kind.real_kind, part)
                 for part in (value.real, value.imag))
        return f"{c_elem_name(kind)}_make({', '.join(parts)})"
    if kind.is_integer:
        return str(int(value))
    value = float(value)
    return "NAN_" if value != value else repr(value)


def _c_print(kind: ScalarKind, code: str) -> str:
    if kind.is_complex:
        return (f'printf(" %.17g %.17g", (double)({code}).re, '
                f'(double)({code}).im);')
    return f'printf(" %.17g", (double)({code}));'


def _c_case(number: int, instr, args: list) -> str:
    """A driver function that calls ``instr`` on ``args`` and prints
    the result on one line."""
    op = OPERATIONS[instr.operation]
    elem, lanes = instr.elem, instr.lanes
    ctype, vt = c_elem_name(elem), vector_type_name(elem, lanes)
    decls, sets = [], []
    inputs = op.params[1:] if op.shape == "store" else op.params
    for param, value in zip(inputs, args):
        if op.shape in ("splat", "scalar"):
            decls.append(f"{ctype} {param};")
            sets.append(f"{param} = {_c_number(elem, value)};")
        elif op.shape == "load":
            decls.append(f"{ctype} {param}[{lanes}];")
            sets += [f"{param}[{i}] = {_c_number(elem, v)};"
                     for i, v in enumerate(value)]
        else:
            decls.append(f"{vt} {param};")
            sets += [f"{param}.v[{i}] = {_c_number(elem, v)};"
                     for i, v in enumerate(value)]
    call = f"{instr.intrinsic}({', '.join(op.params)})"
    result = op.result_kind(elem)
    if op.shape == "store":
        decls.append(f"{ctype} p[{lanes}];")
        sets.append(f"{call};")
        prints = [_c_print(elem, f"p[{i}]") for i in range(lanes)]
    elif op.shape in ("reduce", "scalar"):
        decls.append(f"{c_elem_name(result)} r;")
        sets.append(f"r = {call};")
        prints = [_c_print(result, "r")]
    else:
        decls.append(f"{vt} r;")
        sets.append(f"r = {call};")
        prints = [_c_print(elem, f"r.v[{i}]") for i in range(lanes)]
    body = "\n    ".join(decls + sets + prints + ['printf("\\n");'])
    return f"static void case_{number}(void)\n{{\n    {body}\n}}\n"


def _translation_unit() -> str:
    header = generate_header(ProcessorDescription(
        name="coverage", instructions=list(INSTRUCTIONS.values())))
    cases = [_c_case(k, instr, _inputs(instr, variant))
             for k, instr, variant in (param.values for param in CASES)]
    calls = "\n    ".join(f"case_{k}();" for k in range(len(CASES)))
    return "\n".join([
        header, "",
        "static double zero_ = 0.0;",
        "#define NAN_ (zero_ / zero_)", "",
        *cases,
        f"int main(void)\n{{\n    {calls}\n    return 0;\n}}\n"])


@pytest.fixture(scope="module")
def c_results(tmp_path_factory) -> list:
    """One line of printed results per case, from one gcc build."""
    work = tmp_path_factory.mktemp("operations")
    source, binary = work / "operations.c", work / "operations"
    source.write_text(_translation_unit())
    build = subprocess.run(
        ["gcc", "-std=c89", "-pedantic-errors", "-Wall",
         "-Wno-unused-function", "-Werror", "-O0", str(source),
         "-o", str(binary), "-lm"],
        capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr
    run = subprocess.run([str(binary)], check=True, capture_output=True,
                         text=True, timeout=60)
    lines = run.stdout.splitlines()
    assert len(lines) == len(CASES)
    return [[float(word) for word in line.split()] for line in lines]


def test_cases_cover_every_operation():
    # 288 triples on the shipped and width processors, 250 on the
    # design-space candidates.
    assert len(INSTRUCTIONS) == 364
    assert {key[0] for key in INSTRUCTIONS} == set(OPERATIONS)


@requires_gcc
@pytest.mark.parametrize("number, instr, variant", CASES)
def test_fallback_matches_simulator(number, instr, variant, c_results):
    want = np.atleast_1d(np.asarray(
        _simulated(instr, _inputs(instr, variant))))
    got = np.array(c_results[number])
    if np.iscomplexobj(want):
        got = got[0::2] + 1j * got[1::2]
    if instr.elem.is_integer:
        np.testing.assert_array_equal(got, want)
        return
    tight = instr.elem.real_kind is ScalarKind.F64
    np.testing.assert_allclose(got, want, rtol=1e-12 if tight else 1e-5,
                               atol=1e-12 if tight else 1e-4,
                               equal_nan=True)
