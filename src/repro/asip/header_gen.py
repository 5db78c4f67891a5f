"""Intrinsics-header generation.

The generated C represents every custom instruction as a call to a
specialized intrinsic function (the paper's key mechanism for staying
ANSI: "the generated code can be used as input to any C/C++ compiler").
This module renders, for one :class:`ProcessorDescription`:

* complex-number struct types and helper routines,
* SIMD vector struct types for every (element, lanes) the ISA uses,
* a portable ANSI C implementation of every intrinsic, printed from
  its operation's record in :mod:`repro.asip.operations`, so host
  compilation with any C compiler is functional — on the real ASIP the
  vendor toolchain would map the same calls onto hardware instructions.
"""

from __future__ import annotations

import functools

from repro.asip.model import Instruction, ProcessorDescription
from repro.asip.operations import OPERATIONS
from repro.ir.types import ScalarKind

_C_ELEM = {
    ScalarKind.BOOL: "int",
    ScalarKind.I8: "signed char",
    ScalarKind.I16: "short",
    ScalarKind.I32: "int",
    ScalarKind.F32: "float",
    ScalarKind.F64: "double",
    ScalarKind.C64: "asip_c64",
    ScalarKind.C128: "asip_c128",
}


def c_elem_name(kind: ScalarKind) -> str:
    return _C_ELEM[kind]


def vector_type_name(kind: ScalarKind, lanes: int) -> str:
    return f"asip_v{lanes}{kind.value}"


_PRELUDE = r"""/* Generated by repro-mc: ASIP intrinsic support header.
 * Portable ANSI C fallback implementations; the target toolchain maps
 * each asip_* call onto the corresponding custom instruction. */
#ifndef REPRO_ASIP_INTRINSICS_H
#define REPRO_ASIP_INTRINSICS_H

#include <math.h>
#include <stdio.h>
#include <string.h>

/* ---- complex scalar types -------------------------------------- */

typedef struct { float re, im; } asip_c64;
typedef struct { double re, im; } asip_c128;

static asip_c64 asip_c64_make(float re, float im)
{ asip_c64 z; z.re = re; z.im = im; return z; }
static asip_c128 asip_c128_make(double re, double im)
{ asip_c128 z; z.re = re; z.im = im; return z; }

static asip_c128 asip_c128_add(asip_c128 a, asip_c128 b)
{ return asip_c128_make(a.re + b.re, a.im + b.im); }
static asip_c128 asip_c128_sub(asip_c128 a, asip_c128 b)
{ return asip_c128_make(a.re - b.re, a.im - b.im); }
static asip_c128 asip_c128_mul(asip_c128 a, asip_c128 b)
{ return asip_c128_make(a.re * b.re - a.im * b.im,
                        a.re * b.im + a.im * b.re); }
static asip_c128 asip_c128_div(asip_c128 a, asip_c128 b)
{
    double d = b.re * b.re + b.im * b.im;
    return asip_c128_make((a.re * b.re + a.im * b.im) / d,
                          (a.im * b.re - a.re * b.im) / d);
}
static asip_c128 asip_c128_neg(asip_c128 a)
{ return asip_c128_make(-a.re, -a.im); }
static asip_c128 asip_c128_conj(asip_c128 a)
{ return asip_c128_make(a.re, -a.im); }
static double asip_c128_abs(asip_c128 a)
{ return sqrt(a.re * a.re + a.im * a.im); }
static double asip_c128_arg(asip_c128 a)
{ return atan2(a.im, a.re); }
static asip_c128 asip_c128_scale(asip_c128 a, double s)
{ return asip_c128_make(a.re * s, a.im * s); }
static asip_c128 asip_c128_exp(asip_c128 a)
{
    double m = exp(a.re);
    return asip_c128_make(m * cos(a.im), m * sin(a.im));
}
static int asip_c128_eq(asip_c128 a, asip_c128 b)
{ return a.re == b.re && a.im == b.im; }

static asip_c64 asip_c64_add(asip_c64 a, asip_c64 b)
{ return asip_c64_make(a.re + b.re, a.im + b.im); }
static asip_c64 asip_c64_sub(asip_c64 a, asip_c64 b)
{ return asip_c64_make(a.re - b.re, a.im - b.im); }
static asip_c64 asip_c64_mul(asip_c64 a, asip_c64 b)
{ return asip_c64_make(a.re * b.re - a.im * b.im,
                       a.re * b.im + a.im * b.re); }
static asip_c64 asip_c64_div(asip_c64 a, asip_c64 b)
{
    float d = b.re * b.re + b.im * b.im;
    return asip_c64_make((a.re * b.re + a.im * b.im) / d,
                         (a.im * b.re - a.re * b.im) / d);
}
static asip_c64 asip_c64_neg(asip_c64 a)
{ return asip_c64_make(-a.re, -a.im); }
static asip_c64 asip_c64_conj(asip_c64 a)
{ return asip_c64_make(a.re, -a.im); }
static float asip_c64_abs(asip_c64 a)
{ return (float)sqrt((double)(a.re * a.re + a.im * a.im)); }
static float asip_c64_arg(asip_c64 a)
{ return (float)atan2((double)a.im, (double)a.re); }
static int asip_c64_eq(asip_c64 a, asip_c64 b)
{ return a.re == b.re && a.im == b.im; }

/* ---- scalar math helpers ---------------------------------------- */

static double asip_round(double x)
{ return x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5); }
static double asip_fix(double x)
{ return x >= 0.0 ? floor(x) : ceil(x); }
static double asip_sign(double x)
{ return (x > 0.0) - (x < 0.0); }
static double asip_mod(double a, double b)
{ return b == 0.0 ? a : a - floor(a / b) * b; }
static double asip_min_f64(double a, double b) { return a < b ? a : b; }
static double asip_max_f64(double a, double b) { return a > b ? a : b; }
static float asip_min_f32(float a, float b) { return a < b ? a : b; }
static float asip_max_f32(float a, float b) { return a > b ? a : b; }
static int asip_min_i32(int a, int b) { return a < b ? a : b; }
static int asip_max_i32(int a, int b) { return a > b ? a : b; }
"""


def _vector_typedefs(pairs: list[tuple[ScalarKind, int]]) -> list[str]:
    lines = ["/* ---- SIMD vector types ------------------------------ */",
             ""]
    for kind, lanes in pairs:
        name = vector_type_name(kind, lanes)
        lines.append(
            f"typedef struct {{ {c_elem_name(kind)} v[{lanes}]; }} {name};")
    lines.append("")
    return lines


_LANE_LOOP = ("{{\n"
              "    {vt} r; int i;\n"
              "    for (i = 0; i < {lanes}; ++i) r.v[i] = {expr};\n"
              "    return r;\n"
              "}}")

#: Per function shape: the C type of each parameter (the last one
#: repeats), the return type and the body around the fallback's
#: expression.
_SHAPES = {
    "load": (("const {elem} *",), "{vt}", _LANE_LOOP),
    "splat": (("{elem} ",), "{vt}", _LANE_LOOP),
    "lanewise": (("{vt} ",), "{vt}", _LANE_LOOP),
    "store": (("{elem} *", "{vt} "), "void",
              "{{\n"
              "    int i;\n"
              "    for (i = 0; i < {lanes}; ++i) p[i] = {expr};\n"
              "}}"),
    "reduce": (("{vt} ",), "{result}",
               "{{\n"
               "    {elem} r = a.v[0]; int i;\n"
               "    for (i = 1; i < {lanes}; ++i) r = {expr};\n"
               "    return r;\n"
               "}}"),
    "scalar": (("{elem} ",), "{result}", "{{ return {expr}; }}"),
}


def _render_instruction(instr: Instruction) -> str:
    """The C fallback of ``instr``, printed from its operation's record."""
    op = OPERATIONS[instr.operation]
    types, result, body = _SHAPES[op.shape]
    params = ", ".join(types[min(k, len(types) - 1)] + name
                       for k, name in enumerate(op.params))
    names = {"elem": c_elem_name(instr.elem), "lanes": instr.lanes,
             "vt": vector_type_name(instr.elem, instr.lanes),
             "result": c_elem_name(op.result_kind(instr.elem))}
    expr = op.c_expr(instr.elem).format(**names)
    return (f"static {result} {{fn}}({params})\n{body}"
            .format(fn=instr.intrinsic, expr=expr, **names))


@functools.lru_cache(maxsize=32)
def generate_header(processor: ProcessorDescription) -> str:
    """Render the complete intrinsics header for ``processor``.

    Memoized on the processor fingerprint (descriptions hash by
    content): the header is a pure function of the instruction list and
    is requested once per compilation.
    """
    lines = [_PRELUDE]
    pairs: list[tuple[ScalarKind, int]] = []
    for instr in processor.instructions:
        key = (instr.elem, instr.lanes)
        if instr.lanes > 1 and key not in pairs:
            pairs.append(key)
    lines.extend(_vector_typedefs(pairs))
    lines.append(f"/* ---- custom instructions of {processor.name} ---- */")
    lines.append("")
    for instr in processor.instructions:
        lines.append(f"/* {instr.name}: {instr.description} "
                     f"({instr.cycles} cycles) */")
        lines.append(_render_instruction(instr))
        lines.append("")
    lines.append("#endif /* REPRO_ASIP_INTRINSICS_H */")
    return "\n".join(lines)
