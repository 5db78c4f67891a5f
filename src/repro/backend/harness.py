"""Host-compilation harness.

Proves the paper's ANSI-C claim end-to-end: the generated translation
unit (intrinsics fallbacks + compiled functions) is combined with a
``main()`` that embeds concrete input data, compiled with a host C
compiler in strict C89 mode, executed, and its printed outputs parsed
back for comparison against the golden interpreter / simulator.
"""

from __future__ import annotations

import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.backend.c_types import c_type_name
from repro.errors import BackendError
from repro.ir.types import ArrayType, ScalarKind, ScalarType

#: Strict-ANSI conformance flags (the paper targets "any C compiler");
#: shared by the exec harness and the native ``.so`` build.
STRICT_FLAGS = ["-std=c89", "-pedantic"]

#: Compile-phase flags for the exec harness.
COMPILE_FLAGS = [*STRICT_FLAGS, "-O1"]

#: Link-phase flags.  Kept separate from the compile flags so ``-lm``
#: is always passed *after* the source files: toolchains that process
#: libraries positionally resolve undefined symbols left to right, and
#: a leading ``-lm`` silently links nothing.
LINK_FLAGS = ["-lm"]

#: Back-compat combined set; callers passing one flat list get it
#: re-split by :func:`split_flags` before the compiler is invoked.
DEFAULT_FLAGS = [*COMPILE_FLAGS, *LINK_FLAGS]


def split_flags(flags: "list[str]") -> "tuple[list[str], list[str]]":
    """Split one flat flag list into (compile flags, link flags)."""
    link = [f for f in flags if f.startswith("-l")]
    compile_ = [f for f in flags if not f.startswith("-l")]
    return compile_, link


def _literal(value: float, f32: bool) -> str:
    text = repr(float(value))
    if text == "inf":
        return "HUGE_VAL"
    if text == "-inf":
        return "-HUGE_VAL"
    if "e" not in text and "." not in text:
        text += ".0"
    return text + ("f" if f32 else "")


def _array_initializer(values: np.ndarray, elem: ScalarType) -> str:
    f32 = elem.kind in (ScalarKind.F32, ScalarKind.C64)
    flat = np.asarray(values).reshape(-1, order="F")
    if elem.is_complex:
        parts = [f"{{{_literal(v.real, f32)}, {_literal(v.imag, f32)}}}"
                 for v in flat.astype(complex)]
    elif elem.is_integer:
        parts = [str(int(v)) for v in flat]
    else:
        parts = [_literal(float(v), f32) for v in flat]
    return "{" + ", ".join(parts) + "}"


def generate_main(module, args: list[object]) -> str:
    """A ``main()`` calling the entry point on embedded input data."""
    entry = module.entry_function
    lines: list[str] = ["int main(void)", "{"]
    call_args: list[str] = []
    for index, (param, value) in enumerate(zip(entry.params, args)):
        name = f"in{index}"
        if isinstance(param.type, ArrayType):
            elem = ScalarType(param.type.elem.kind)
            init = _array_initializer(np.asarray(value), elem)
            lines.append(f"    static const {c_type_name(param.type)} "
                         f"{name}[{param.type.numel}] = {init};")
            call_args.append(name)
        else:
            scalar = param.type
            # Callers may pass a 1x1 array for a scalar parameter (the
            # interpreter's canonical form); numpy refuses complex() on
            # non-0-d arrays, so collapse to a Python scalar first.
            if isinstance(value, np.ndarray):
                value = value.reshape(-1)[0]
            if scalar.is_complex:
                v = complex(value)
                call_args.append(
                    f"asip_c128_make({_literal(v.real, False)}, "
                    f"{_literal(v.imag, False)})"
                    if scalar.kind is ScalarKind.C128 else
                    f"asip_c64_make({_literal(v.real, True)}, "
                    f"{_literal(v.imag, True)})")
            elif scalar.is_integer:
                call_args.append(str(int(value)))
            else:
                f32 = scalar.kind is ScalarKind.F32
                call_args.append(_literal(float(value), f32))

    out_decls: list[str] = []
    for index, out in enumerate(entry.outputs):
        name = f"o{index}"
        if isinstance(out.type, ArrayType):
            out_decls.append(f"    static {c_type_name(out.type)} "
                             f"{name}[{out.type.numel}];")
            call_args.append(name)
        else:
            out_decls.append(f"    {c_type_name(out.type)} {name};")
            call_args.append(f"&{name}")
    lines.extend(out_decls)
    lines.append("    {")
    lines.append(f"        {entry.name}({', '.join(call_args)});")
    lines.append("    }")

    for index, out in enumerate(entry.outputs):
        name = f"o{index}"
        if isinstance(out.type, ArrayType):
            elem = out.type.elem
            lines.append("    {")
            lines.append("        int i;")
            if elem.is_complex:
                lines.append(
                    f"        for (i = 0; i < {out.type.numel}; ++i) "
                    f'printf("%.17g %.17g\\n", (double){name}[i].re, '
                    f"(double){name}[i].im);")
            else:
                lines.append(
                    f"        for (i = 0; i < {out.type.numel}; ++i) "
                    f'printf("%.17g\\n", (double){name}[i]);')
            lines.append("    }")
        else:
            if out.type.is_complex:
                lines.append(f'    printf("%.17g %.17g\\n", '
                             f"(double){name}.re, (double){name}.im);")
            else:
                lines.append(f'    printf("%.17g\\n", (double){name});')
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines)


def run_via_gcc(result, args: list[object], cc: str = "gcc",
                flags: list[str] | None = None) -> list[object]:
    """Compile the generated C with a host compiler and execute it.

    Returns the entry point's outputs as numpy arrays / scalars in
    MATLAB shape, parsed from the program's stdout.
    """
    from repro.backend.emitter import emit_c

    flags = list(DEFAULT_FLAGS if flags is None else flags)
    module = result.module
    main_text = generate_main(module, args)
    source = emit_c(module, result.processor, main_body=main_text)

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        c_path = workdir / "generated.c"
        exe_path = workdir / "generated"
        c_path.write_text(source)
        compile_flags, link_flags = split_flags(flags)
        proc = subprocess.run(
            [cc, *compile_flags, str(c_path), "-o", str(exe_path),
             *link_flags],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise BackendError(
                f"host C compilation failed:\n{proc.stderr}")
        run = subprocess.run([str(exe_path)], capture_output=True,
                             text=True, timeout=120)
        if run.returncode != 0:
            raise BackendError(
                f"compiled program exited with {run.returncode}:\n"
                f"{run.stderr}")
        return _parse_outputs(module, run.stdout)


def _parse_outputs(module, stdout: str) -> list[object]:
    entry = module.entry_function
    lines = [line for line in stdout.splitlines() if line.strip()]
    outputs: list[object] = []
    cursor = 0
    for out in entry.outputs:
        if isinstance(out.type, ArrayType):
            count = out.type.numel
            chunk = lines[cursor:cursor + count]
            cursor += count
            if out.type.elem.is_complex:
                values = np.array([complex(float(a), float(b))
                                   for a, b in (line.split()
                                                for line in chunk)])
            else:
                values = np.array([float(line) for line in chunk])
            outputs.append(values.reshape((out.type.rows, out.type.cols),
                                          order="F"))
        else:
            line = lines[cursor]
            cursor += 1
            if out.type.is_complex:
                re, im = line.split()
                outputs.append(complex(float(re), float(im)))
            else:
                outputs.append(float(line))
    return outputs
