"""Complex-arithmetic custom-instruction selection.

Maps scalar complex operations onto the target's complex-arithmetic unit
when the processor description provides one: ``a*b`` becomes ``cmul``,
``x + a*b`` becomes the fused ``cmac``, ``conj(z)`` becomes ``cconj``,
and the power-spectrum idiom ``real(z)*real(z) + imag(z)*imag(z)``
becomes ``cmag2``.  On a plain scalar datapath a complex multiply costs
four multiplies and two adds; these instructions are where the paper's
speedup on complex DSP kernels comes from.  The rows are the
``complex-select`` group of :data:`repro.vectorize.select.PATTERNS`.
"""

from __future__ import annotations

from repro.vectorize.select import PatternSelector


class ComplexInstructionSelector(PatternSelector):
    """Rewrites scalar complex arithmetic to custom-instruction calls."""

    name = "complex-select"
