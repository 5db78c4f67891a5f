"""Scalar idiom recognition against custom instructions.

Two idioms, each a row of :data:`repro.vectorize.select.PATTERNS`:

* multiply-accumulate — ``x + a*b`` on a real scalar maps to the DSP's
  single-cycle ``mac`` instruction, the classic ASIP customization even
  scalar-only targets carry;
* clip — ``min(max(x, lo), hi)`` (the min-outer nesting only) maps to
  the saturation/clip unit common on audio/telecom ASIPs.
"""

from __future__ import annotations

from repro.vectorize.select import PatternSelector


class ScalarMacSelector(PatternSelector):
    """Rewrites real-scalar ``x + a*b`` into ``mac`` intrinsic calls."""

    name = "scalar-mac"


class ClipSelector(PatternSelector):
    """Rewrites ``min(max(x, lo), hi)`` into ``clip`` intrinsic calls."""

    name = "clip-idiom"
