"""Numeric semantics shared by the interpreter and the compiler.

The MATLAB colon operator ``start:step:stop`` has an inclusive-stop
fencepost rule that both the golden interpreter (at run time, in
:func:`repro.mlab.builtins_rt.colon`) and the type inferencer (at
compile time, when a range's element count becomes a static shape)
must evaluate **identically** — a one-element disagreement silently
changes every downstream shape and is exactly the kind of divergence
the differential fuzzer exists to catch.  The rule therefore lives
here, in one place, below both layers.

:func:`c_pow` is here for the same reason: the cycle simulator
models the *C* ``pow``, whose edge cases (overflow to ``HUGE_VAL``,
``pow(0, -1)``) Python's ``**`` turns into exceptions instead.
"""

from __future__ import annotations

import math

#: double-precision machine epsilon (2^-52).
_EPS = 2.220446049250313e-16


def range_count(start: float, step: float, stop: float) -> int:
    """Element count of the MATLAB range ``start:step:stop``.

    The stop value is inclusive up to a *magnitude-relative* tolerance:
    the quotient ``(stop - start) / step`` carries rounding error
    proportional to ``eps * max(|start|, |stop|) / |step|`` (and to
    ``eps`` times its own magnitude), so the fencepost comparison must
    scale with those quantities.  A fixed absolute epsilon — the
    historical bug here — both *loses* elements from large-magnitude or
    tiny-step ranges (where the representation error exceeds the
    epsilon) and *gains* a beyond-stop element on ranges like
    ``0 : 1 : 5 - 1e-11`` (where a genuine below-integer quotient sits
    inside the epsilon).

    Raises :class:`OverflowError` when the count is unbounded
    (infinite bounds with a finite step); callers map that to their own
    error type.
    """
    if step == 0 or math.isnan(start) or math.isnan(step) or math.isnan(stop):
        return 0
    quotient = (stop - start) / step
    if math.isnan(quotient):  # inf bounds cancelling: inf/inf
        return 0
    if quotient < 0:
        return 0
    if math.isinf(quotient):
        raise OverflowError("range has unbounded element count")
    tolerance = 3.0 * _EPS * (
        max(abs(start), abs(stop)) / abs(step) + abs(quotient) + 1.0)
    # An ill-conditioned fencepost (tolerance approaching one spacing)
    # cannot be decided reliably either way; cap the slack so the count
    # stays sane instead of swallowing whole elements.
    tolerance = min(tolerance, 0.25)
    return max(int(math.floor(quotient + tolerance)) + 1, 0)


def c_pow(base, exponent):
    """``base ** exponent`` with C ``pow`` / IEEE-754 edge semantics.

    Python raises ``OverflowError`` when a float power overflows and
    ``ZeroDivisionError`` for ``0.0 ** negative``; C's ``pow`` (and
    numpy, which the golden interpreter uses) returns ``±HUGE_VAL``
    in both cases — negative for a negative base raised to an odd
    integer exponent.
    """
    try:
        return base ** exponent
    except OverflowError:
        if isinstance(base, complex) or isinstance(exponent, complex):
            return complex(float("inf"), 0.0)
        negative = base < 0 and float(exponent).is_integer() \
            and int(exponent) % 2 == 1
        return float("-inf") if negative else float("inf")
    except ZeroDivisionError:
        return float("inf")
