"""Per-source-line cycle attribution rendered as annotated source.

A hotspot run of the cycle simulator prices ``line_cycles`` — a
mapping from 1-based MATLAB source lines to the cycles charged while
executing statements lowered from that line (line 0 collects
compiler-generated statements with no source mapping, e.g. CSE
temporaries).  The per-line cycles sum to the report's total;
``tests/cycle_pins.json`` pins them.
"""

from __future__ import annotations

from repro.frontend.source import SourceFile


def line_table(line_cycles: dict[int, int]) -> list[tuple[int, int]]:
    """(line, cycles) pairs sorted hottest-first (ties by line)."""
    return sorted(line_cycles.items(), key=lambda item: (-item[1], item[0]))


def annotate_source(source: SourceFile,
                    line_cycles: dict[int, int]) -> str:
    """Annotated-source hotspot table for one profiled run.

    Every source line is shown with its cycle count and share of the
    total; cycles attributed to compiler-generated statements (line 0)
    appear as a trailing row.
    """
    total = sum(line_cycles.values())
    denom = total or 1
    n_lines = source.text.count("\n") + 1
    rows = [f"hotspots: {source.filename} (total cycles: {total})",
            f"  {'cycles':>10}  {'%':>6}  {'line':>4}  source",
            f"  {'-' * 10}  {'-' * 6}  {'-' * 4}  {'-' * 6}"]
    for line in range(1, n_lines + 1):
        text = source.line_text(line)
        cycles = line_cycles.get(line, 0)
        if cycles:
            rows.append(f"  {cycles:>10}  {cycles / denom * 100:>6.1f}"
                        f"  {line:>4}  {text}")
        else:
            if not text.strip():
                continue
            rows.append(f"  {'':>10}  {'':>6}  {line:>4}  {text}")
    generated = line_cycles.get(0, 0)
    if generated:
        rows.append(f"  {generated:>10}  {generated / denom * 100:>6.1f}"
                    f"  {'':>4}  (compiler-generated)")
    return "\n".join(rows)
