"""Source-text bookkeeping: files, positions, and spans.

Every AST node and token carries a :class:`Span` so diagnostics can point
at the offending MATLAB source.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Span:
    """A half-open [start, end) byte range in a source file."""

    start: int
    end: int
    filename: str = "<string>"

    def merge(self, other: "Span") -> "Span":
        """Smallest span covering both ``self`` and ``other``."""
        return Span(min(self.start, other.start), max(self.end, other.end), self.filename)

    @staticmethod
    def unknown() -> "Span":
        return Span(0, 0, "<unknown>")


@dataclass
class SourceFile:
    """A MATLAB source file with line-offset indexing for diagnostics."""

    text: str
    filename: str = "<string>"
    _line_starts: list[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        starts = [0]
        nl = self.text.find("\n")
        while nl >= 0:
            starts.append(nl + 1)
            nl = self.text.find("\n", nl + 1)
        self._line_starts = starts

    def line_col(self, offset: int) -> tuple[int, int]:
        """Map a byte offset to 1-based (line, column)."""
        offset = max(0, min(offset, len(self.text)))
        lo, hi = 0, len(self._line_starts) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._line_starts[mid] <= offset:
                lo = mid
            else:
                hi = mid - 1
        return lo + 1, offset - self._line_starts[lo] + 1

    def line_text(self, line: int) -> str:
        """Return the 1-based ``line``'s text without its newline."""
        if not 1 <= line <= len(self._line_starts):
            return ""
        start = self._line_starts[line - 1]
        end = self.text.find("\n", start)
        if end < 0:
            end = len(self.text)
        return self.text[start:end]

    def excerpt(self, span: Span) -> str:
        """A caret-annotated excerpt for diagnostics rendering."""
        line, col = self.line_col(span.start)
        src = self.line_text(line)
        width = max(1, min(span.end, len(self.text)) - span.start)
        width = min(width, max(1, len(src) - col + 1))
        caret = " " * (col - 1) + "^" * width
        return f"{src}\n{caret}"
