"""Pins the lexer's token stream over every MATLAB source the repo ships.

For each ``examples/mlab/*.m`` kernel, each ``tests/fuzz_corpus/*.m``
seed and each compiler-library kernel in ``LIBRARY_SOURCES``,
``token_stream_goldens.json`` records the sha256 of the token stream:
one line per token with its kind, text, span start and end, decoded
value and ``space_before`` flag.  A lexer rewrite that claims to keep
behaviour must reproduce every hash.

When a change is meant to alter the token stream, regenerate the file
with this module's script entry point and review the diff:

    PYTHONPATH=src python tests/test_token_stream_goldens.py \\
        > tests/token_stream_goldens.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.frontend.lexer import tokenize
from repro.frontend.source import SourceFile
from repro.semantics.library import LIBRARY_SOURCES

ROOT = Path(__file__).parent.parent
GOLDENS = Path(__file__).with_name("token_stream_goldens.json")

#: The lexer's awkward corners in one source, so the golden pins them
#: beyond what the kernels happen to use.
CORNERS = """\
x = [1 -2, 3 - 4, a' b', 'it''s', a.', 1.^2, 1.*x, 1./x, 1.\\x];
y = 1. + .5 + 2.5e-3 + 1e+2 + 7E3 + 1d3 + 4D-1 + 3i + 2.5j + 1e3i + 2e;
z = x' + y'' + (a)' + [1 2]' + {1}' + end' + 1i' + 'str';
if a==b && c~=d || e<=f & g>=h | ~k, q = @sin; end % trailing
  w = a ...  continuation text
    + b;\t% tab before comment
%{
block comment
  %{
  nested
  %}
%}
    %{
    indented block
    %}
v = i1 + j_ + 2ix + 3jj + x1e2 + _u + 1.e2 + 0.5.^2 + 3.' ;
u = a.b(1).c{2}; s = {}; t = [];"""


def corpus() -> dict[str, str]:
    """Golden key -> MATLAB source text."""
    sources = {}
    for directory in (ROOT / "examples" / "mlab", ROOT / "tests" / "fuzz_corpus"):
        for path in sorted(directory.glob("*.m")):
            sources[path.relative_to(ROOT).as_posix()] = path.read_text()
    for name, text in sorted(LIBRARY_SOURCES.items()):
        sources[f"library/{name}"] = text
    sources["corners"] = CORNERS
    return sources


def stream_digest(text: str, filename: str) -> str:
    lines = [f"{t.kind.name}\t{t.text!r}\t{t.span.start}\t{t.span.end}\t"
             f"{t.value!r}\t{int(t.space_before)}\n"
             for t in tokenize(SourceFile(text, filename))]
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def current_table() -> dict[str, str]:
    return {key: stream_digest(text, key) for key, text in corpus().items()}


@pytest.mark.parametrize("key", list(corpus()))
def test_token_stream_matches_golden(key):
    expected = json.loads(GOLDENS.read_text())[key]
    assert stream_digest(corpus()[key], key) == expected


def test_goldens_cover_exactly_the_corpus():
    assert set(json.loads(GOLDENS.read_text())) == set(corpus())


if __name__ == "__main__":
    print(json.dumps(current_table(), indent=1, sort_keys=True))
