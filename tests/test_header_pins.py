"""Pins the intrinsics header of every processor the project builds.

``header_pins.json`` maps each processor of
:func:`helpers.pinned_processors` (the shipped targets, the SIMD width
family and the candidates of the default and smoke design spaces) to the
sha256 of ``generate_header(processor)``.  A refactor of the operation
table or the header generator must keep every digest.

When a change is meant to alter a header, regenerate the file with this
module's script entry point and review the diff:

    PYTHONPATH=src python tests/test_header_pins.py > tests/header_pins.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from helpers import pinned_processors
from repro.asip.header_gen import generate_header

PINS = Path(__file__).with_name("header_pins.json")
BUILT = pinned_processors()
PROCESSORS = {processor.name: processor for processor in BUILT}


def header_digest(name: str) -> str:
    text = generate_header(PROCESSORS[name])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_pins_cover_every_processor():
    assert len(BUILT) == 66 and len(PROCESSORS) == 58
    # A name built twice (a smoke candidate) is the same processor.
    assert all(p == PROCESSORS[p.name] for p in BUILT)
    assert sorted(json.loads(PINS.read_text())) == sorted(PROCESSORS)


@pytest.mark.parametrize("name", sorted(PROCESSORS))
def test_header_matches_pin(name):
    assert header_digest(name) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: header_digest(name) for name in PROCESSORS},
                     indent=1, sort_keys=True))
