"""The library's source stays within the line budget of ROADMAP item 8."""

from pathlib import Path

import fftddm

# the size of src/fftddm before the interface line operators came in
LINE_BUDGET = 2287


def test_source_within_line_budget():
    files = sorted(Path(fftddm.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert len(files) >= 10
    assert lines <= LINE_BUDGET, (
        f"src/fftddm has {lines} lines, over the budget of {LINE_BUDGET}")
