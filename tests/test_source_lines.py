"""No line of the package source is longer than 100 characters."""

from __future__ import annotations

from pathlib import Path

LIMIT = 100
SOURCE = Path(__file__).resolve().parent.parent / "src" / "zorbit"


def test_no_source_line_longer_than_limit():
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths
    long_lines = [
        f"{path.relative_to(SOURCE)}:{number}: {len(line)} characters"
        for path in paths
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not long_lines, "\n".join(long_lines)
