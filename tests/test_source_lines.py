"""Conventions that hold for every source file of the package."""

import pathlib

import qndspin


def test_no_source_line_is_longer_than_100_characters():
    root = pathlib.Path(qndspin.__file__).parent
    long_lines = [
        f"{path.name}:{number} ({len(line)} characters)"
        for path in sorted(root.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []
