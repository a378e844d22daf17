"""Summarize how two CLI corpora differ, number by number.

Usage: ``python tests/corpus_diff.py BASE CHANGE``

``BASE`` and ``CHANGE`` are two output directories of ``cli_corpus.py``.
For each file that differs, one line gives how many of its numeric tokens
differ and the largest relative difference |a - b| / max(|a|, |b|) among
them.  A file whose text outside the numbers differs, whose count of
numbers differs, or that is in one corpus only is flagged on its own line;
its numbers are compared only where their counts agree.  The exit code is
0 when no file differs and 1 otherwise, as with ``diff``.  Standard
library only.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _split(text: str) -> tuple[list[str], list[str]]:
    """The numeric tokens of ``text`` and the text around them."""
    return NUMBER.findall(text), NUMBER.split(text)


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def compare(base: Path, change: Path, name: str) -> str:
    """One line on how the file ``name`` differs between the two corpora."""
    old, new = (base / name).read_text(errors="replace"), (change / name).read_text(errors="replace")
    (old_nums, old_text), (new_nums, new_text) = _split(old), _split(new)
    flags = []
    if old_text != new_text:
        flags.append("FLAG: text outside the numbers differs")
    if len(old_nums) != len(new_nums):
        flags.append(f"FLAG: {len(old_nums)} numbers become {len(new_nums)}")
        return f"{name}: " + "; ".join(flags)
    moved = [(a, b) for a, b in zip(old_nums, new_nums) if a != b]
    worst = max((_relative(a, b) for a, b in moved), default=0.0)
    summary = f"{len(moved)} of {len(old_nums)} numbers differ, largest relative difference {worst:.2g}"
    return f"{name}: " + "; ".join([summary, *flags])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, change = (Path(arg) for arg in argv)
    files = {
        str(path.relative_to(root))
        for root in (base, change)
        for path in root.rglob("*")
        if path.is_file()
    }
    lines = []
    for name in sorted(files):
        old, new = base / name, change / name
        if not (old.is_file() and new.is_file()):
            lines.append(f"{name}: FLAG: only in {base if old.is_file() else change}")
        elif old.read_bytes() != new.read_bytes():
            lines.append(compare(base, change, name))
    print("\n".join(lines) or "no file differs")
    return int(bool(lines))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
