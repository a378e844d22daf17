"""A fixed kernel that measures how fast this machine runs right now.

Usage: python3 calibrate.py  (reads one line per measurement from standard
input and answers each with the kernel's time in seconds)

The runner keeps one such process for a whole run and asks it for a
measurement just before each CLI process.  Other tenants of a shared
machine slow the kernel and the CLI alike, for stretches of seconds to
minutes, so the CLI's time divided by the kernel's is steadier than
either.  The kernel runs in its own process so that its arrays do not
raise the runner's memory, which every CLI process it starts would
inherit in its peak resident set.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def kernel() -> float:
    """Seconds for interpreted integer arithmetic plus numpy passes over an 8 MB array,
    like the CLI's mix of Python loops and array work."""
    started = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i % 7
    a = np.random.default_rng(0).random(1 << 20)
    for _ in range(6):
        b = np.exp(-a) * np.sqrt(a) + a * a
        a = (b - b.min()) / (b.max() - b.min() + 1.0)
    return time.perf_counter() - started


def main() -> int:
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
