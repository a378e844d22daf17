"""Time two versions of the package against each other, call by call, in one process.

Usage: ``python tests/ab_timing.py BASE_SRC CHANGE_SRC [--processes K] [--rounds R] [--calls C]``

``BASE_SRC`` and ``CHANGE_SRC`` are two ``src`` directories, each holding
an ``mfqcka`` package.  Each of K fresh processes (default 5, run one
after another) loads both trees side by side, as the packages
``mfqcka_base`` and ``mfqcka_change`` (the base first in every other
process, the change first in the rest), and times a fixed list of calls:
``rate_rows`` at N=3 finite, N=5 asymptotic-decoy and N=4 asymptotic-exact
on 24 and 512 rows of the optimizer's presample pool, and a one-row
``rate_report`` in the same three modes.  Every ``rate_report`` call is
at a distance of its own, so no call is served from the count-matrix
cache.  A case runs R rounds (default 21) of C calls (default 20) per
side, and the side that goes first alternates from round to round.

The JSON on stdout gives, per case, each process's median of the per-round
time ratio change / base (below 1 means the change is faster), their
median and range, in how many processes the change was faster, and the
base's median time per call.  ``identical`` says whether both sides
returned the same numbers bit for bit; otherwise ``max_rel_diff`` is the
largest relative difference, or null when the two results hold different
counts of numbers.  The inputs are built once, from the change's
optimizer, so both sides rate the same ladders.  numpy and the standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import random
import statistics
import subprocess
import sys
import time
from collections.abc import Mapping
from pathlib import Path

import numpy as np

SIDES = ("base", "change")
MODES = ((3, "finite"), (5, "asymptotic-decoy"), (4, "asymptotic-exact"))
ROWS = (24, 512)
DISTANCE_KM = 100.0


def _load(name: str, src: str):
    """The package ``mfqcka`` of the tree ``src``, imported as ``name``."""
    root = Path(src).resolve() / "mfqcka"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _side_cases(package, n: int, mode: str, ladders: list) -> dict:
    """The cases of N=``n`` under ``mode`` for one side: label -> callable of the call index ``i``."""
    keyrate, model = (importlib.import_module(f"{package.__name__}.{name}") for name in ("keyrate", "model"))
    decoys = tuple(0.1 * 0.5**i for i in range(n - 1)) + (0.0,)
    config = model.SourceConfig(n, 0.2, decoys, (0.5,) + (0.5 / n,) * n, 16)
    sec = model.SecurityParams(data_size=1e12, ec_efficiency=1.1)
    channel = model.ChannelParams(0.77, 3.03e-9, 0.16, DISTANCE_KM)
    cases = {
        f"rate_rows N={n} {mode} {len(ints)} rows": (
            lambda i, ints=ints, probs=probs: keyrate.rate_rows(ints, probs, config, channel, sec, mode)
        )
        for ints, probs in ladders
    }
    cases[f"rate_report N={n} {mode}"] = lambda i: keyrate.rate_report(
        config, channel._replace(distance_km=DISTANCE_KM + 1e-3 * i), sec, mode
    )
    return cases


def _cases(packages: dict) -> dict[str, dict]:
    """Per case label, one callable per side; call ``i`` gets the same inputs on both sides."""
    optimizer = importlib.import_module(f"{packages['change'].__name__}.optimizer")
    spec = optimizer.SearchSpec()
    by_side = {side: {} for side in SIDES}
    for n, mode in MODES:
        ladders = [
            optimizer._ladders(optimizer._sample_starts(random.Random(spec.seed), rows, n, spec), n) for rows in ROWS
        ]
        for side in SIDES:
            by_side[side].update(_side_cases(packages[side], n, mode, ladders))
    return {label: {side: by_side[side][label] for side in SIDES} for label in by_side["change"]}


def _numbers(value) -> list[float]:
    """Every number in ``value``, depth first: arrays, mappings (keys and values), tuples and lists."""
    if isinstance(value, np.ndarray):
        return [float(x) for x in value.ravel().tolist()]
    if isinstance(value, Mapping):
        return _numbers(list(value.items()))
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, (int, float, np.number)):
        return [float(value)]
    return []


def _compare(base, change) -> tuple[bool, float | None]:
    """(bit-identical?, largest relative difference or None when the counts of numbers differ)."""
    a, b = np.array(_numbers(base)), np.array(_numbers(change))
    if a.shape != b.shape:
        return False, None
    if a.tobytes() == b.tobytes():
        return True, 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        both_nan = np.isnan(a) & np.isnan(b)
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    rel = np.where(both_nan | (a == b), 0.0, np.nan_to_num(rel, nan=np.inf))
    return False, float(rel.max())


def _time(fn, first: int, calls: int) -> float:
    start = time.perf_counter()
    for i in range(first, first + calls):
        fn(i)
    return time.perf_counter() - start


def child(base: str, change: str, rounds: int, calls: int, index: int) -> dict:
    """The reading of every case in process ``index``, which loads the base first when ``index`` is even."""
    trees = dict(zip(SIDES, (base, change)))
    order = SIDES if index % 2 == 0 else SIDES[::-1]
    packages = {side: _load(f"mfqcka_{side}", trees[side]) for side in order}
    cases = _cases(packages)
    readings = {}
    for label, fns in cases.items():
        for fn in fns.values():
            fn(-1)  # warm-up
        ratios, base_s = [], []
        for r in range(rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            seconds = {side: _time(fns[side], r * calls, calls) for side in order}
            ratios.append(seconds["change"] / seconds["base"])
            base_s.append(seconds["base"] / calls)
        identical, diff = _compare(fns["base"](0), fns["change"](0))
        readings[label] = {
            "ratio": statistics.median(ratios),
            "base_ms_per_call": 1e3 * statistics.median(base_s),
            "identical": identical,
            "max_rel_diff": diff,
        }
    return readings


def summarize(runs: list[dict]) -> dict:
    """Per case, the processes' median ratios, their median, range and sign count, and the value check."""
    out = {}
    for label in runs[0]:
        ratios = [run[label]["ratio"] for run in runs]
        diffs = [run[label]["max_rel_diff"] for run in runs]
        out[label] = {
            "ratios": [round(x, 4) for x in ratios],
            "median": round(statistics.median(ratios), 4),
            "range": [round(min(ratios), 4), round(max(ratios), 4)],
            "change_faster_in": sum(x < 1.0 for x in ratios),
            "base_ms_per_call": round(statistics.median(run[label]["base_ms_per_call"] for run in runs), 4),
            "identical": all(run[label]["identical"] for run in runs),
            "max_rel_diff": None if None in diffs else max(diffs),
        }
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--processes", type=int, default=5)
    parser.add_argument("--rounds", type=int, default=21)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)  # the index of a timing process
    args = parser.parse_args(argv)
    if min(args.processes, args.rounds, args.calls) < 1:
        parser.error("--processes, --rounds and --calls must be at least 1")
    if args.child is not None:
        print(json.dumps(child(args.base, args.change, args.rounds, args.calls, args.child)))
        return 0
    command = [sys.executable, __file__, args.base, args.change, "--rounds", str(args.rounds), "--calls", str(args.calls)]
    runs = []
    for index in range(args.processes):
        done = subprocess.run(command + ["--child", str(index)], capture_output=True, text=True)
        if done.returncode:
            sys.stderr.write(done.stderr)
            return 1
        runs.append(json.loads(done.stdout))
    report = {
        "base": args.base, "change": args.change, "processes": args.processes,
        "rounds": args.rounds, "calls": args.calls, "cases": summarize(runs),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
