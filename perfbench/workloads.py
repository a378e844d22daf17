"""The benchmark workloads: inputs made from the seed, CLI arguments, output checks.

Each workload is one fixed CLI job.  The seed only reaches the program as
the optimizer ``seed`` of the configuration document and as
``simulate --seed``; everything else is fixed, so one seed always gives
the same inputs.  Both optimizing workloads search with a fixed budget
(``tolerance`` 0 disables the early stop), so the work a process does
does not depend on its seed.  A check reads what the CLI wrote and returns an
``Outcome``: whether the output is correct, and the workload's headline
per-bin rate (``rate_per_bin``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Hardware values of the paper's methods section (README configuration).
CHANNEL = {
    "detector_efficiency": 0.77,
    "dark_count_rate": 3.03e-9,
    "fiber_alpha_db_per_km": 0.16,
    "distance_km": 50.0,
}
SECURITY = {
    "data_size": 1e14,
    "eps_ec": 1e-15,
    "eps_pa": 1e-10,
    "eps_chernoff": 1e-10,
    "ec_efficiency": 1.1,
}
README_SOURCE = {
    "users": 3,
    "signal_intensity": 0.045,
    "decoy_intensities": [0.021, 0.0001, 0.0],
    "send_probabilities": [0.825, 0.078, 0.095, 0.002],
    "phase_slices": 16,
}


def standard_source(users: int) -> dict[str, Any]:
    """The 3-, 4- and 5-user source sets of the test suite (signal 0.1)."""
    decoys = {
        3: [0.05, 0.01, 0.0],
        4: [0.06, 0.02, 0.008, 0.0],
        5: [0.07, 0.03, 0.012, 0.005, 0.0],
    }
    probs = {
        3: [0.4, 0.3, 0.2, 0.1],
        4: [0.35, 0.25, 0.18, 0.12, 0.10],
        5: [0.30, 0.22, 0.17, 0.13, 0.10, 0.08],
    }
    return {
        "users": users,
        "signal_intensity": 0.1,
        "decoy_intensities": decoys[users],
        "send_probabilities": probs[users],
        "phase_slices": 16,
    }


@dataclass(frozen=True)
class Outcome:
    """Result of checking one process's output."""

    ok: bool
    rate: float  # the workload's headline rate per time bin; nan when unreadable
    detail: str = ""
    extra: dict[str, float] = field(default_factory=dict)


def _fail(detail: str) -> Outcome:
    return Outcome(ok=False, rate=math.nan, detail=detail)


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def parse_report(text: str) -> dict[str, str]:
    """The ``key = value`` lines the CLI prints for ``rate`` and ``optimize``."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# -- output checks -------------------------------------------------------------

ANCHOR_RATE = 1.44e-4  # acceptance criterion 1: N=3, 50 km, 1e14 pulses
ANCHOR_TOLERANCE = 0.15


def check_scan_n3(csv_text: str) -> Outcome:
    """Anchor row within 15% of 1.44e-4, every row positive; rate at 250 km."""
    try:
        rows = read_csv(csv_text)
        distances = [float(r["distance_km"]) for r in rows]
        rates = [float(r["key_rate"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"unreadable scan CSV: {exc!r}")
    if distances != [50.0, 150.0, 250.0]:
        return _fail(f"unexpected distances {distances}")
    if abs(rates[0] / ANCHOR_RATE - 1.0) > ANCHOR_TOLERANCE:
        return _fail(f"50 km rate {rates[0]:.4e} not within 15% of {ANCHOR_RATE:.2e}")
    if not all(r > 0.0 for r in rates):
        return _fail(f"non-positive rate in {rates}")
    return Outcome(ok=True, rate=rates[-1])


def check_optimize_n5(stdout: str) -> Outcome:
    """The optimized asymptotic rate beats the multicast bound at 280 km."""
    report = parse_report(stdout)
    try:
        rate = float(report["key_rate"])
        bound = float(report["multicast_bound"])
        distance = float(report["distance_km"])
    except (KeyError, ValueError) as exc:
        return _fail(f"unreadable optimize report: {exc!r}")
    if distance != 280.0:
        return _fail(f"report is for {distance} km, not 280 km")
    if not rate > bound:
        return _fail(f"key_rate {rate:.4e} does not beat multicast_bound {bound:.4e}")
    return Outcome(ok=True, rate=rate)


EXACT_RTOL = 1e-6  # fixed before any run; CSV cells carry 10 significant digits


def check_scan_n4(csv_text: str, reference_text: str) -> Outcome:
    """Every cell equals the reference within EXACT_RTOL (the seed column excepted)."""
    try:
        rows = read_csv(csv_text)
        ref = read_csv(reference_text)
    except csv.Error as exc:
        return _fail(f"unreadable CSV: {exc}")
    if not rows or len(rows) != len(ref) or list(rows[0]) != list(ref[0]):
        return _fail("CSV shape or header differs from the reference")
    last_positive = math.nan
    for i, (row, want) in enumerate(zip(rows, ref)):
        for col, expected in want.items():
            if col == "seed":
                continue
            try:
                got, exp = float(row[col]), float(expected)
            except (TypeError, ValueError):
                return _fail(f"row {i} column {col}: unreadable value {row[col]!r}")
            if not (got == exp or math.isclose(got, exp, rel_tol=EXACT_RTOL)):
                return _fail(f"row {i} column {col}: {got!r} != reference {exp!r}")
        if float(row["key_rate"]) > 0.0:
            last_positive = float(row["key_rate"])
    return Outcome(ok=True, rate=last_positive)


Z_LIMIT = 5.0


def check_simulate(report_text: str) -> Outcome:
    """At least one check and every |z| <= 5; rate = coincidences per bin.

    The exit code (3 when a statistic is flagged) is checked by the runner.
    """
    try:
        doc = json.loads(report_text)
        summary, checks = doc["summary"], doc["comparison"]["checks"]
        zs = [float(c["z"]) for c in checks]
        bins, coincidences = int(summary["bins"]), int(summary["coincidences"])
        draws = int(summary["matched_draws"])
    except (KeyError, TypeError, ValueError) as exc:
        return _fail(f"unreadable simulate report: {exc!r}")
    if not zs:
        return _fail("simulate report has no checks")
    worst = max(abs(z) for z in zs)
    if not worst <= Z_LIMIT:
        return _fail(f"max |z| = {worst:.3f} exceeds {Z_LIMIT}")
    if any(c.get("flagged") for c in checks):
        return _fail("a check is flagged")
    if coincidences <= 0 or draws <= 0:
        return _fail("no coincidences")
    return Outcome(
        ok=True, rate=coincidences / bins, extra={"sift_frac": coincidences / draws}
    )


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: int  # work items per process: distance points, or time bins
    document: Callable[[int], dict[str, Any]]  # seed -> configuration document
    argv: Callable[[str, int], list[str]]  # (config path, seed) -> CLI arguments
    check: Callable[[Path, str], Outcome]  # (work dir, stdout) of a process that exited 0


def _scan_n3_doc(seed: int) -> dict[str, Any]:
    return {
        "channel": dict(CHANNEL),
        "source": dict(README_SOURCE),
        "security": dict(SECURITY),
        "optimizer": {
            "intensity_bounds": [1e-4, 1.0],
            "prob_bounds": [1e-3, 0.99],
            "restarts": 8,
            "max_evals": 150,
            "tolerance": 0.0,
            "seed": seed,
        },
    }


def _optimize_n5_doc(seed: int) -> dict[str, Any]:
    return {
        "channel": dict(CHANNEL, distance_km=280.0),
        "source": standard_source(5),
        "security": dict(SECURITY),
        "optimizer": {"restarts": 4, "max_evals": 200, "tolerance": 0.0, "seed": seed},
    }


def _scan_n4_doc(seed: int) -> dict[str, Any]:
    return {
        "channel": dict(CHANNEL),
        "source": standard_source(4),
        "security": dict(SECURITY),
        "optimizer": {"seed": seed},
    }


def _simulate_n3_doc(seed: int) -> dict[str, Any]:
    return {
        "channel": dict(CHANNEL),
        "source": standard_source(3),
        "security": dict(SECURITY),
    }


SIMULATE_BINS = 1 << 23

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="scan-n3-finite",
            why="paper's headline curve: optimized finite rate at 50/150/250 km, warm-started"
            " across distances; optimizer, keyrate, finite decoy and cheap N=3 matching",
            items=3,
            document=_scan_n3_doc,
            argv=lambda cfg, seed: [
                "scan", cfg, "--optimize", "--objective", "finite",
                "--from", "50", "--to", "250", "--step", "100", "--out", "out.csv",
            ],
            check=lambda work, out: check_scan_n3((work / "out.csv").read_text()),
        ),
        Workload(
            name="optimize-n5-asymptotic",
            why="N=5 optimization at 280 km; the exponential matching correction sum"
            " dominates every evaluation, so it exercises transfer-matrix matching",
            items=1,
            document=_optimize_n5_doc,
            argv=lambda cfg, seed: ["optimize", cfg, "--objective", "asymptotic"],
            check=lambda work, out: check_optimize_n5(out),
        ),
        Workload(
            name="scan-n4-exact",
            why="N=4 exact-mode scan over 0-330 km in 2 km steps, no optimizer; photonstats"
            " pair_yield loops dominate and every point misses the per-channel caches",
            items=166,
            document=_scan_n4_doc,
            argv=lambda cfg, seed: [
                "scan", cfg, "--objective", "asymptotic", "--mode", "exact",
                "--from", "0", "--to", "330", "--step", "2", "--out", "out.csv",
            ],
            check=lambda work, out: check_scan_n4(
                (work / "out.csv").read_text(),
                (REFERENCE_DIR / "scan-n4-exact.csv").read_text(),
            ),
        ),
        Workload(
            name="simulate-n3",
            why="Monte Carlo run of N=3 at 50 km over 2^23 bins (8 shards); shard generation"
            " dominates and the analytic layers run once, in the comparison",
            items=SIMULATE_BINS,
            document=_simulate_n3_doc,
            argv=lambda cfg, seed: [
                "simulate", cfg, "--bins", str(SIMULATE_BINS), "--seed", str(seed),
                "--out", "report.json",
            ],
            check=lambda work, out: check_simulate((work / "report.json").read_text()),
        ),
    ]
}
