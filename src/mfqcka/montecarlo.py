"""Event-level simulation of the full protocol.

Simulates pulse generation, two-detector interference with dark counts,
the relay's announcement, click filtering, slice-wise coincidence
matching and XOR bit extraction.  Detection is sampled at the intensity
level: given the two arm intensities and their phase difference, each
detector clicks independently with probability 1 - (1 - p_d) exp(-I),
where I is its mean photon number.  This reproduces the analytic
detection model exactly and is what makes the simulator usable as an
oracle for the closed-form statistics.

A port's click probabilities depend only on the two users' setting
indices, their slice difference mod M and the XOR of their raw bits, so
each shard evaluates them once into a small table (``_click_tables``)
and every bin looks its pair up.  The table holds the per-bin
expression bit for bit and the uniforms are drawn in the same order as
by direct evaluation, so a seed gives the same run as before the table
existed.

Generation is sharded into fixed-size blocks of bins with independent
RNG substreams spawned from the master seed, so results are bit-for-bit
reproducible regardless of how the shards are executed; matching is a
global pass over the retained bins and runs after all shards.

Bit extraction is one array kernel, ``_conference_bits``, called once
per matched slice on all of that slice's sifted coincidences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from . import matching
from .channel import total_efficiency
from .model import Bundle, ChannelParams, SecurityParams, SourceConfig, _write_text

__all__ = [
    "TrialSummary",
    "run_protocol",
    "compare_to_analytic",
    "StatCheck",
    "ComparisonReport",
]

_SHARD_BINS = 1 << 20


@dataclass(frozen=True)
class TrialSummary:
    """Aggregated counts of one simulated protocol run."""

    bins: int
    seed: int
    num_users: int
    phase_slices: int
    intensities: tuple[float, ...]
    retained_clicks: Mapping[tuple[float, int, int], int]
    slice_totals: Mapping[tuple[int, int], int]
    sifted: Mapping[float, int]
    adjacent_total: Mapping[int, int]
    adjacent_wrong: Mapping[int, int]
    conference_errors: Mapping[int, int]
    conference_errors_all_intensities: int
    coincidences: int
    matched_draws: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "bins": self.bins,
            "seed": self.seed,
            "num_users": self.num_users,
            "phase_slices": self.phase_slices,
            "intensities": list(self.intensities),
            "retained_clicks": {
                f"{k}|{port}|{m}": v for (k, port, m), v in sorted(self.retained_clicks.items())
            },
            "slice_totals": {f"{port}|{m}": v for (port, m), v in sorted(self.slice_totals.items())},
            "sifted": {repr(k): v for k, v in sorted(self.sifted.items())},
            "adjacent_total": {str(p): v for p, v in sorted(self.adjacent_total.items())},
            "adjacent_wrong": {str(p): v for p, v in sorted(self.adjacent_wrong.items())},
            "conference_errors": {str(u): v for u, v in sorted(self.conference_errors.items())},
            "conference_errors_all_intensities": self.conference_errors_all_intensities,
            "coincidences": self.coincidences,
            "matched_draws": self.matched_draws,
        }


def _index_type(count: int) -> np.dtype:
    """Smallest signed integer type that holds the indices 0 .. count-1."""
    return np.min_scalar_type(-count)


def _click_tables(
    config: SourceConfig, channel: ChannelParams, cos_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Left- and right-detector click probabilities of one port.

    Both tables have the shape (S, S, M, 2) and are indexed by the two
    users' setting indices, their slice difference mod M and the XOR of
    their raw bits.  Each entry is the per-bin expression evaluated with
    the same floating-point operations in the same order, so sampling from
    the table is bit-for-bit the same as sampling from the formula.
    A table has 2 S^2 M entries (512 for N=3, M=16), about four times
    the (S, ports, M/2) retained-click counts that ``run_protocol``
    already builds.
    """
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    settings = np.asarray(config.intensities)
    k_a = settings[:, None, None, None]
    k_b = settings[None, :, None, None]
    sign = 1.0 - 2.0 * np.arange(2)
    beat = eta_t * np.sqrt(k_a * k_b) * cos_table[None, None, :, None] * sign
    mean = 0.5 * eta_t * (k_a + k_b)
    i_left = np.maximum(mean + beat, 0.0)
    i_right = np.maximum(mean - beat, 0.0)
    return 1.0 - (1.0 - p_d) * np.exp(-i_left), 1.0 - (1.0 - p_d) * np.exp(-i_right)


def _detect_ports(
    k_idx: np.ndarray,
    slices: np.ndarray,
    bits: np.ndarray,
    p_left: np.ndarray,
    p_right: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every port of every bin from the click tables.

    ``k_idx``, ``slices`` and ``bits`` hold one row per user.  Port j
    draws a left and then a right uniform for all bins.  Returns the
    single-click mask and the right-detector clicks, one row per port.
    """
    n_settings, _, m_slices, _ = p_left.shape
    ports, n_bins = len(k_idx) - 1, k_idx.shape[1]
    flat_left, flat_right = p_left.ravel(), p_right.ravel()
    key_type = _index_type(flat_left.size)
    success = np.empty((ports, n_bins), dtype=bool)
    d_val = np.empty((ports, n_bins), dtype=np.int8)
    for j in range(ports):
        # flat index ((k_a * S + k_b) * M + (s_a - s_b) mod M) * 2 + (r_a ^ r_b)
        key = k_idx[j].astype(key_type)
        key *= n_settings
        key += k_idx[j + 1]
        key *= m_slices
        key += slices[j]
        key -= slices[j + 1]
        key += m_slices * (slices[j] < slices[j + 1])
        key *= 2
        key += bits[j] ^ bits[j + 1]
        click_left = rng.random(n_bins) < flat_left.take(key)
        click_right = rng.random(n_bins) < flat_right.take(key)
        np.not_equal(click_left, click_right, out=success[j])
        d_val[j] = click_right
    return success, d_val


def _generate_shard(
    config: SourceConfig,
    channel: ChannelParams,
    n_bins: int,
    rng: np.random.Generator,
    cos_table: np.ndarray,
) -> dict[str, np.ndarray]:
    """Simulate one block of bins; returns the retained-bin columns."""
    n_users = config.num_users
    ports = n_users - 1
    m_slices = config.phase_slices
    n_settings = len(config.intensities)
    cum = np.cumsum(np.asarray(config.send_probabilities))

    # setting index = number of thresholds cum[:-1] that u reaches; u < 1
    # never reaches cum[-1], so this is searchsorted(cum, u, side="right")
    u = rng.random((n_users, n_bins))
    k_idx = np.zeros((n_users, n_bins), dtype=_index_type(n_settings))
    for edge in cum[:-1]:
        k_idx += u >= edge
    del u
    slices = rng.integers(0, m_slices, size=(n_users, n_bins), dtype=np.int16)
    bits = rng.integers(0, 2, size=(n_users, n_bins), dtype=np.int8)

    p_left, p_right = _click_tables(config, channel, cos_table)
    success, d_val = _detect_ports(k_idx, slices, bits, p_left, p_right, rng)

    # the pick uniforms are drawn for every bin, but only bins with a
    # success need a port: the pick-th successful one, counted from 0
    counts = success.sum(axis=0)
    u_pick = rng.random(n_bins)
    bin_ids = np.flatnonzero(counts)
    pick = (u_pick[bin_ids] * counts[bin_ids]).astype(np.int64)
    hit = success[:, bin_ids]
    port = (hit & (np.cumsum(hit, axis=0) == pick + 1)).argmax(axis=0)

    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    keep = (k_idx[left] == k_idx[right]) & ((slices[left] - slices[right]) % (m_slices // 2) == 0)
    port, bin_ids = port[keep], bin_ids[keep]
    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    return {
        "port": port.astype(_index_type(ports)),
        "m": (slices[left] % (m_slices // 2)).astype(np.int16),
        "k_idx": k_idx[left],
        "m_left": (2 * slices[left] // m_slices).astype(np.int8),
        "m_right": (2 * slices[right] // m_slices).astype(np.int8),
        "r_left": bits[left],
        "r_right": bits[right],
        "d": d_val[left],
    }


def _conference_bits(
    r_left: np.ndarray,
    r_right: np.ndarray,
    m_left: np.ndarray,
    m_right: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Conference bits of matched coincidences, one column per coincidence.

    Every argument has the shape (ports, n) in port order: row i is the bin
    announced for port i+1, with the raw and phase bits of its left user
    i+1 and right user i+2 and the relay's announcement ``d``.  Returns the
    (N, n) bits.  Row 0 is user 1's raw bit.  User j >= 2 takes their raw
    bit in port j-1 and XORs in the announcements of ports 1 .. j-1, every
    phase bit published in those ports and the raw bits of users
    2 .. j-1 in both of their ports.  Under ideal detection every row
    equals row 0.
    """
    # step[i]: what port i+1 adds to the chain of every later user
    step = d ^ m_right
    step[1:] ^= r_right[:-1] ^ r_left[1:] ^ m_left[1:]
    chain = np.bitwise_xor.accumulate(step, axis=0)
    return np.vstack([r_left[:1], r_right ^ chain ^ m_left[0]])


def _write_dump(
    path: str, n_users: int, intensities: Sequence[float], parts: list[np.ndarray]
) -> None:
    """Write the sifted coincidences as CSV, one row per column of ``parts``.

    Each part holds the rows slice, setting index, the N-1 announcements
    and the N conference bits; the setting index is written as its
    intensity.
    """
    ports = n_users - 1
    header = (
        ["slice", "intensity"]
        + [f"d_{j + 1}" for j in range(ports)]
        + [f"bit_user_{j + 1}" for j in range(n_users)]
    )
    table = np.hstack(parts) if parts else np.zeros((len(header), 0), dtype=np.int64)
    labels = np.array([repr(k) for k in intensities])
    cells = [table[0].astype(str), labels[table[1]], *table[2:].astype(str)]
    lines = cells[0]
    for column in cells[1:]:
        lines = np.char.add(np.char.add(lines, ","), column)
    _write_text(path, "\n".join([",".join(header), *lines.tolist()]) + "\n")


def run_protocol(
    bundle: Bundle, num_bins: int, seed: int, coincidence_dump: str | None = None
) -> TrialSummary:
    """Simulate the whole protocol over ``num_bins`` time bins.

    Matching draws one retained bin per port (without replacement,
    uniformly at random) per round until the smallest slice set is
    exhausted; coincidences sharing a common intensity are sifted and
    their bits extracted and compared against user 1.

    ``coincidence_dump`` optionally names a CSV file that receives one
    row per sifted coincidence (slice, intensity, announcements and the
    extracted bits) for debugging.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    config, channel = bundle.config, bundle.channel
    n_users = config.num_users
    ports = n_users - 1
    m_slices = config.phase_slices
    half = m_slices // 2
    n_settings = len(config.intensities)
    cos_table = np.cos(2.0 * np.pi * np.arange(m_slices) / m_slices)

    n_shards = (num_bins + _SHARD_BINS - 1) // _SHARD_BINS
    streams = np.random.SeedSequence(seed).spawn(n_shards + 1)
    columns: list[dict[str, np.ndarray]] = []
    remaining = num_bins
    for i in range(n_shards):
        size = min(_SHARD_BINS, remaining)
        remaining -= size
        rng = np.random.default_rng(streams[i])
        columns.append(_generate_shard(config, channel, size, rng, cos_table))

    merged = {
        key: np.concatenate([c[key] for c in columns]) if columns else np.empty(0, dtype=np.int8)
        for key in columns[0]
    }

    combo = (merged["k_idx"].astype(np.int64) * ports + merged["port"]) * half + merged["m"]
    retained_counts = np.bincount(combo, minlength=n_settings * ports * half).reshape(
        n_settings, ports, half
    )

    signal_mask = merged["k_idx"] == 0
    ideal = (
        merged["m_left"] ^ merged["r_left"] ^ merged["m_right"] ^ merged["r_right"]
    ) & 1
    wrong = (merged["d"] ^ ideal) & 1
    adjacent_total = np.bincount(merged["port"][signal_mask], minlength=ports)
    adjacent_wrong = np.bincount(
        merged["port"][signal_mask], weights=wrong[signal_mask], minlength=ports
    ).astype(np.int64)

    match_rng = np.random.default_rng(streams[-1])
    sifted = np.zeros(n_settings, dtype=np.int64)
    conf_errors = np.zeros(ports, dtype=np.int64)  # user j = 2..N at index j-2
    conf_errors_all = 0
    matched_draws = 0
    dump_parts: list[np.ndarray] = []
    for m in range(half):
        sets = [
            np.flatnonzero((merged["port"] == j) & (merged["m"] == m)) for j in range(ports)
        ]
        n_min = min(len(s) for s in sets)
        if n_min == 0:
            continue
        matched_draws += n_min
        rows = np.stack(
            [s[match_rng.permutation(len(s))[:n_min]] for s in sets]
        )  # (ports, n_min)
        k_mat = merged["k_idx"][rows]
        common = np.all(k_mat == k_mat[0], axis=0)
        if not common.any():
            continue
        cols = rows[:, common]
        k_common = k_mat[0, common]
        sifted += np.bincount(k_common, minlength=n_settings)

        d_mat = merged["d"][cols]
        bits = _conference_bits(
            merged["r_left"][cols],
            merged["r_right"][cols],
            merged["m_left"][cols],
            merged["m_right"][cols],
            d_mat,
        )
        errors = bits[1:] ^ bits[0]
        conf_errors += errors[:, k_common == 0].sum(axis=1)
        conf_errors_all += int(errors.sum())
        if coincidence_dump is not None:
            dump_parts.append(np.vstack([np.full(len(k_common), m), k_common, d_mat, bits]))

    if coincidence_dump is not None:
        _write_dump(coincidence_dump, n_users, config.intensities, dump_parts)

    settings = config.intensities
    return TrialSummary(
        bins=num_bins,
        seed=seed,
        num_users=n_users,
        phase_slices=m_slices,
        intensities=settings,
        retained_clicks={
            (settings[k], j + 1, m): int(retained_counts[k, j, m])
            for k in range(n_settings)
            for j in range(ports)
            for m in range(half)
        },
        slice_totals={
            (j + 1, m): int(retained_counts[:, j, m].sum())
            for j in range(ports)
            for m in range(half)
        },
        sifted={settings[k]: int(sifted[k]) for k in range(n_settings)},
        adjacent_total={j + 1: int(adjacent_total[j]) for j in range(ports)},
        adjacent_wrong={j + 1: int(adjacent_wrong[j]) for j in range(ports)},
        conference_errors={j + 2: int(conf_errors[j]) for j in range(ports)},
        conference_errors_all_intensities=conf_errors_all,
        coincidences=int(sifted.sum()),
        matched_draws=matched_draws,
    )


@dataclass(frozen=True)
class StatCheck:
    name: str
    observed: float
    expected: float
    z: float
    flagged: bool


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[StatCheck, ...]
    skipped: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not any(c.flagged for c in self.checks)

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.checks), default=0.0)

    def to_dict(self) -> dict[str, Any]:
        return {
            "clean": self.clean,
            "max_abs_z": self.max_abs_z,
            "checks": [
                {
                    "name": c.name,
                    "observed": c.observed,
                    "expected": c.expected,
                    "z": c.z,
                    "flagged": c.flagged,
                }
                for c in self.checks
            ],
            "skipped": list(self.skipped),
        }


_Z_FLAG = 5.0
_MIN_EXPECTED = 10.0


def compare_to_analytic(summary: TrialSummary, bundle: Bundle) -> ComparisonReport:
    """z-score every tracked statistic against the analytic means.

    z = (observed - expected) / sqrt(expected); statistics whose expected
    count is below 10 are skipped (normal approximation unusable there).
    """
    config = bundle.config
    channel = bundle.channel
    sec = SecurityParams(data_size=float(summary.bins))
    stats = matching.expected_stats(config, channel, sec)

    checks: list[StatCheck] = []
    skipped: list[str] = []

    def add(name: str, observed: float, expected: float) -> None:
        if expected < _MIN_EXPECTED:
            skipped.append(name)
            return
        z = (observed - expected) / math.sqrt(expected)
        checks.append(StatCheck(name, observed, expected, z, abs(z) > _Z_FLAG))

    for (k, j, m), expected in sorted(stats.retained_clicks.items()):
        add(f"retained[k={k!r},port={j},m={m}]", summary.retained_clicks[(k, j, m)], expected)
    for (j, m), expected in sorted(stats.slice_totals.items()):
        add(f"slice_total[port={j},m={m}]", summary.slice_totals[(j, m)], expected)
    for k, expected in sorted(stats.sifted.items()):
        add(f"sifted[k={k!r}]", summary.sifted[k], expected)
    for j in range(1, config.num_users):
        n_obs = summary.adjacent_total[j]
        add(
            f"adjacent_error[port={j}]",
            summary.adjacent_wrong[j],
            stats.adjacent_error * n_obs,
        )
    return ComparisonReport(checks=tuple(checks), skipped=tuple(skipped))
