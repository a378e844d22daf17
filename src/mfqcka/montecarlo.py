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
each shard evaluates them once into small tables (``_click_tables``).
Only a single click is kept, so they reduce to two per-key tables
(``_port_tables``): the single-click probability s and the probability
that a single click is on the right detector (d = 1).

Most bins click nowhere, so the simulation is event-driven by thinning
(Lewis and Shedler, 1979).  With q = max s, every port gets an
independent Bernoulli(q) candidate flag, and a candidate succeeds with
probability s[key] / q; given the users' variables each port then
succeeds with probability s[key], independently across ports, exactly
as in a direct simulation.  A bin without a candidate cannot click, and
bins are i.i.d. and never ordered by the matcher, so a shard of n bins
draws its candidate-bin count from Binomial(n, 1 - (1 - q)^P) and
simulates only those bins: the first candidate port from a truncated
geometric law, the later ports as Bernoulli(q), then the settings,
slices and bits of the users those ports read, and detection.  Users
are i.i.d. too, and no other user's variables reach any output.

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
from .model import Bundle, ChannelParams, SecurityParams, SourceConfig, _write_text, jsonable

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
    candidate_bins: int
    shards: int

    def to_dict(self) -> dict[str, Any]:
        return jsonable(self)


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
    the same floating-point operations in the same order, so it equals
    the formula bit for bit.  Flipping the XOR negates the beat exactly,
    so the right table, mean - beat, is the left one mirrored on that axis.
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
    p_left = 1.0 - (1.0 - p_d) * np.exp(-np.maximum(0.5 * eta_t * (k_a + k_b) + beat, 0.0))
    return p_left, p_left[..., ::-1]


def _port_tables(
    config: SourceConfig, channel: ChannelParams, cos_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-click probability of one port and the chance it is on the right.

    Both tables have the shape of ``_click_tables``.  The first holds
    s = pL (1 - pR) + pR (1 - pL), the second P(d = 1 | single click) =
    pR (1 - pL) / s (0 where s is 0).
    """
    p_left, p_right = _click_tables(config, channel, cos_table)
    right_only = p_right * (1.0 - p_left)
    single = p_left * (1.0 - p_right) + right_only
    right_given_single = np.divide(
        right_only, single, out=np.zeros_like(single), where=single > 0.0
    )
    return single, right_given_single


def _detect_ports(
    k_pair: np.ndarray,
    slice_pair: np.ndarray,
    bit_pair: np.ndarray,
    single: np.ndarray,
    right_given_single: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Thin candidate ports down to single clicks.

    Each ``*_pair`` holds the left user's values in row 0 and the right
    user's in row 1, one column per candidate port.  A candidate succeeds
    with probability single[key] / max(single) and then announces d = 1
    with probability right_given_single[key].  Returns the success mask
    and the announcements (0 where there is no success).
    """
    key = np.ravel_multi_index(
        (
            k_pair[0],
            k_pair[1],
            (slice_pair[0] - slice_pair[1]) % single.shape[2],
            bit_pair[0] ^ bit_pair[1],
        ),
        single.shape,
    )
    success = rng.random(key.size) * single.max() < single.take(key)
    d_val = np.zeros(key.size, dtype=np.int8)
    hit_keys = key[success]
    d_val[success] = rng.random(hit_keys.size) < right_given_single.take(hit_keys)
    return success, d_val


def _generate_shard(
    config: SourceConfig,
    channel: ChannelParams,
    n_bins: int,
    rng: np.random.Generator,
    cos_table: np.ndarray,
) -> tuple[dict[str, np.ndarray], int]:
    """Simulate one block of bins by thinning.

    Returns the retained-bin columns and the number of candidate bins,
    the bins in which some port could click and which were simulated.
    """
    ports = config.num_users - 1
    m_slices = config.phase_slices
    half = m_slices // 2
    n_settings = len(config.intensities)
    cum = np.cumsum(np.asarray(config.send_probabilities))
    single, right_given_single = _port_tables(config, channel, cos_table)
    q = float(single.max())

    # reach[j] = P(one of ports 0 .. j is a candidate) = 1 - (1 - q)^(j+1)
    if q < 1.0:
        reach = -np.expm1(np.arange(1, ports + 1) * math.log1p(-q))
    else:
        reach = np.ones(ports)
    n_cand = int(rng.binomial(n_bins, reach[-1]))
    # the first candidate port by inversion of the truncated geometric
    # law, the later ones Bernoulli(q)
    first = np.searchsorted(reach, rng.random(n_cand) * reach[-1], side="right")
    np.minimum(first, ports - 1, out=first)  # u * reach[-1] may round up to reach[-1]
    first = first[:, None]
    port_ids = np.arange(ports)
    candidate = (port_ids == first) | ((port_ids > first) & (rng.random((n_cand, ports)) < q))
    # one entry per candidate port, ordered by bin and then port
    entry = np.flatnonzero(candidate)
    bin_of, port = np.divmod(entry, ports)

    # Port j reads users j and j+1.  Only the users of candidate ports are
    # drawn, each once: the users are laid out so that an entry's left
    # user sits just before its right user, and the next port of the same
    # bin shares that right user.
    shared = np.zeros(entry.size, dtype=bool)
    shared[1:] = (np.diff(entry) == 1) & (port[1:] > 0)
    right = np.cumsum(2 - shared) - 1
    pair = np.stack([right - 1, right])
    n_drawn = int(right[-1]) + 1 if entry.size else 0

    # setting index = number of thresholds cum[:-1] that u reaches; u < 1
    # never reaches cum[-1], so this is searchsorted(cum, u, side="right")
    u = rng.random(n_drawn)
    setting = np.zeros(n_drawn, dtype=_index_type(n_settings))
    for edge in cum[:-1]:
        setting += u >= edge
    k_pair = setting[pair]
    slice_pair = rng.integers(0, m_slices, size=n_drawn, dtype=np.int16)[pair]
    bit_pair = rng.integers(0, 2, size=n_drawn, dtype=np.int8)[pair]

    success, d_val = _detect_ports(k_pair, slice_pair, bit_pair, single, right_given_single, rng)

    # the pick uniforms are drawn for every candidate bin, but only bins
    # with a success need a port: the pick-th successful one, counted from 0
    hits = np.flatnonzero(success)
    hit_bins = bin_of[hits]
    starts = np.flatnonzero(np.diff(hit_bins, prepend=-1))
    counts = np.diff(starts, append=hits.size)
    u_pick = rng.random(n_cand)
    chosen = hits[starts + (u_pick[hit_bins[starts]] * counts).astype(np.int64)]

    k_left, k_right = k_pair[:, chosen]
    s_left, s_right = slice_pair[:, chosen]
    keep = (k_left == k_right) & ((s_left - s_right) % half == 0)
    chosen, s_left, s_right = chosen[keep], s_left[keep], s_right[keep]
    # phase bit floor(2 s / M) = [s >= M/2] (M is even); 2 s overflows int16
    columns = {
        "port": port[chosen].astype(_index_type(ports)),
        "m": s_left % half,
        "k_idx": k_left[keep],
        "m_left": (s_left >= half).astype(np.int8),
        "m_right": (s_right >= half).astype(np.int8),
        "r_left": bit_pair[0, chosen],
        "r_right": bit_pair[1, chosen],
        "d": d_val[chosen],
    }
    return columns, n_cand


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
    # Each stream is spawned when it is needed: successive spawn(1) calls
    # give the children one spawn(n_shards + 1) would, without holding them all.
    master = np.random.SeedSequence(seed)
    columns: list[dict[str, np.ndarray]] = []
    candidate_bins = 0
    remaining = num_bins
    for i in range(n_shards):
        size = min(_SHARD_BINS, remaining)
        remaining -= size
        rng = np.random.default_rng(master.spawn(1)[0])
        shard, n_cand = _generate_shard(config, channel, size, rng, cos_table)
        columns.append(shard)
        candidate_bins += n_cand

    merged = {key: np.concatenate([c[key] for c in columns]) for key in columns[0]}

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

    match_rng = np.random.default_rng(master.spawn(1)[0])
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
        candidate_bins=candidate_bins,
        shards=n_shards,
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
        return {"clean": self.clean, "max_abs_z": self.max_abs_z, **jsonable(self)}


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
