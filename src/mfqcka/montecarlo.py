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
each run evaluates them once into small tables (``_click_tables``).
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
global pass over the retained bins and runs after all shards.  Within a
shard the uniforms are drawn in blocks of ``_BLOCK`` and indices held as
int32, so its working set is a few bytes per candidate port; the blocks
continue one stream and leave every draw where one call would put it.

Matching only draws; one pass after it extracts every sifted bit with
one kernel, ``_conference_bits``: user j's bit differs from user 1's
where an odd number of ports 1 .. j-1 announced the wrong detector (the
piling-up lemma of ``channel.marginal_errors``).
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple, Sequence

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


class TrialSummary(NamedTuple):
    """Aggregated counts of one simulated protocol run; ``to_dict`` writes arrays as nested lists.

    Settings run in the ladder order of ``intensities``, slices m over 0 .. M/2 - 1.
    """

    bins: int
    seed: int
    num_users: int
    phase_slices: int
    intensities: tuple[float, ...]
    retained_clicks: np.ndarray  # [setting, port - 1, slice]
    sifted: np.ndarray  # [setting]
    adjacent_total: np.ndarray  # [port - 1]
    adjacent_wrong: np.ndarray  # [port - 1]
    conference_errors: np.ndarray  # [user - 2]
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
    the same floating-point operations on the same operands, so it equals
    the formula bit for bit.  Flipping the XOR negates the beat exactly,
    so the right table, mean - beat, is the left one mirrored on that axis
    (a view).  The left table is built in place, in one array of
    2 S^2 M doubles (512 for N=3, M=16; 65 MB for N=256, M=62).
    """
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    settings = np.asarray(config.intensities)
    k_a = settings[:, None, None, None]
    k_b = settings[None, :, None, None]
    sign = 1.0 - 2.0 * np.arange(2)
    p_left = eta_t * np.sqrt(k_a * k_b) * cos_table[None, None, :, None] * sign
    p_left += 0.5 * eta_t * (k_a + k_b)
    np.maximum(p_left, 0.0, out=p_left)
    np.negative(p_left, out=p_left)
    np.exp(p_left, out=p_left)
    p_left *= 1.0 - p_d
    np.subtract(1.0, p_left, out=p_left)
    return p_left, p_left[..., ::-1]


def _port_tables(
    config: SourceConfig, channel: ChannelParams, cos_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-click probability of one port and the chance it is on the right.

    Both tables have the shape of ``_click_tables``.  The first holds
    s = pL (1 - pR) + pR (1 - pL), the second P(d = 1 | single click) =
    pR (1 - pL) / s (0 where s is 0).  The left-only term pL (1 - pR) is
    the right-only term mirrored on the XOR axis, so two tables of the
    click tables' size are all the memory the build takes.
    """
    p_left, p_right = _click_tables(config, channel, cos_table)
    right_given_single = 1.0 - p_left
    right_given_single *= p_right
    del p_left, p_right
    single = right_given_single[..., ::-1] + right_given_single
    # where s is 0 both of its nonnegative terms are, so pR (1 - pL) is the 0 kept there
    np.divide(right_given_single, single, out=right_given_single, where=single > 0.0)
    return single, right_given_single


# Uniforms are drawn and thresholded this many at a time, so that no
# float array of a shard's size is held; a block of 2^14 doubles is 128 KB.
_BLOCK = 1 << 14


def _uniform_blocks(rng: np.random.Generator, rows: int, width: int = 1):
    """Yield (start, stop, u): the uniforms of rows start .. stop-1, row-major.

    ``u`` holds (stop - start) * width numbers, about ``_BLOCK`` of them.
    Successive ``Generator.random`` calls continue one stream, so the
    blocks together hold exactly what one ``rng.random((rows, width))``
    call returns.
    """
    step = max(1, _BLOCK // width)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield start, stop, rng.random((stop - start) * width)


def _candidate_ports(
    rng: np.random.Generator, n_cand: int, reach: np.ndarray, q: float, index: np.dtype
) -> np.ndarray:
    """One entry, bin * ports + port, per candidate port of ``n_cand`` candidate bins.

    ``reach[j]`` is the chance that one of ports 0 .. j is a candidate.
    The first candidate port of a bin follows by inversion of that
    truncated geometric law, the later ones are Bernoulli(q).  Entries are
    ordered by bin and then port.
    """
    ports = reach.size
    # first = number of thresholds reach[:-1] that u reach[-1] reaches, which
    # is searchsorted(reach, u reach[-1], side="right") capped at the last
    # port, where u reach[-1] may round up to reach[-1]
    first = np.zeros(n_cand, dtype=_index_type(ports))
    for start, stop, u in _uniform_blocks(rng, n_cand):
        u *= reach[-1]
        for edge in reach[:-1]:
            first[start:stop] += u >= edge
    # the port of each flag of a block, flat: broadcasting the (rows, ports)
    # comparison instead is slow for few ports
    port_of = np.tile(np.arange(ports, dtype=first.dtype), max(1, _BLOCK // ports))
    parts = [np.zeros(0, dtype=index)]
    for start, stop, u in _uniform_blocks(rng, n_cand, ports):
        head = np.repeat(first[start:stop], ports)
        port = port_of[: u.size]
        flags = u < q
        flags &= port > head
        flags |= port == head
        parts.append((np.flatnonzero(flags) + start * ports).astype(index))
    return np.concatenate(parts)


def _right_users(entry: np.ndarray, ports: int) -> np.ndarray:
    """Index of each candidate port's right user; its left user is one before.

    Port j reads users j and j+1.  Only the users of candidate ports are
    drawn, each once: an entry's left user sits just before its right
    user, and the next port of the same bin shares that right user.
    """
    step = np.full(entry.size, 2, dtype=np.int8)
    step[1:] -= (np.diff(entry) == 1) & (entry[1:] % ports != 0)
    right = np.cumsum(step, dtype=entry.dtype)
    right -= 1
    return right


def _draw_users(
    rng: np.random.Generator, n_users: int, config: SourceConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Setting index, slice and raw bit of ``n_users`` users."""
    # setting index = number of thresholds cum[:-1] that u reaches; u < 1
    # never reaches cum[-1], so this is searchsorted(cum, u, side="right")
    cum = np.cumsum(np.asarray(config.send_probabilities))
    setting = np.zeros(n_users, dtype=_index_type(cum.size))
    for start, stop, u in _uniform_blocks(rng, n_users):
        for edge in cum[:-1]:
            setting[start:stop] += u >= edge
    slices = rng.integers(0, config.phase_slices, size=n_users, dtype=np.int16)
    bits = rng.integers(0, 2, size=n_users, dtype=np.int8)
    return setting, slices, bits


def _table_keys(
    users: tuple[np.ndarray, ...], right: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Flat index of each port into the (S, S, M, 2) port tables.

    ``users`` holds the setting indices, slices and raw bits of the users,
    and ``right`` each port's right user; the key is that of (left
    setting, right setting, slice difference mod M, bit XOR).
    """
    setting, slices, bits = users
    n_settings, _, m_slices, _ = shape
    key_type = np.promote_types(right.dtype, _index_type(math.prod(shape)))
    right = right.astype(np.intp)  # numpy gathers with intp indices
    left = right - 1
    key = setting[left].astype(key_type)
    key *= n_settings
    key += setting[right]
    key *= m_slices
    delta = slices[left] - slices[right]
    key += delta
    key += (delta < 0) * key.dtype.type(m_slices)  # the difference mod M
    key *= 2
    key += bits[left] ^ bits[right]
    return key


def _detect_ports(
    users: tuple[np.ndarray, ...],
    right: np.ndarray,
    single: np.ndarray,
    right_given_single: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Thin candidate ports down to single clicks.

    ``users`` and ``right`` are as in ``_table_keys``, one port per entry
    of ``right``.  A candidate succeeds with probability single[key] /
    max(single) and then announces d = 1 with probability
    right_given_single[key].  Returns the positions of the successes in
    ``right``, ascending, and their announcements.
    """
    q = single.max()
    success = np.empty(right.size, dtype=bool)
    for start, stop, u in _uniform_blocks(rng, right.size):
        u *= q
        keys = _table_keys(users, right[start:stop], single.shape)
        np.less(u, single.take(keys), out=success[start:stop])
    hits = np.flatnonzero(success).astype(right.dtype)
    d_val = np.empty(hits.size, dtype=bool)
    for start, stop, u in _uniform_blocks(rng, hits.size):
        keys = _table_keys(users, right[hits[start:stop]], single.shape)
        np.less(u, right_given_single.take(keys), out=d_val[start:stop])
    return hits, d_val


def _pick_ports(rng: np.random.Generator, n_cand: int, hit_bins: np.ndarray) -> np.ndarray:
    """Choose one success uniformly in every candidate bin that has one.

    ``hit_bins`` holds the candidate bin of each success, ascending.  A
    pick uniform is drawn for every candidate bin, but only bins with a
    success need one: the pick-th success of the bin, counted from 0.
    Returns the positions of the chosen successes in ``hit_bins``.
    """
    starts = np.flatnonzero(np.diff(hit_bins, prepend=-1)).astype(hit_bins.dtype)
    counts = np.diff(starts, append=hit_bins.size)
    bins = hit_bins[starts]
    for start, stop, u in _uniform_blocks(rng, n_cand):
        lo, hi = np.searchsorted(bins, (start, stop))
        starts[lo:hi] += (u[bins[lo:hi] - start] * counts[lo:hi]).astype(starts.dtype)
    return starts


def _generate_shard(
    config: SourceConfig,
    n_bins: int,
    rng: np.random.Generator,
    single: np.ndarray,
    right_given_single: np.ndarray,
) -> tuple[dict[str, np.ndarray], int]:
    """Simulate one block of bins by thinning.

    ``single`` and ``right_given_single`` are the run's ``_port_tables``.
    Returns the retained-bin columns and the number of candidate bins,
    the bins in which some port could click and which were simulated.
    The draws, in order: the candidate-bin count, the first candidate
    port of each candidate bin, the (candidates, ports) flags, the
    setting uniforms, slices and raw bits of the drawn users, one success
    uniform per candidate port, one announcement uniform per success and
    one pick uniform per candidate bin.  Uniforms are drawn in blocks and
    indices held as int32, which changes neither the numbers nor their
    order.
    """
    ports = config.num_users - 1
    half = config.phase_slices // 2
    q = float(single.max())

    # reach[j] = P(one of ports 0 .. j is a candidate) = 1 - (1 - q)^(j+1)
    if q < 1.0:
        reach = -np.expm1(np.arange(1, ports + 1) * math.log1p(-q))
    else:
        reach = np.ones(ports)
    n_cand = int(rng.binomial(n_bins, reach[-1]))
    # entries and users fit int32 unless a shard has 2^30 candidate ports
    index = np.promote_types(np.int32, _index_type(2 * n_cand * ports))
    entry = _candidate_ports(rng, n_cand, reach, q, index)
    right = _right_users(entry, ports)
    users = _draw_users(rng, int(right[-1]) + 1 if right.size else 0, config)
    hits, d_val = _detect_ports(users, right, single, right_given_single, rng)
    entry, right = entry[hits], right[hits]
    picks = _pick_ports(rng, n_cand, entry // ports)
    entry, right, d_val = entry[picks], right[picks], d_val[picks]

    setting, slices, bits = users
    k_left = setting[right - 1]
    s_left, s_right = slices[right - 1], slices[right]
    keep = (k_left == setting[right]) & ((s_left - s_right) % half == 0)
    right, s_left, s_right = right[keep], s_left[keep], s_right[keep]
    # phase bit floor(2 s / M) = [s >= M/2] (M is even); 2 s overflows int16
    return {
        "port": (entry[keep] % ports).astype(_index_type(ports)),
        "m": s_left % half,
        "k_idx": k_left[keep],
        "m_left": (s_left >= half).astype(np.int8),
        "m_right": (s_right >= half).astype(np.int8),
        "r_left": bits[right - 1],
        "r_right": bits[right],
        "d": d_val[keep].astype(np.int8),
    }, n_cand


def _conference_bits(first: np.ndarray, wrong: np.ndarray) -> np.ndarray:
    """Conference bits of matched coincidences, one column per coincidence.

    ``first`` is user 1's raw bit and row i of the (ports, n) ``wrong``
    whether port i+1's announcement d differs from the noiseless one, the
    XOR of both users' phase and raw bits.  Returns the (N, n) bits: row
    j-1 is ``first`` XOR the running XOR of wrong rows 0 .. j-2, so under
    ideal detection every row equals row 0.
    """
    return np.vstack([first, first ^ np.bitwise_xor.accumulate(wrong, axis=0)])


def _write_dump(path: str, n_users: int, intensities: Sequence[float], table: np.ndarray) -> None:
    """Write the sifted coincidences as CSV, one row per column of ``table``.

    ``table`` holds the rows slice, setting index, the N-1 announcements
    and the N conference bits; the setting index is written as its
    intensity.
    """
    header = ["slice", "intensity", *(f"d_{j}" for j in range(1, n_users))]
    header += [f"bit_user_{j}" for j in range(1, n_users + 1)]
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
    exhausted, and keeps the coincidences whose users share one intensity.
    One pass over those sifted coincidences then counts them per setting
    and extracts their bits (``_conference_bits``), which are compared
    against user 1.

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
    single, right_given_single = _port_tables(config, channel, cos_table)

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
        shard, n_cand = _generate_shard(config, size, rng, single, right_given_single)
        columns.append(shard)
        candidate_bins += n_cand
    del single, right_given_single

    merged = {key: np.concatenate([c[key] for c in columns]) for key in columns[0]}
    del columns

    port, k_idx = merged["port"], merged["k_idx"]
    combo = (k_idx.astype(np.int64) * ports + port) * half + merged["m"]
    retained = np.bincount(combo, minlength=n_settings * ports * half).reshape(n_settings, ports, half)

    signal = k_idx == 0
    # the announcement differs from the noiseless one, d = m_left ^ r_left ^ m_right ^ r_right
    wrong = (merged["d"] ^ merged["m_left"] ^ merged["r_left"] ^ merged["m_right"] ^ merged["r_right"]).astype(bool)
    adjacent_total = np.bincount(port[signal], minlength=ports)
    adjacent_wrong = np.bincount(port[signal & wrong], minlength=ports)

    match_rng = np.random.default_rng(master.spawn(1)[0])
    # The retained bins sorted stably by (slice, port), a radix sort on the
    # smallest integer type: each group is the ascending index list of its
    # slice and port, as a mask over all retained bins would give it.
    totals = retained.sum(axis=0).T  # (slice, port)
    bounds = np.concatenate([[0], np.cumsum(totals)])
    group = merged["m"].astype(_index_type(half * ports))
    group *= ports
    group += port
    order = np.argsort(group, kind="stable")
    matched = [np.zeros((ports, 0), dtype=order.dtype)]
    for m in np.flatnonzero(totals.min(axis=1)).tolist():
        sets = [order[bounds[g] : bounds[g + 1]] for g in range(m * ports, (m + 1) * ports)]
        n_min = min(len(s) for s in sets)
        rows = np.stack([s[match_rng.permutation(len(s))[:n_min]] for s in sets])  # (ports, n_min)
        k_mat = k_idx[rows]
        matched.append(rows[:, (k_mat == k_mat[0]).all(axis=0)])

    cols = np.hstack(matched)  # (ports, sifted coincidences), by slice
    k_common = k_idx[cols[0]]
    sifted = np.bincount(k_common, minlength=n_settings)
    bits = _conference_bits(merged["r_left"][cols[0]], wrong[cols])
    errors = bits[1:] ^ bits[0]
    if coincidence_dump is not None:
        table = np.vstack([merged["m"][cols[0]], k_common, merged["d"][cols], bits])
        _write_dump(coincidence_dump, n_users, config.intensities, table)

    return TrialSummary(
        bins=num_bins,
        seed=seed,
        num_users=n_users,
        phase_slices=m_slices,
        intensities=config.intensities,
        retained_clicks=retained,
        sifted=sifted,
        adjacent_total=adjacent_total,
        adjacent_wrong=adjacent_wrong,
        conference_errors=errors[:, k_common == 0].sum(axis=1),
        conference_errors_all_intensities=int(errors.sum()),
        coincidences=int(sifted.sum()),
        matched_draws=int(totals.min(axis=1).sum()),
        candidate_bins=candidate_bins,
        shards=n_shards,
    )


class StatCheck(NamedTuple):
    name: str
    observed: float
    expected: float
    z: float
    flagged: bool


class ComparisonReport(NamedTuple):
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


def _wilson_hilferty(x2: np.ndarray, nu: int) -> np.ndarray:
    """Normal z of chi-square values x2 with nu degrees of freedom (Wilson and Hilferty, PNAS 17, 684, 1931)."""
    v = 2.0 / (9.0 * nu)
    return (np.cbrt(x2 / nu) - 1.0 + v) / math.sqrt(v)


def compare_to_analytic(summary: TrialSummary, bundle: Bundle) -> ComparisonReport:
    """Test each statistic the model predicts once, in the ladder order of the arrays.

    ``retained[k,port]`` pools a (setting, port) count over the M/2 slices;
    it, ``sifted[k]`` and ``adjacent_error[port]`` are tested against
    their analytic means by z = (observed - expected) / sqrt(expected).
    ``slice_homogeneity[port]`` tests that a port's slice totals share one
    mean, as the slices do by symmetry: Pearson's X^2 given their sum
    against nu = M/2 - 1, z by Wilson-Hilferty.  A statistic whose expected
    count (per slice, for homogeneity) is below 10 is skipped.
    """
    config = bundle.config
    sec = SecurityParams(data_size=float(summary.bins))
    stats = matching.expected_stats(config, bundle.channel, sec)

    checks: list[StatCheck] = []
    skipped: list[str] = []

    def add(name: str, observed: float, expected: float, mean: float | None = None, z: float | None = None) -> None:
        if (expected if mean is None else mean) < _MIN_EXPECTED:
            skipped.append(name)
            return
        z = (observed - expected) / math.sqrt(expected) if z is None else z
        checks.append(StatCheck(name, observed, expected, z, abs(z) > _Z_FLAG))

    settings, half = config.intensities, config.phase_slices // 2
    pooled = summary.retained_clicks.sum(axis=2).tolist()
    for (k, j), expected in np.ndenumerate(half * stats.retained_clicks):
        add(f"retained[k={settings[k]!r},port={j + 1}]", pooled[k][j], float(expected))
    totals = summary.retained_clicks.sum(axis=0)
    mean = totals.mean(axis=1, keepdims=True)
    x2 = (np.square(totals - mean) / np.where(mean > 0.0, mean, 1.0)).sum(axis=1)
    z = _wilson_hilferty(x2, half - 1)
    for j, per_slice in enumerate(stats.retained_clicks.sum(axis=0).tolist()):
        add(f"slice_homogeneity[port={j + 1}]", float(x2[j]), half - 1.0, per_slice, float(z[j]))
    for k, setting in enumerate(settings):
        add(f"sifted[k={setting!r}]", int(summary.sifted[k]), float(stats.sifted[k]))
    for j, (wrong, n_obs) in enumerate(zip(summary.adjacent_wrong.tolist(), summary.adjacent_total.tolist()), 1):
        add(f"adjacent_error[port={j}]", wrong, stats.adjacent_error * n_obs)
    return ComparisonReport(checks=tuple(checks), skipped=tuple(skipped))
