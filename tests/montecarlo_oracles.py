"""Scalar and per-bin copies of the simulator, kept as test oracles.

``generate_shard`` is the shard generator that ``mfqcka.montecarlo`` once
ran: it simulates every bin, evaluates ``sqrt``, ``cos`` and ``exp`` for
every port and draws the settings with ``searchsorted``.  The package
now simulates only the bins in which a port can click (thinning) and
consumes its random stream differently, so the tests require the two to
agree in distribution, by two-sample z-tests on the retained bins.

``reference_shard`` is the thinning shard generator as the package ran
it before its working set was bounded: it builds the port tables itself,
draws every uniform of a kind in one call, holds the candidate flags as
a float matrix and indexes users through stacked int64 pairs.  It is the
reference of the draw order: the tests require ``_generate_shard`` to
return its columns, dtypes and candidate count bit for bit.

``extract_bits`` is the per-record bit extraction the package once
exported next to its array kernel ``montecarlo._conference_bits``; the
tests require the two to agree on every coincidence they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mfqcka.channel import total_efficiency
from mfqcka.model import ChannelParams, SourceConfig


def click_probabilities(
    k_a: np.ndarray,
    k_b: np.ndarray,
    delta: np.ndarray,
    xor: np.ndarray,
    eta_t: float,
    p_d: float,
    cos_table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right click probabilities, written as ``generate_shard`` computes them.

    ``k_a``/``k_b`` are intensities, ``delta`` the slice difference mod M
    and ``xor`` the XOR of the two raw bits, all 1-d arrays of one length.
    """
    sign = 1.0 - 2.0 * xor
    beat = eta_t * np.sqrt(k_a * k_b) * cos_table[delta] * sign
    mean = 0.5 * eta_t * (k_a + k_b)
    i_left = np.maximum(mean + beat, 0.0)
    i_right = np.maximum(mean - beat, 0.0)
    return 1.0 - (1.0 - p_d) * np.exp(-i_left), 1.0 - (1.0 - p_d) * np.exp(-i_right)


def generate_shard(
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
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    settings = np.asarray(config.intensities)
    cum = np.cumsum(np.asarray(config.send_probabilities))
    cum[-1] = 1.0  # guard the top edge against rounding

    k_idx = np.searchsorted(cum, rng.random((n_users, n_bins)), side="right").astype(np.int8)
    slices = rng.integers(0, m_slices, size=(n_users, n_bins), dtype=np.int16)
    bits = rng.integers(0, 2, size=(n_users, n_bins), dtype=np.int8)

    success = np.empty((ports, n_bins), dtype=bool)
    d_val = np.empty((ports, n_bins), dtype=np.int8)
    intensities = settings[k_idx]
    for j in range(ports):
        k_a = intensities[j]
        k_b = intensities[j + 1]
        sign = 1.0 - 2.0 * np.bitwise_xor(bits[j], bits[j + 1])
        beat = eta_t * np.sqrt(k_a * k_b) * cos_table[(slices[j] - slices[j + 1]) % m_slices] * sign
        mean = 0.5 * eta_t * (k_a + k_b)
        i_left = np.maximum(mean + beat, 0.0)
        i_right = np.maximum(mean - beat, 0.0)
        click_left = rng.random(n_bins) < 1.0 - (1.0 - p_d) * np.exp(-i_left)
        click_right = rng.random(n_bins) < 1.0 - (1.0 - p_d) * np.exp(-i_right)
        success[j] = click_left ^ click_right
        d_val[j] = click_right

    counts = success.sum(axis=0)
    pick = (rng.random(n_bins) * counts).astype(np.int64)
    cum_success = np.cumsum(success, axis=0)
    chosen = (success & (cum_success == pick + 1)).argmax(axis=0)

    bin_ids = np.flatnonzero(counts > 0)
    port = chosen[bin_ids]
    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    keep = (k_idx[left] == k_idx[right]) & ((slices[left] - slices[right]) % (m_slices // 2) == 0)
    port, bin_ids = port[keep], bin_ids[keep]
    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    return {
        "port": port.astype(np.int8),
        "m": (slices[left] % (m_slices // 2)).astype(np.int16),
        "k_idx": k_idx[left],
        "m_left": (2 * slices[left] // m_slices).astype(np.int8),
        "m_right": (2 * slices[right] // m_slices).astype(np.int8),
        "r_left": bits[left],
        "r_right": bits[right],
        "d": d_val[left],
    }


def reference_port_tables(
    config: SourceConfig, channel: ChannelParams, cos_table: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Single-click probability s of one port and P(d = 1 | single click).

    Both have the shape (S, S, M, 2), indexed by the two users' setting
    indices, their slice difference mod M and the XOR of their raw bits.
    """
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    settings = np.asarray(config.intensities)
    k_a = settings[:, None, None, None]
    k_b = settings[None, :, None, None]
    sign = 1.0 - 2.0 * np.arange(2)
    beat = eta_t * np.sqrt(k_a * k_b) * cos_table[None, None, :, None] * sign
    p_left = 1.0 - (1.0 - p_d) * np.exp(-np.maximum(0.5 * eta_t * (k_a + k_b) + beat, 0.0))
    p_right = p_left[..., ::-1]
    right_only = p_right * (1.0 - p_left)
    single = p_left * (1.0 - p_right) + right_only
    right_given_single = np.divide(
        right_only, single, out=np.zeros_like(single), where=single > 0.0
    )
    return single, right_given_single


def reference_shard(
    config: SourceConfig,
    channel: ChannelParams,
    n_bins: int,
    rng: np.random.Generator,
    cos_table: np.ndarray,
) -> tuple[dict[str, np.ndarray], int]:
    """Simulate one block of bins by thinning, in the reference draw order.

    Returns the retained-bin columns and the number of candidate bins.
    The draws, in order: the candidate-bin count, the first candidate
    port of every candidate bin, the (candidates, ports) flags, the
    setting uniforms, slices and raw bits of the drawn users, one success
    uniform per candidate port, one announcement uniform per success and
    one pick uniform per candidate bin.
    """
    ports = config.num_users - 1
    m_slices = config.phase_slices
    half = m_slices // 2
    n_settings = len(config.intensities)
    index_type = lambda count: np.min_scalar_type(-count)
    cum = np.cumsum(np.asarray(config.send_probabilities))
    single, right_given_single = reference_port_tables(config, channel, cos_table)
    q = float(single.max())

    if q < 1.0:
        reach = -np.expm1(np.arange(1, ports + 1) * math.log1p(-q))
    else:
        reach = np.ones(ports)
    n_cand = int(rng.binomial(n_bins, reach[-1]))
    first = np.searchsorted(reach, rng.random(n_cand) * reach[-1], side="right")
    np.minimum(first, ports - 1, out=first)
    first = first[:, None]
    port_ids = np.arange(ports)
    candidate = (port_ids == first) | ((port_ids > first) & (rng.random((n_cand, ports)) < q))
    entry = np.flatnonzero(candidate)
    bin_of, port = np.divmod(entry, ports)

    # an entry's left user sits just before its right user, and the next
    # port of the same bin shares that right user
    shared = np.zeros(entry.size, dtype=bool)
    shared[1:] = (np.diff(entry) == 1) & (port[1:] > 0)
    right = np.cumsum(2 - shared) - 1
    pair = np.stack([right - 1, right])
    n_drawn = int(right[-1]) + 1 if entry.size else 0

    u = rng.random(n_drawn)
    setting = np.zeros(n_drawn, dtype=index_type(n_settings))
    for edge in cum[:-1]:
        setting += u >= edge
    k_pair = setting[pair]
    slice_pair = rng.integers(0, m_slices, size=n_drawn, dtype=np.int16)[pair]
    bit_pair = rng.integers(0, 2, size=n_drawn, dtype=np.int8)[pair]

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
    columns = {
        "port": port[chosen].astype(index_type(ports)),
        "m": s_left % half,
        "k_idx": k_left[keep],
        "m_left": (s_left >= half).astype(np.int8),
        "m_right": (s_right >= half).astype(np.int8),
        "r_left": bit_pair[0, chosen],
        "r_right": bit_pair[1, chosen],
        "d": d_val[chosen],
    }
    return columns, n_cand


@dataclass(frozen=True)
class TimeBinRecord:
    """Everything one time bin produced, before filtering.

    ``outcomes[j]`` is the port-j result ("none", "left", "right" or
    "both"); ``selected_port`` (1-based) and ``announced_d`` are set when
    the relay saw at least one successful click and broadcast it.
    """

    intensities: tuple[float, ...]
    slice_indices: tuple[int, ...]
    bits: tuple[int, ...]
    outcomes: tuple[str, ...]
    selected_port: int | None
    announced_d: int | None
    phase_slices: int

    def phase_value(self, user: int) -> int:
        """Phase computational bit of ``user`` (1-based): floor(2 M_j / M)."""
        return 2 * self.slice_indices[user - 1] // self.phase_slices


def extract_bits(coincidence: Sequence[TimeBinRecord]) -> tuple[int, ...]:
    """Conference bits of all users from one matched coincidence.

    ``coincidence[i]`` must be the bin announced for port i+1.  User 1
    keeps their raw bit; every other user XORs their raw bit with the
    published phase bits and detector announcements accumulated along the
    port chain, which aligns all bits with user 1 under ideal detection.
    """
    ports = len(coincidence)
    for i, rec in enumerate(coincidence):
        if rec.selected_port != i + 1:
            raise ValueError(f"record {i} does not announce port {i + 1}")
        if rec.announced_d is None:
            raise ValueError(f"missing announcement for port {i + 1}")

    m_of = lambda i, user: coincidence[i].phase_value(user)
    r_of = lambda i, user: coincidence[i].bits[user - 1]

    bits = [r_of(0, 1)]
    m1 = m_of(0, 1)
    d_acc = 0
    m_acc = m1
    mt_acc = 0
    rp_acc = 0
    for j in range(2, ports + 2):  # users 2..N read ports j-1 at index j-2
        t = j - 2
        d_acc ^= coincidence[t].announced_d
        m_acc ^= m_of(t, j)
        if t >= 1:
            mt_acc ^= m_of(t, j - 1)  # user j-1's value in its second bin
            rp_acc ^= r_of(t - 1, j - 1) ^ r_of(t, j - 1)
        bits.append(r_of(t, j) ^ rp_acc ^ d_acc ^ m_acc ^ mt_acc)
    return tuple(bits)


def coincidence_bits(
    slice_left: np.ndarray,
    slice_right: np.ndarray,
    r_left: np.ndarray,
    r_right: np.ndarray,
    d: np.ndarray,
    m_slices: int,
) -> np.ndarray:
    """``extract_bits`` of every column, on records built from the arrays.

    Each argument has the shape (ports, n), port i+1's bin in row i, with
    the slices and raw bits of its left and right users and the
    announcement.  Returns the (N, n) conference bits.
    """
    ports, n = d.shape
    num_users = ports + 1
    out = np.empty((num_users, n), dtype=np.int8)
    for col in range(n):
        records = []
        for i in range(ports):
            intensities = [0.0] * num_users
            slices = [0] * num_users
            bits = [0] * num_users
            intensities[i] = intensities[i + 1] = 0.1
            slices[i], slices[i + 1] = int(slice_left[i, col]), int(slice_right[i, col])
            bits[i], bits[i + 1] = int(r_left[i, col]), int(r_right[i, col])
            outcomes = ["none"] * ports
            outcomes[i] = "right" if d[i, col] else "left"
            records.append(
                TimeBinRecord(
                    intensities=tuple(intensities),
                    slice_indices=tuple(slices),
                    bits=tuple(bits),
                    outcomes=tuple(outcomes),
                    selected_port=i + 1,
                    announced_d=int(d[i, col]),
                    phase_slices=m_slices,
                )
            )
        out[:, col] = extract_bits(records)
    return out
