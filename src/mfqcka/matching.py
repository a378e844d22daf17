"""Expected post-measurement coincidence-matching statistics.

These are the analytic means of the counting process: how many successful
time bins survive click filtering per (intensity, port) in each phase slice, and
how many full coincidences the slice-wise matcher produces per intensity.
Integer realizations of the same process live in the Monte Carlo module.

The retained-click formula averages over the intensity choices of the
users not attached to the announced port and corrects for the 1/(l+1)
chance that the relay picks the announced port when l other ports also
succeeded in the same time bin.  With 1/(l+1) = int_0^1 t^l dt the
inclusion-exclusion sum over subsets of the other ports becomes
int_0^1 prod_v (1 - t q_v) dt, and its mixture average factorizes along
the user chain: a product of (S x S) transfer matrices
A(t)[a, b] = 1 - t q_avg[a, b] weighted by the send probabilities, left
of the announced port and right of it.  The integrand is a polynomial of
degree N-2 in t, so an N//2-node Gauss-Legendre rule integrates it
exactly.  Cost is polynomial in the number of users.

The formulas carry a leading batch axis: ``_count_rows`` and
``_sifted_rows`` evaluate a stack of ladders (one row each) in one pass,
over one channel or one channel per row.
``_count_matrix``, the one cached entry point, is one row of
``_count_rows``, and the scalar entry points read it and pass it through
``_sifted_rows`` where they need sifted counts.  A row's value never
depends on the rows around it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import error_terms, pair_gains, total_efficiency
from .model import ChannelParams, CoincidenceStats, SecurityParams, SourceConfig
from .special_math import _sum_along

__all__ = [
    "sifted_coincidences",
    "expected_stats",
]


@lru_cache(maxsize=None)
def _setting_pairs(settings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Distinct setting pairs (a <= b), the index of every (a, b) among them, and of every (k, k).

    The pairs with the vacuum (the last setting) come last, where the
    Bessel rule skips them (``special_math._i0_rule``).
    """
    first, second = np.triu_indices(settings)
    last = np.argsort(second == settings - 1, kind="stable")
    first, second = first[last], second[last]
    index = np.empty((settings, settings), dtype=np.intp)
    index[first, second] = index[second, first] = np.arange(len(first))
    return first, second, index, np.diagonal(index).copy()


def _per_row(value):
    """A scalar as it is; one value per row as a column against the row's settings."""
    return value[:, None] if isinstance(value, np.ndarray) and value.ndim else value


def _gain_rows(ks: np.ndarray, eta_t, p_d) -> tuple[np.ndarray, np.ndarray]:
    """The gains entering the matching sums, per ladder (row of ``ks``).

    ``eta_t`` and ``p_d`` are scalars or one channel per row.
    ``q_avg[r, a, b]`` is the phase-averaged gain of settings a and b and
    ``q_zero[r, k]`` the zero-phase gain of matched setting k.  The gain
    formulas are symmetric bit for bit, so both are evaluated on the
    distinct pairs only.
    """
    first, second, index, matched = _setting_pairs(ks.shape[1])
    q_fixed, q_pairs = pair_gains(ks[:, first], ks[:, second], _per_row(eta_t), _per_row(p_d))
    return q_pairs[:, index], q_fixed[:, matched]


def _setting_index(config: SourceConfig, k: float) -> int:
    try:
        return config.intensities.index(k)
    except ValueError:
        raise ValueError(f"intensity {k!r} is not one of the configured settings") from None


def _legendre_series(x: np.ndarray, coefs: list[float]) -> np.ndarray:
    """sum_k coefs[k] P_k(x) by Clenshaw's recursion, in the operations of numpy's ``legval``.

    Starting from zeros, the two top steps copy the top two coefficients,
    which is where ``legval`` starts.
    """
    b0, b1 = 0.0, 0.0
    for nd, coef in zip(range(len(coefs) + 1, 1, -1), reversed(coefs)):
        b0, b1 = coef - b1 * ((nd - 1) / nd), b0 + b1 * x * ((2 * nd - 1) / nd)
    return b0 + b1 * x


@lru_cache(maxsize=None)
def _unit_gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact to degree 2n-1.

    The steps of numpy's ``leggauss``, without importing
    ``numpy.polynomial``: the eigenvalues of the symmetric companion
    matrix of P_n, one Newton step, weights 1 / (P_{n-1} P_n') scaled to
    sum to 2, and both halves symmetrized.  P_n' is the Legendre series
    of 2k + 1 at k = n-1, n-3, ...
    """
    n = n_nodes
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    off = np.arange(1, n) * scale[:-1] * scale[1:]
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p_n = [0.0] * n + [1.0]
    df = _legendre_series(x, [(2 * k + 1.0) * ((n - k) % 2) for k in range(n)])
    x -= _legendre_series(x, p_n) / df
    fm = _legendre_series(x, p_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return 0.5 * (x + 1.0), 0.5 * w


def _correction_factors(probs: np.ndarray, q_avg: np.ndarray, num_users: int) -> np.ndarray:
    """Mixture-averaged port-selection factor, indexed [row, port-1, setting].

    Port v interferes users v and v+1.  For port j, users j and j+1 are
    pinned to setting k and the others are averaged with their send
    probabilities.  ``chains[n]`` is the average of prod (1 - t q_v) over
    a chain of n ports ending at a pinned user, per node and end setting;
    the ports left of j form a chain of length j-1 and, since q_avg is
    symmetric, those right of j one of length N-1-j.  Every sum runs
    along an axis of the row's own block, in an order that does not
    depend on the number of rows.  The arrays keep the row last, so every
    operation runs along contiguous rows.
    """
    t, w = _unit_gauss_legendre(num_users // 2)
    rows, settings = probs.shape
    # transfer[n, b, a, r] = p_a (1 - t_n q_avg[a, b]) of row r; the chain step sums over a
    transfer = np.ascontiguousarray(probs.T) * (1.0 - t[:, None, None, None] * np.ascontiguousarray(q_avg.T))
    chains = np.empty((num_users - 1, len(t), settings, rows))  # [chain length, node, setting, row]
    chains[0] = 1.0
    for n in range(1, num_users - 1):
        chains[n] = _sum_along(chains[n - 1, :, None] * transfer, 2)
    factors = np.add.reduce(chains * chains[::-1] * w[:, None, None], axis=1)
    return np.ascontiguousarray(factors.transpose(2, 0, 1))


def _count_rows(
    ks: np.ndarray,
    probs: np.ndarray,
    num_users: int,
    phase_slices: int,
    eta_t,
    p_d,
    data_size: float,
) -> np.ndarray:
    """Expected per-slice retained clicks, indexed [row, port-1, setting].

    Row r is the ladder ``ks[r]`` sent with probabilities ``probs[r]``
    over a channel of total efficiency ``eta_t`` and dark-count rate
    ``p_d``, scalars or one per row; every row is computed exactly as it
    would be alone.
    """
    q_avg, q_zero = _gain_rows(ks, eta_t, p_d)
    prefactor = 4.0 * data_size * probs * probs * q_zero / (phase_slices * phase_slices)
    return prefactor[:, None, :] * _correction_factors(probs, q_avg, num_users)


@lru_cache(maxsize=256)
def _count_matrix(
    config: SourceConfig, channel: ChannelParams, data_size: float
) -> tuple[tuple[float, ...], ...]:
    """Expected per-slice retained clicks, indexed [port-1][setting]; one row of ``_count_rows``."""
    counts = _count_rows(
        np.array([config.intensities]),
        np.array([config.send_probabilities]),
        config.num_users,
        config.phase_slices,
        total_efficiency(channel),
        channel.dark_count_rate,
        data_size,
    )
    return tuple(tuple(row) for row in counts[0].tolist())


def _port_totals(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slice-set size per port, and its minimum per row (positive where every port has one)."""
    totals = np.add.reduce(counts, axis=-1)
    return totals, np.minimum.reduce(totals, axis=-1)


def _sifted_rows(counts: np.ndarray, phase_slices: int) -> np.ndarray:
    """Matcher mean (M/2) * n_min * prod_j (n_k_j / n_j), indexed [row, setting].

    Zero in the rows where some port's slice set is empty.
    """
    totals, n_min = _port_totals(counts)
    fractions = counts / np.where(totals > 0.0, totals, 1.0)[:, :, None]
    sifted = 0.5 * phase_slices * n_min[:, None] * np.multiply.reduce(fractions, axis=1)
    return np.where(n_min[:, None] > 0.0, sifted, 0.0)


def sifted_coincidences(
    k: float, config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> float:
    """Expected matched coincidences with common intensity k, all slices.

    s_k = (M/2) * n_min * prod_j (n_(k|k)_j / n_j) over the per-slice counts;
    zero whenever some port's slice set is empty.  One row of ``_sifted_rows``.
    """
    k_idx = _setting_index(config, k)
    counts = np.array([_count_matrix(config, channel, sec.data_size)])
    return float(_sifted_rows(counts, config.phase_slices)[0, k_idx])


def expected_stats(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> CoincidenceStats:
    """Assemble the full analytic statistics bundle for one working point."""
    counts = _count_matrix(config, channel, sec.data_size)
    errors = error_terms(
        config.signal_intensity, config.num_users, total_efficiency(channel), channel.dark_count_rate
    )
    return CoincidenceStats(
        retained_clicks=np.array(counts).T,
        sifted=_sifted_rows(np.array([counts]), config.phase_slices)[0],
        adjacent_error=float(errors.adjacent[0]),
    )
