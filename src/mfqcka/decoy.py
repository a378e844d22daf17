"""Multiparty decoy-state bounds on photon-number contributions.

Every bound is built from the same normalized counts

    t_k = s_k * exp(c (k - mu)) * (p_mu / p_k)^c,       c = 2 (N - 1),

which satisfy t_k = sum_n x_k^n s_mu^n with x_k = k / mu when the sifted
counts follow the photon-number decomposition of the phase-randomized
source.  One rule turns them into lower bounds on the photon numbers
m = N-1, N-3, ... >= 0 that the N-user phase error needs:

    s_mu^0 = t_0,    s_mu^m >= sum_k w_k t_k  (m >= 1),

where the w_k are the Lagrange weights of the degree-m coefficient of the
polynomial sum_{n=1}^{m+1} a_n x^n interpolating t_k - t_0 through the m+1
smallest nonzero intensities.  Dropping the (provably one-signed) residual
tail n >= m+2 of that interpolation makes the sum a lower bound.

The exponential and probability-power factors are combined in log space
before a single exponentiation per term because p_o^(2(N-1)) underflows a
naive evaluation for small vacuum probabilities.

Negative intermediate results are clamped to zero and reported in the
``clamped`` diagnostic of the returned bounds; clamping keeps the key
rate conservative when statistical fluctuation drives a bound negative.

The rule carries a leading batch axis: ``_decoy_rows`` bounds a stack of
ladders (one row each) in one pass, the rate kernel calls it directly,
and ``_decoy_bounds`` and the ``bounds_*`` entry points are one-row calls
of it.  A row's value never depends on the rows around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

import numpy as np

from .model import INFEASIBLE, ConfigError, DecoyBounds, EstimationError
from .special_math import _sum_along

__all__ = [
    "ObservedCounts",
    "bounds_3user_asymptotic",
    "bounds_3user_finite",
    "bounds_4user_asymptotic",
    "bounds_5user_asymptotic",
]


@dataclass(frozen=True)
class ObservedCounts:
    """Sifted coincidence counts per intensity with their send probabilities.

    ``sifted`` holds the ladder in order, signal first and vacuum last; the bounds never re-sort it.
    """

    sifted: Mapping[float, float]
    probabilities: Mapping[float, float]


def _chernoff_sides(s: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided interval (lower, upper) for the expected values behind nonnegative counts ``s``.

    upper = s + beta + sqrt(2 beta s + beta^2),
    lower = max(s - beta/2 - sqrt(2 beta s + beta^2/4), 0),  beta = ln(1/eps).
    """
    root = 2.0 * beta * s
    upper = s + beta + np.sqrt(root + beta * beta)
    lower = np.maximum(s - 0.5 * beta - np.sqrt(root + 0.25 * beta * beta), 0.0)
    return lower, upper


def _observed_lower(v: np.ndarray, beta: float) -> np.ndarray:
    """Pessimistic observed values implied by nonnegative lower-bounded expectations ``v``."""
    return np.maximum(v - np.sqrt(2.0 * beta * v), 0.0)


def _photon_numbers(num_users: int) -> range:
    """The photon numbers m = N-1, N-3, ... >= 0 the N-user phase error needs, ascending."""
    return range((num_users - 1) % 2, num_users, 2)


class DecoyRows(NamedTuple):
    """The decoy rule on a batch of ladders; column i of the bounds is _photon_numbers(N)[i].

    ``cause`` holds, per row, the code (see ``model.INFEASIBLE``) of the
    error the one-row entry points raise, 0 where they return.  The other
    fields of such a row are meaningless.
    """

    bounds: np.ndarray
    clamped: np.ndarray
    phase_error: np.ndarray
    chernoff_applications: np.ndarray
    cause: np.ndarray


_CONFIG = INFEASIBLE.index(ConfigError)
_ESTIMATION = INFEASIBLE.index(EstimationError)

# What a row that fails the ladder rule (``_ladder_rows``) or has a negative count raises.
_LADDER_ERROR = "intensities must be strictly decreasing to the vacuum, counts >= 0, probs > 0"


def _ladder_rows(ks: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per row r: is ``ks[r]`` strictly decreasing down to the vacuum, with every ``probs[r]`` > 0?

    The ladder rule of every rate mode; a nan anywhere fails it.
    """
    margins = np.concatenate([ks[:, :-1] - ks[:, 1:], probs], axis=1)
    return (np.minimum.reduce(margins, axis=1) > 0.0) & (ks[:, -1] == 0.0)


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _lagrange_weights(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights of the bound on s_mu^m over the m+1 nodes ``xs[j]`` = k_j / mu, m = len(xs) - 1.

    ``xs`` holds one row per node, largest first, and one column per
    ladder.  With S = sum_j x_j, w_j = -(S - x_j) / (x_j prod_{i != j}
    (x_j - x_i)) and the vacuum weight is (-1)^m S / prod_j x_j.  Returns
    the node weights followed by the vacuum weight, and the ladders whose
    nodes underflow (prod_j x_j = 0 or some x_j prod_{i != j} (x_j - x_i)
    = 0), where the weights are meaningless.
    """
    m = len(xs) - 1
    total = _sum_along(xs, 0)
    scale = np.multiply.reduce(xs)
    gaps = xs[:, None] - xs + _eye(m + 1)[:, :, None]  # x_j - x_i, 1 on the diagonal
    denom = xs * np.multiply.reduce(gaps, axis=1)
    lost, tiny = denom == 0.0, scale == 0.0
    nodes = (xs - total) / (denom + lost)
    vacuum = (-1) ** m * total / (scale + tiny)
    return np.concatenate([nodes, vacuum[None]]), tiny | np.logical_or.reduce(lost)


@np.errstate(over="ignore", invalid="ignore")
def _decoy_rows(ks: np.ndarray, probs: np.ndarray, sifted: np.ndarray, eps: float | None = None) -> DecoyRows:
    """The shared rule on a batch: row r is the ladder ``ks[r]`` (signal first) of N+1 settings.

    ``probs`` and ``sifted`` are aligned with ``ks``, and N is read from
    their width.  With ``eps`` each count enters at its Chernoff lower
    side where its weight is positive and at its upper side otherwise,
    and every bound is converted back to a pessimistic observed value.
    Rows that fail the ladder rule (``_ladder_rows``) or have a negative
    count get a ConfigError cause; a weight whose nodes underflow, a zero
    signal count and a bound or phase error that overflows (a send
    probability p_k far below p_mu overflows (p_mu / p_k)^c, and a decoy
    intensity far below mu the weights) an EstimationError cause.  Such
    an overflow emits no warning, and its row's phase error is nan.

    The normalized counts t_k = s_k exp(c (k - mu)) (p_mu / p_k)^c are
    formed in log space.  The bound on s_mu^m weighs the m+1 smallest
    nonzero settings and the vacuum, a contiguous block of settings, with
    the weights of ``_lagrange_weights``.

    ``chernoff_applications`` is (N+1) + ceil(N/2) with ``eps`` and 0
    without: each of the N+1 counts enters at one side in every bound, plus
    one conversion per bound.  On a strictly decreasing ladder node j of
    a bound, counted from the largest, has a weight of sign (-1)^(j+1),
    and the block of s_mu^(m+2) starts two settings before the block of
    s_mu^m, so a setting keeps the sign of its weight from bound to
    bound.  The vacuum weight has sign (-1)^m, every m of one N has the
    same parity, and the weight of s_mu^0 is 1.
    """
    rows, settings = ks.shape
    num_users = settings - 1
    # counts nonnegative: s + 5e-324 > 0 is s >= 0, as no double lies
    # strictly between -5e-324 and 0
    valid = _ladder_rows(ks, probs) & (np.minimum.reduce(sifted, axis=1) + 5e-324 > 0.0)
    # One row per setting: the rule's operations then run along contiguous rows.
    ks, probs, sifted = ks.T.copy(), probs.T.copy(), sifted.T.copy()
    c = 2.0 * (num_users - 1)
    mu = np.where(valid, ks[0], 1.0)
    log_p = np.log(np.where(valid, probs, 1.0))
    factors = np.exp(c * (ks - mu) + c * (log_p[0] - log_p))
    counts = np.where(valid, sifted, 0.0)
    if eps is None:
        lower = upper = counts
    else:
        beta = math.log(1.0 / eps)
        lower, upper = _chernoff_sides(counts, beta)

    s_mu = sifted[0]
    no_signal = s_mu <= 0.0
    estimation = no_signal  # the rows with an EstimationError cause
    ms = _photon_numbers(num_users)
    raw = np.empty((len(ms), rows))
    for i, m in enumerate(ms):
        if m == 0:  # s_mu^0 = t_0: the vacuum count alone, with weight 1
            raw[i] = lower[-1] * factors[-1]
            continue
        block = slice(settings - m - 2, settings)
        weights, underflow = _lagrange_weights(ks[settings - m - 2 : -1] / mu)
        estimation = estimation | underflow
        chosen = lower[block] if eps is None else np.where(weights > 0.0, lower[block], upper[block])
        raw[i] = _sum_along(weights * chosen * factors[block], 0)

    clamped = raw < 0.0
    bounds = np.maximum(raw, 0.0)
    if eps is not None:
        bounds = _observed_lower(bounds, beta)
    applications = np.full(rows, 0 if eps is None else settings + len(ms), dtype=np.int64)
    phi = 1.0 - _sum_along(bounds, 0) / np.where(no_signal, 1.0, s_mu)
    check = phi + np.add.reduce(raw)
    if not math.isfinite(np.add.reduce(check)):  # some row overflowed; one sum keeps the usual case cheap
        lost = ~np.isfinite(check)
        phi[lost] = np.nan
        estimation = estimation | lost
    cause = np.where(valid, estimation * np.int8(_ESTIMATION), np.int8(_CONFIG))
    return DecoyRows(bounds.T, clamped.T, np.minimum(np.maximum(phi, 0.0), 1.0), applications, cause)


def _decoy_bounds(observed: ObservedCounts, num_users: int, eps: float | None = None) -> DecoyBounds:
    """The shared rule on one set of counts; ``eps`` switches on the finite-size treatment.

    One row of ``_decoy_rows`` on the ladder ``observed.sifted`` in its
    order; raises where that row has a cause.
    """
    ks = tuple(observed.sifted)
    if len(ks) != num_users + 1:
        raise ConfigError(f"{num_users}-user bounds need {num_users + 1} intensity settings, got {len(ks)}")
    rows = _decoy_rows(
        np.array([ks]),
        np.array([[observed.probabilities[k] for k in ks]]),
        np.array([list(observed.sifted.values())]),
        eps,
    )
    if rows.cause[0] == _CONFIG:
        raise ConfigError(_LADDER_ERROR)
    if rows.cause[0]:
        if observed.sifted[ks[0]] <= 0.0:
            raise EstimationError("no sifted signal coincidences; phase error undefined")
        if np.isnan(rows.phase_error[0]):
            raise EstimationError(
                "decoy bound overflows: a send probability or a decoy intensity is too small "
                "relative to the signal's"
            )
        raise EstimationError("decoy intensities too small relative to the signal to weigh")
    ms = _photon_numbers(num_users)
    return DecoyBounds(
        s_mu_n_lower=dict(zip(ms, rows.bounds[0].tolist())),
        phase_error_upper=float(rows.phase_error[0]),
        clamped=tuple(m for m, hit in zip(ms, rows.clamped[0]) if hit),
        chernoff_applications=int(rows.chernoff_applications[0]),
    )


def bounds_3user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 0- and 2-photon signal contributions, three users."""
    return _decoy_bounds(observed, 3)


def bounds_3user_finite(observed: ObservedCounts, sec) -> DecoyBounds:
    """Finite-size version of the three-user bounds (six Chernoff applications)."""
    return _decoy_bounds(observed, 3, sec.eps_chernoff)


def bounds_4user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 1- and 3-photon signal contributions, four users."""
    return _decoy_bounds(observed, 4)


def bounds_5user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 0-, 2- and 4-photon signal contributions, five users."""
    return _decoy_bounds(observed, 5)
