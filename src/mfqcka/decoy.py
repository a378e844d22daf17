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
    """Sifted coincidence counts per intensity with their send probabilities."""

    sifted: Mapping[float, float]
    probabilities: Mapping[float, float]
    num_users: int

    @property
    def ordered_intensities(self) -> tuple[float, ...]:
        return tuple(sorted(self.sifted, reverse=True))

    def _check(self, expected_settings: int) -> tuple[float, ...]:
        ks = self.ordered_intensities
        if len(ks) != expected_settings:
            raise ConfigError(
                f"{self.num_users}-user bounds need {expected_settings} intensity settings, "
                f"got {len(ks)}"
            )
        if ks[-1] != 0.0:
            raise ConfigError("the intensity set must include the vacuum (0)")
        for a, b in zip(ks, ks[1:]):
            if not a > b:
                raise ConfigError("intensities must be strictly decreasing")
        for k in ks:
            if self.sifted[k] < 0.0:
                raise ConfigError("sifted counts must be nonnegative")
            if not self.probabilities[k] > 0.0:
                raise ConfigError("send probabilities must be positive for every setting")
        return ks


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


@lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@np.errstate(over="ignore", invalid="ignore")
def _decoy_rows(
    ks: np.ndarray,
    probs: np.ndarray,
    sifted: np.ndarray,
    num_users: int,
    eps: float | None = None,
) -> DecoyRows:
    """The shared rule on a batch: row r is the ladder ``ks[r]`` (signal first).

    ``probs`` and ``sifted`` are aligned with ``ks``.  With ``eps`` each
    count enters at its Chernoff lower side where its weight is positive
    and at its upper side otherwise, and every bound is converted back to a
    pessimistic observed value.  ``chernoff_applications`` counts the
    distinct (count, side) pairs used plus one per conversion.  Rows that
    are not a strictly decreasing ladder ending in the vacuum, with
    nonnegative counts and positive probabilities, get a ConfigError cause;
    a weight whose nodes underflow, a zero signal count and a bound or
    phase error that overflows (a send probability p_k far below p_mu
    overflows (p_mu / p_k)^c, and a decoy intensity far below mu the
    weights) an EstimationError cause.  Such an overflow emits no
    warning, and its row's phase error is nan.

    The normalized counts t_k = s_k exp(c (k - mu)) (p_mu / p_k)^c are
    formed in log space.  The bound on s_mu^m weighs the m+1 smallest
    nonzero settings and the vacuum, a contiguous block of settings: with
    x_j = k_j / mu and S = sum_j x_j, w_j = -(S - x_j) / (x_j prod_{i != j}
    (x_j - x_i)) and the vacuum weight is (-1)^m S / prod_j x_j.
    """
    rows, settings = ks.shape
    # One row per setting: the rule's operations then run along contiguous rows.
    ks, probs, sifted = ks.T.copy(), probs.T.copy(), sifted.T.copy()
    # ladder gaps and probabilities positive, counts nonnegative (s + 5e-324 > 0
    # is s >= 0: no double lies strictly between -5e-324 and 0), vacuum last
    margins = np.concatenate([ks[:-1] - ks[1:], probs, sifted + 5e-324])
    valid = (np.minimum.reduce(margins) > 0.0) & (ks[-1] == 0.0)
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
        # (settings, lower side?) of every bound before the last one
        sides = []

    ms = _photon_numbers(num_users)
    raw = np.empty((len(ms), rows))
    underflows = []  # the rows whose weights underflow, per bound
    for i, m in enumerate(ms):
        if m == 0:  # s_mu^0 = t_0: the vacuum count alone, with weight 1
            raw[i] = lower[-1] * factors[-1]
            if eps is not None:
                sides.append((slice(settings - 1, settings), True))
            continue
        block = slice(settings - m - 2, settings)
        xs = ks[settings - m - 2 : -1] / mu
        total = _sum_along(xs, 0)
        scale = np.multiply.reduce(xs)
        underflow = scale == 0.0
        underflows.append(underflow)
        gaps = xs[:, None] - xs + _eye(m + 1)[:, :, None]  # x_j - x_i, 1 on the diagonal
        denom = xs * np.multiply.reduce(gaps, axis=1)
        nodes = (xs - total) / (denom + (denom == 0.0))
        vacuum = (-1) ** m * total / (scale + underflow)
        weights = np.concatenate([nodes, vacuum[None]])
        if eps is None:
            chosen = lower[block]
        else:
            positive = weights > 0.0
            chosen = np.where(positive, lower[block], upper[block])
            sides.append((block, positive))
        raw[i] = _sum_along(weights * chosen * factors[block], 0)

    clamped = raw < 0.0
    bounds = np.maximum(raw, 0.0)
    if eps is None:
        applications = np.zeros(rows, dtype=np.int64)
    else:
        bounds = _observed_lower(bounds, beta)
        # The last bound weighs every count, on one side each; an earlier one
        # adds the other side of a count wherever its side differs.
        _, last = sides.pop()
        other = np.zeros((settings, rows), dtype=bool)
        for block, lower_side in sides:
            other[block] |= last[block] != lower_side
        applications = np.add.reduce(other) + (settings + len(ms))
    s_mu = sifted[0]
    no_signal = s_mu <= 0.0
    estimation = no_signal  # the rows with an EstimationError cause
    for underflow in underflows:
        estimation = estimation | underflow
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

    One row of ``_decoy_rows``; raises where that row has a cause.
    """
    ks = observed._check(num_users + 1)
    rows = _decoy_rows(
        np.array([ks]),
        np.array([[observed.probabilities[k] for k in ks]]),
        np.array([[observed.sifted[k] for k in ks]]),
        num_users,
        eps,
    )
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
