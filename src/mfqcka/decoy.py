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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .model import ConfigError, DecoyBounds, EstimationError

__all__ = [
    "ObservedCounts",
    "chernoff_expected_bounds",
    "chernoff_observed_lower",
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


def chernoff_expected_bounds(observed: float, eps: float) -> tuple[float, float]:
    """Two-sided interval for the expected value behind an observed count.

    upper = s + beta + sqrt(2 beta s + beta^2),
    lower = max(s - beta/2 - sqrt(2 beta s + beta^2/4), 0),  beta = ln(1/eps).
    """
    if observed < 0.0:
        raise ValueError("observed count must be nonnegative")
    beta = math.log(1.0 / eps)
    upper = observed + beta + math.sqrt(2.0 * beta * observed + beta * beta)
    lower = max(observed - 0.5 * beta - math.sqrt(2.0 * beta * observed + 0.25 * beta * beta), 0.0)
    return lower, upper


def chernoff_observed_lower(expected_lower: float, eps: float) -> float:
    """Pessimistic observed value implied by a lower-bounded expectation."""
    if expected_lower < 0.0:
        raise ValueError("expected value must be nonnegative")
    beta = math.log(1.0 / eps)
    return max(expected_lower - math.sqrt(2.0 * beta * expected_lower), 0.0)


def _normalization_factors(obs: ObservedCounts, ks: tuple[float, ...]) -> dict[float, float]:
    """exp(c (k - mu) + c (ln p_mu - ln p_k)), evaluated in log space."""
    c = 2.0 * (obs.num_users - 1)
    mu = ks[0]
    log_p_mu = math.log(obs.probabilities[mu])
    return {
        k: math.exp(c * (k - mu) + c * (log_p_mu - math.log(obs.probabilities[k]))) for k in ks
    }


def _clamp_bounds(raw: dict[int, float]) -> tuple[dict[int, float], tuple[int, ...]]:
    clamped = tuple(n for n, v in sorted(raw.items()) if v < 0.0)
    return {n: max(v, 0.0) for n, v in raw.items()}, clamped


def _phase_error(bounds: Mapping[int, float], s_mu: float) -> float:
    if s_mu <= 0.0:
        raise EstimationError("no sifted signal coincidences; phase error undefined")
    phi = 1.0 - math.fsum(bounds.values()) / s_mu
    return min(max(phi, 0.0), 1.0)


def _photon_weights(ks: tuple[float, ...], num_users: int) -> dict[int, dict[float, float]]:
    """Weights w_k of the bound on s_mu^m for m = N-1, N-3, ..., in ascending m.

    With nodes x_j = k_j / mu over the m+1 smallest nonzero intensities and
    S = sum_j x_j, reading the degree-m coefficient off the interpolation of
    (t_j - t_0) / x_j by a degree-m polynomial gives

        w_j = -(S - x_j) / (x_j prod_{i != j} (x_j - x_i)),

    and the vacuum weight -sum_j w_j, the divided difference of S / x,
    equals (-1)^m S / prod_j x_j.
    """
    mu = ks[0]
    weights: dict[int, dict[float, float]] = {}
    for m in range((num_users - 1) % 2, num_users, 2):
        if m == 0:
            weights[0] = {0.0: 1.0}
            continue
        nodes = ks[-m - 2 : -1]
        xs = [k / mu for k in nodes]
        total = math.fsum(xs)
        scale = math.prod(xs)
        if scale == 0.0:
            raise EstimationError("decoy intensities too small relative to the signal to weigh")
        w = {0.0: (-1) ** m * total / scale}
        for j, (k, x) in enumerate(zip(nodes, xs)):
            others = math.prod(x - y for i, y in enumerate(xs) if i != j)
            w[k] = -(total - x) / (x * others)
        weights[m] = w
    return weights


def _decoy_bounds(observed: ObservedCounts, num_users: int, eps: float | None = None) -> DecoyBounds:
    """The shared rule; ``eps`` switches on the finite-size treatment.

    With ``eps`` each count enters at its Chernoff lower side where its
    weight is positive and at its upper side otherwise, and every bound is
    converted back to a pessimistic observed value.  ``chernoff_applications``
    counts the distinct (count, side) pairs used plus one per conversion.
    """
    ks = observed._check(num_users + 1)
    factors = _normalization_factors(observed, ks)
    sides = {
        k: (s, s) if eps is None else chernoff_expected_bounds(s, eps)
        for k, s in observed.sifted.items()
    }
    used: set[tuple[float, int]] = set()
    raw = {}
    for m, ws in _photon_weights(ks, num_users).items():
        terms = []
        for k, w in ws.items():
            side = 0 if w > 0.0 else 1
            used.add((k, side))
            terms.append(w * sides[k][side] * factors[k])
        raw[m] = math.fsum(terms)
    bounds, clamped = _clamp_bounds(raw)
    if eps is not None:
        bounds = {n: chernoff_observed_lower(v, eps) for n, v in bounds.items()}
    return DecoyBounds(
        s_mu_n_lower=bounds,
        phase_error_upper=_phase_error(bounds, observed.sifted[ks[0]]),
        clamped=clamped,
        chernoff_applications=0 if eps is None else len(used) + len(bounds),
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
