"""Scalar decoy-state rules kept as test oracles.

``decoy_bounds`` is the one-ladder Lagrange-interpolation rule that
``mfqcka.decoy`` evaluated before it took a batch axis, with dictionaries
and exactly rounded sums.  The ``bounds_*user_*`` functions are the
hand-expanded three-, four- and five-user expressions that came before
that rule.  The tests compare the package's array rule against both.
The Chernoff sides are stated here with the math module too, and the
ladder checks (``_ladder``), so no oracle calls the code it checks.
"""

import math
from typing import Mapping

from mfqcka.decoy import ObservedCounts
from mfqcka.model import ConfigError, DecoyBounds, EstimationError


def chernoff_expected_bounds(s: float, eps: float) -> tuple[float, float]:
    """(lower, upper) expected value behind the observed count s >= 0, beta = ln(1/eps).

    upper = s + beta + sqrt(2 beta s + beta^2),
    lower = max(s - beta/2 - sqrt(2 beta s + beta^2/4), 0).
    """
    beta = math.log(1.0 / eps)
    upper = s + beta + math.sqrt(2.0 * beta * s + beta * beta)
    lower = max(s - 0.5 * beta - math.sqrt(2.0 * beta * s + 0.25 * beta * beta), 0.0)
    return lower, upper


def chernoff_observed_lower(v: float, eps: float) -> float:
    """Pessimistic observed value max(v - sqrt(2 beta v), 0) of the expectation v >= 0."""
    return max(v - math.sqrt(2.0 * math.log(1.0 / eps) * v), 0.0)


def _ladder(obs: ObservedCounts, settings: int) -> tuple[float, ...]:
    """The intensities of ``obs`` in the order given, after the checks every rule needs.

    ``settings`` of them, strictly decreasing down to the vacuum, with
    nonnegative counts and positive send probabilities.
    """
    ks = tuple(obs.sifted)
    if len(ks) != settings:
        raise ConfigError(f"the ladder needs {settings} settings, got {len(ks)}")
    if ks[-1] != 0.0 or not all(a > b for a, b in zip(ks, ks[1:])):
        raise ConfigError("the ladder must be strictly decreasing down to the vacuum")
    if not all(obs.sifted[k] >= 0.0 and obs.probabilities[k] > 0.0 for k in ks):
        raise ConfigError("counts must be nonnegative and send probabilities positive")
    return ks


def _normalization_factors(obs: ObservedCounts, ks: tuple[float, ...]) -> dict[float, float]:
    """exp(c (k - mu) + c (ln p_mu - ln p_k)), evaluated in log space."""
    num_users = len(obs.sifted) - 1
    c = 2.0 * (num_users - 1)
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
    S = sum_j x_j, w_j = -(S - x_j) / (x_j prod_{i != j} (x_j - x_i)), and
    the vacuum weight is (-1)^m S / prod_j x_j.
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
            denom = x * math.prod(x - y for i, y in enumerate(xs) if i != j)
            if denom == 0.0:
                raise EstimationError("decoy intensities too small relative to the signal to weigh")
            w[k] = -(total - x) / denom
        weights[m] = w
    return weights


def decoy_bounds(observed: ObservedCounts, num_users: int, eps: float | None = None) -> DecoyBounds:
    """The general rule on one set of counts; ``eps`` switches on the finite-size treatment."""
    ks = _ladder(observed, num_users + 1)
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


def _diff(t: Mapping[float, float], x: float, y: float) -> float:
    """First ladder difference y*(t_x - t_o) - x*(t_y - t_o), cancelling n <= 1."""
    t_o = t[0.0]
    return y * (t[x] - t_o) - x * (t[y] - t_o)


def bounds_3user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 0- and 2-photon signal contributions, three users.

    The vacuum ratio pins s_mu^0 exactly; the two-step ladder over
    (mu, nu, omega) cancels the 1- and 3-photon terms and drops the
    positive n >= 4 tail to bound s_mu^2 from below.
    """
    ks = _ladder(observed, 4)
    mu, nu, om = ks[0], ks[1], ks[2]
    factors = _normalization_factors(observed, ks)
    t = {k: observed.sifted[k] * factors[k] for k in ks}
    s0 = t[0.0]
    a1 = _diff(t, mu, nu)
    a2 = _diff(t, nu, om)
    s2 = (
        mu
        * (mu * (mu**2 - nu**2) * a2 - om * (nu**2 - om**2) * a1)
        / (nu * om * (mu - nu) * (nu - om) * (mu - om))
    )
    bounds, clamped = _clamp_bounds({0: s0, 2: s2})
    return DecoyBounds(
        s_mu_n_lower=bounds,
        phase_error_upper=_phase_error(bounds, observed.sifted[mu]),
        clamped=clamped,
    )


def bounds_3user_finite(observed: ObservedCounts, sec) -> DecoyBounds:
    """Finite-size version of the three-user bounds.

    Each positively-signed count enters through its Chernoff lower
    expected value and each negatively-signed count through its upper,
    then the resulting expected-value bounds are converted back to
    pessimistic observed values.  Six concentration-bound applications
    are consumed per call (four expected-value sides, two conversions).
    """
    ks = _ladder(observed, 4)
    mu, nu, om = ks[0], ks[1], ks[2]
    eps = sec.eps_chernoff
    factors = _normalization_factors(observed, ks)
    lower = {k: chernoff_expected_bounds(observed.sifted[k], eps)[0] * factors[k] for k in ks}
    upper = {k: chernoff_expected_bounds(observed.sifted[k], eps)[1] * factors[k] for k in ks}

    s0_star = lower[0.0]
    diff = (mu - nu) * (nu - om) * (mu - om)
    s2_star = (
        mu
        / (nu * om * diff)
        * (
            diff * (mu + nu + om) * lower[0.0]
            + mu * om * (mu**2 - om**2) * lower[nu]
            - mu * nu * (mu**2 - nu**2) * upper[om]
            - nu * om * (nu**2 - om**2) * upper[mu]
        )
    )
    raw, clamped = _clamp_bounds({0: s0_star, 2: s2_star})
    bounds = {n: chernoff_observed_lower(v, eps) for n, v in raw.items()}
    return DecoyBounds(
        s_mu_n_lower=bounds,
        phase_error_upper=_phase_error(bounds, observed.sifted[mu]),
        clamped=clamped,
    )


def bounds_4user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 1- and 3-photon signal contributions, four users."""
    ks = _ladder(observed, 5)
    mu, nu, om, xi = ks[0], ks[1], ks[2], ks[3]
    factors = _normalization_factors(observed, ks)
    t = {k: observed.sifted[k] * factors[k] for k in ks}
    t_o = t[0.0]

    s1 = mu * (om**2 * (t[xi] - t_o) - xi**2 * (t[om] - t_o)) / (xi * om * (om - xi))

    a1 = _diff(t, mu, nu)
    a2 = _diff(t, nu, om)
    a3 = _diff(t, om, xi)
    b1 = a2 * mu * (mu - nu) - a1 * om * (nu - om)
    b2 = a3 * nu * (nu - om) - a2 * xi * (om - xi)
    s3 = (
        mu**2
        * (
            b1 * xi * (om - xi) * (nu - xi) * (xi + om + nu)
            - b2 * mu * (mu - nu) * (mu - om) * (mu + nu + om)
        )
        / (
            nu * om * xi
            * (mu - nu) * (mu - xi) * (nu - xi) * (nu - om) * (mu - om) * (om - xi)
        )
    )
    bounds, clamped = _clamp_bounds({1: s1, 3: s3})
    return DecoyBounds(
        s_mu_n_lower=bounds,
        phase_error_upper=_phase_error(bounds, observed.sifted[mu]),
        clamped=clamped,
    )


def bounds_5user_asymptotic(observed: ObservedCounts) -> DecoyBounds:
    """Lower bounds on the 0-, 2- and 4-photon signal contributions, five users."""
    ks = _ladder(observed, 6)
    mu, nu, om, xi, ta = ks[0], ks[1], ks[2], ks[3], ks[4]
    factors = _normalization_factors(observed, ks)
    t = {k: observed.sifted[k] * factors[k] for k in ks}

    s0 = t[0.0]

    a1 = _diff(t, mu, nu)
    a2 = _diff(t, nu, om)
    a3 = _diff(t, om, xi)
    a4 = _diff(t, xi, ta)
    # Two-step ladder over the three smallest nonzero settings; the large
    # intensity multiplies the lower difference, mirroring the three-user
    # expression with (mu, nu, omega) -> (omega, xi, tau).
    s2 = (
        mu**2
        * (om * (om**2 - xi**2) * a4 - ta * (xi**2 - ta**2) * a3)
        / (om * xi * ta * (om - xi) * (xi - ta) * (om - ta))
    )

    b1 = a2 * mu * (mu - nu) - a1 * om * (nu - om)
    b2 = a3 * nu * (nu - om) - a2 * xi * (om - xi)
    b3 = a4 * om * (om - xi) - a3 * ta * (xi - ta)
    c1 = b1 * xi * (om - xi) * (nu - xi) - b2 * mu * (mu - nu) * (mu - om)
    c2 = b2 * ta * (om - ta) * (xi - ta) - b3 * nu * (nu - om) * (nu - xi)
    s4 = (
        mu**3
        * (
            c1 * ta * (om - ta) * (xi - ta) * (nu - ta) * (nu + om + xi + ta)
            - c2 * mu * (mu - nu) * (mu - om) * (mu - xi) * (mu + nu + om + xi)
        )
        / (
            om * nu * xi * ta
            * (mu - nu) * (mu - om) * (mu - xi) * (nu - om) * (nu - xi)
            * (om - xi) * (om - ta) * (xi - ta) * (nu - ta) * (mu - ta)
        )
    )
    bounds, clamped = _clamp_bounds({0: s0, 2: s2, 4: s4})
    return DecoyBounds(
        s_mu_n_lower=bounds,
        phase_error_upper=_phase_error(bounds, observed.sifted[mu]),
        clamped=clamped,
    )
