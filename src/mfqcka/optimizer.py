"""Derivative-free maximization of the key rate over source parameters.

The search variables are the signal intensity, the nonzero decoy
intensities, and the send probabilities of all nonzero settings; the
vacuum intensity is pinned at zero and its probability absorbs the
simplex slack (p_vac = 1 - sum of the others).

The engine is a multi-start Nelder-Mead style simplex (reflection,
expansion, contraction, shrink) over the bounded box.  Candidates are
projected onto the feasible set before every evaluation: intensities are
sorted into a strictly decreasing ladder inside their bounds and
probabilities are clipped and rescaled to leave room for the vacuum.
Everything is driven by one seeded generator, so a fixed seed reproduces
the search bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import keyrate
from .model import (
    Bundle,
    ConfigError,
    DegenerateChannelError,
    EstimationError,
    RateReport,
    SourceConfig,
)

__all__ = ["SearchSpec", "optimize_at_distance", "scan_distances", "ScanRecord"]


@dataclass(frozen=True)
class SearchSpec:
    """Bounds, budget and seed of one optimization run.

    ``presamples`` random feasible points are scored first and the best
    of them seed the simplex restarts; the feasible basin can be narrow
    at long distances (tiny decoy counts blow up the concentration
    bounds), so blind restarts alone tend to strand on the zero-rate
    plateau.
    """

    intensity_bounds: tuple[float, float] = (1e-4, 1.0)
    prob_bounds: tuple[float, float] = (1e-3, 0.99)
    restarts: int = 8
    max_evals: int = 2000
    presamples: int = 512
    tolerance: float = 1e-9
    seed: int = 2024
    ordering_gap: float = 1e-4
    min_vacuum_prob: float = 1e-3

    def __post_init__(self) -> None:
        lo, hi = self.intensity_bounds
        if not 0.0 < lo < hi <= 1.0:
            raise ConfigError("intensity bounds must satisfy 0 < lo < hi <= 1")
        plo, phi = self.prob_bounds
        if not 0.0 < plo < phi < 1.0:
            raise ConfigError("probability bounds must lie strictly inside (0, 1)")
        if self.restarts < 1:
            raise ConfigError("restarts must be at least 1")
        if self.max_evals < 1:
            raise ConfigError("max_evals must be at least 1")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ConfigError("tolerance must be a finite number >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _check_box(n_users: int, spec: SearchSpec) -> None:
    """Reject bounds that hold no feasible point for n_users users."""
    lo, hi = spec.intensity_bounds
    if hi - lo < (n_users - 1) * spec.ordering_gap:
        raise ConfigError(
            f"intensity bounds [{lo}, {hi}] cannot hold {n_users} intensities "
            f"{spec.ordering_gap} apart"
        )
    if n_users * spec.prob_bounds[0] > 1.0 - spec.min_vacuum_prob:
        raise ConfigError(
            f"{n_users} send probabilities of at least {spec.prob_bounds[0]} leave no room "
            f"for the vacuum probability {spec.min_vacuum_prob}"
        )


def _project(x: np.ndarray, n_users: int, spec: SearchSpec) -> np.ndarray:
    """Nearest-ish feasible point: ordered intensities, capped simplex."""
    n = n_users  # intensities: signal + (n-1) nonzero decoys
    lo, hi = spec.intensity_bounds
    gap = spec.ordering_gap
    ints = np.clip(x[:n], lo, hi)
    ints = np.sort(ints)[::-1]
    ints[0] = min(ints[0], hi)
    for i in range(1, n):
        ints[i] = min(ints[i], ints[i - 1] - gap)
    ints[n - 1] = max(ints[n - 1], lo)
    for i in range(n - 2, -1, -1):
        ints[i] = max(ints[i], ints[i + 1] + gap)

    plo, phi = spec.prob_bounds
    probs = np.clip(x[n:], plo, phi)
    cap = 1.0 - spec.min_vacuum_prob
    excess = probs.sum() - cap
    if excess > 0.0:
        slack = probs - plo
        probs = probs - excess * slack / slack.sum()
    return np.concatenate([ints, probs])


def _to_config(x: np.ndarray, base: SourceConfig) -> SourceConfig:
    n = base.num_users
    ints = x[:n]
    probs = x[n:]
    p_vac = 1.0 - float(probs.sum())
    return replace(
        base,
        signal_intensity=float(ints[0]),
        decoy_intensities=tuple(float(v) for v in ints[1:]) + (0.0,),
        send_probabilities=tuple(float(p) for p in probs) + (p_vac,),
    )


def _from_config(config: SourceConfig) -> np.ndarray:
    ints = [config.signal_intensity, *config.decoy_intensities[:-1]]
    probs = list(config.send_probabilities[:-1])
    return np.asarray(ints + probs, dtype=float)


def _objective_fn(
    objective: str, bundle: Bundle
) -> Callable[[SourceConfig], RateReport]:
    channel = bundle.channel
    sec = bundle.security
    if objective == "finite":
        return lambda cfg: keyrate.finite_rate(cfg, channel, sec)
    if objective in ("asymptotic", "asymptotic-decoy"):
        return lambda cfg: keyrate.asymptotic_rate(
            cfg, channel, mode="decoy", ec_efficiency=sec.ec_efficiency
        )
    if objective == "asymptotic-exact":
        return lambda cfg: keyrate.asymptotic_rate(
            cfg, channel, mode="exact", ec_efficiency=sec.ec_efficiency
        )
    raise ValueError(f"unknown objective {objective!r}")


def _default_start(n_users: int, spec: SearchSpec) -> np.ndarray:
    # geometric intensity ladder and a signal-heavy probability split
    ints = [0.45 * 0.3**i for i in range(n_users)]
    probs = [0.5] + [0.4 / (n_users - 1)] * (n_users - 1)
    return _project(np.asarray(ints + probs), n_users, spec)


def _sample_start(rng: np.random.Generator, n_users: int, spec: SearchSpec) -> np.ndarray:
    """One random feasible candidate: log-uniform ladder, Dirichlet split."""
    lo, hi = spec.intensity_bounds
    log_hi = math.log(min(hi, 0.6))
    mu = math.exp(rng.uniform(min(math.log(max(2.0 * lo, 5e-3)), log_hi), log_hi))
    ratios = np.sort(rng.uniform(0.03, 0.85, n_users - 1))[::-1]
    ints = [mu]
    for ratio in ratios:
        ints.append(ints[-1] * ratio)
    probs = rng.dirichlet(np.full(n_users + 1, 1.6))[:n_users]
    return _project(np.concatenate([ints, probs]), n_users, spec)


def _nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    spec: SearchSpec,
    n_users: int,
) -> tuple[np.ndarray, float, int]:
    """Budgeted simplex descent of f (minimization); returns projected best."""
    project = lambda x: _project(x, n_users, spec)
    dim = x0.size
    evals = 0

    def eval_at(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return f(project(x))

    simplex = [x0.copy()]
    for i in range(dim):
        step = 0.25 * x0[i] + 0.02
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(vertex)
    values = [eval_at(v) for v in simplex]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    while evals < spec.max_evals:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = values[0], values[-1]
        if math.isfinite(best) and abs(worst - best) <= spec.tolerance * (abs(best) + 1e-300):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_r = eval_at(reflected)
        if f_r < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_e = eval_at(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + rho * (simplex[-1] - centroid)
            f_c = eval_at(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = eval_at(simplex[i])
    order = np.argsort(values)
    best_x = project(simplex[order[0]])
    return best_x, values[order[0]], evals


def optimize_at_distance(
    spec: SearchSpec,
    objective: str,
    bundle: Bundle,
    initial: SourceConfig | None = None,
) -> tuple[SourceConfig, RateReport]:
    """Maximize the selected key rate over intensities and probabilities.

    ``objective`` is one of "finite", "asymptotic" or "asymptotic-decoy"
    (decoy-state phase error) or "asymptotic-exact".  The best feasible
    point found over all restarts is returned together with its full rate
    report; a fixed seed makes the result reproducible bit for bit.  Bounds
    that hold no feasible point raise ConfigError; a box in which no point
    has a rate raises EstimationError.
    """
    rate_of = _objective_fn(objective, bundle)
    n_users = bundle.config.num_users
    _check_box(n_users, spec)

    def cost(x: np.ndarray) -> float:
        cfg = _to_config(x, bundle.config)
        try:
            report = rate_of(cfg)
        except (DegenerateChannelError, EstimationError, ConfigError):
            return math.inf
        raw = report.key_rate_raw
        return -raw if math.isfinite(raw) else math.inf

    rng = np.random.default_rng(spec.seed)
    starts = [
        _project(_from_config(initial), n_users, spec)
        if initial is not None
        else _default_start(n_users, spec)
    ]
    pool = [_sample_start(rng, n_users, spec) for _ in range(spec.presamples)]
    ranked = sorted(range(len(pool)), key=lambda i: (cost(pool[i]), i))
    starts.extend(pool[i] for i in ranked[: max(spec.restarts - 1, 0)])

    best_x, best_cost = None, math.inf
    for start in starts:
        x, c, _ = _nelder_mead(cost, start, spec, n_users)
        if c < best_cost:
            best_x, best_cost = x, c
    if best_x is None:
        raise EstimationError("no point in the search box has a rate to optimize")
    best_config = _to_config(best_x, bundle.config)
    return best_config, rate_of(best_config)


@dataclass(frozen=True)
class ScanRecord:
    distance_km: float
    config: SourceConfig
    report: RateReport


def scan_distances(
    distances: list[float],
    spec: SearchSpec,
    objective: str,
    bundle: Bundle,
) -> list[ScanRecord]:
    """Optimize the rate at each distance, warm-starting from the previous one."""
    if not distances:
        raise ValueError("distance list must not be empty")
    records: list[ScanRecord] = []
    warm: SourceConfig | None = None
    for distance in distances:
        step_bundle = Bundle(
            config=bundle.config,
            channel=bundle.channel.with_distance(distance),
            security=bundle.security,
        )
        config, report = optimize_at_distance(spec, objective, step_bundle, initial=warm)
        records.append(ScanRecord(distance_km=distance, config=config, report=report))
        warm = config
    return records
