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

Every evaluation goes through the array rate kernel
(``keyrate.rate_rows``).  A seeded generator draws the presample pool,
which is scored in one kernel call; the best of it seed the restarts.
The restarts then run in lock-step rounds: each simplex is a generator
that yields the next point it needs and receives that point's cost, and
every round collects one point from each restart still running,
projects them together and scores them in one kernel call.  A row's
value never depends on the other rows of its batch, so each restart
sees exactly the values it would see run alone, and the result is the
one the restarts give one after another; a fixed seed reproduces it bit
for bit.

Each search logs one DEBUG record on the ``mfqcka.optimizer`` logger
(the same data as the record's ``telemetry`` attribute): the presample
count, the number of rounds, each restart's evaluations, stop reason
and best cost, and the infeasible evaluations counted by the exception
that evaluating the point alone raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Generator

import numpy as np

from . import keyrate
from .model import (
    INFEASIBLE,
    Bundle,
    ConfigError,
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
        if self.presamples < 0:
            raise ConfigError("presamples must be nonnegative")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ConfigError("tolerance must be a finite number >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


# Smallest spacing of adjacent intensities, and smallest vacuum send
# probability, of a feasible point.
ORDERING_GAP = 1e-4
MIN_VACUUM_PROB = 1e-3


def _check_box(n_users: int, spec: SearchSpec) -> None:
    """Reject bounds that hold no feasible point for n_users users."""
    lo, hi = spec.intensity_bounds
    if hi - lo < (n_users - 1) * ORDERING_GAP:
        raise ConfigError(
            f"intensity bounds [{lo}, {hi}] cannot hold {n_users} intensities "
            f"{ORDERING_GAP} apart"
        )
    if n_users * spec.prob_bounds[0] > 1.0 - MIN_VACUUM_PROB:
        raise ConfigError(
            f"{n_users} send probabilities of at least {spec.prob_bounds[0]} leave no room "
            f"for the vacuum probability {MIN_VACUUM_PROB}"
        )


def _project(x: np.ndarray, n_users: int, spec: SearchSpec) -> np.ndarray:
    """Nearest-ish feasible point: ordered intensities, capped simplex.

    ``x`` is one point or a stack of points (one per row); every row is
    projected on its own, by the same operations as a single point.
    """
    points = np.atleast_2d(np.asarray(x, dtype=float))
    n = n_users  # intensities: signal + (n-1) nonzero decoys
    lo, hi = spec.intensity_bounds
    ints = np.sort(np.clip(points[:, :n], lo, hi), axis=1)[:, ::-1].copy()
    for i in range(1, n):
        ints[:, i] = np.minimum(ints[:, i], ints[:, i - 1] - ORDERING_GAP)
    ints[:, n - 1] = np.maximum(ints[:, n - 1], lo)
    for i in range(n - 2, -1, -1):
        ints[:, i] = np.maximum(ints[:, i], ints[:, i + 1] + ORDERING_GAP)

    plo, phi = spec.prob_bounds
    probs = np.clip(points[:, n:], plo, phi)
    excess = probs.sum(axis=1) - (1.0 - MIN_VACUUM_PROB)
    over = excess > 0.0
    slack = probs - plo
    share = np.where(over, slack.sum(axis=1), 1.0)
    probs = np.where(over[:, None], probs - excess[:, None] * slack / share[:, None], probs)
    out = np.concatenate([ints, probs], axis=1)
    return out if np.ndim(x) == 2 else out[0]


def _ladders(points: np.ndarray, n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows of projected points: each ladder with the vacuum appended, and its probabilities."""
    rows = len(points)
    ints = np.concatenate([points[:, :n_users], np.zeros((rows, 1))], axis=1)
    probs = points[:, n_users:]
    return ints, np.concatenate([probs, (1.0 - probs.sum(axis=1))[:, None]], axis=1)


def _to_config(x: np.ndarray, base: SourceConfig) -> SourceConfig:
    ints, probs = _ladders(x[None, :], base.num_users)
    return replace(
        base,
        signal_intensity=float(ints[0, 0]),
        decoy_intensities=tuple(ints[0, 1:].tolist()),
        send_probabilities=tuple(probs[0].tolist()),
    )


def _from_config(config: SourceConfig) -> np.ndarray:
    ints = [config.signal_intensity, *config.decoy_intensities[:-1]]
    probs = list(config.send_probabilities[:-1])
    return np.asarray(ints + probs, dtype=float)


def _default_start(n_users: int, spec: SearchSpec) -> np.ndarray:
    # geometric intensity ladder and a signal-heavy probability split
    ints = [0.45 * 0.3**i for i in range(n_users)]
    probs = [0.5] + [0.4 / (n_users - 1)] * (n_users - 1)
    return _project(np.asarray(ints + probs), n_users, spec)


def _sample_starts(
    rng: np.random.Generator, count: int, n_users: int, spec: SearchSpec
) -> np.ndarray:
    """``count`` random feasible candidates, one per row: log-uniform ladder, Dirichlet split."""
    lo, hi = spec.intensity_bounds
    log_hi = math.log(min(hi, 0.6))
    log_lo = min(math.log(max(2.0 * lo, 5e-3)), log_hi)
    raw = np.empty((count, 2 * n_users))
    for row in raw:
        ints = [math.exp(rng.uniform(log_lo, log_hi))]
        for ratio in np.sort(rng.uniform(0.03, 0.85, n_users - 1))[::-1]:
            ints.append(ints[-1] * ratio)
        row[:n_users] = ints
        row[n_users:] = rng.dirichlet(np.full(n_users + 1, 1.6))[:n_users]
    return _project(raw, n_users, spec)


# The simplex yields a point and receives its cost; it returns
# (best point, best cost, evaluations, stop reason).
_Simplex = Generator[np.ndarray, float, "tuple[np.ndarray, float, int, str]"]


def _nelder_mead(x0: np.ndarray, spec: SearchSpec) -> _Simplex:
    """Budgeted simplex descent (minimization) as a generator.

    Yields every point it needs scored, unprojected (the caller projects
    it before scoring), and takes the cost back through ``send``.  Stops
    when the simplex values agree to ``spec.tolerance`` ("tolerance") or
    the evaluations reach ``spec.max_evals`` ("budget"; a shrink may run
    up to dim evaluations past it).  The returned best point is unprojected.
    """
    dim = x0.size
    simplex = [x0.copy()]
    for i in range(dim):
        step = 0.25 * x0[i] + 0.02
        vertex = x0.copy()
        vertex[i] += step
        simplex.append(vertex)
    values = []
    for vertex in simplex:
        values.append((yield vertex))
    evals = len(simplex)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    stop = "budget"
    while evals < spec.max_evals:
        order = np.argsort(values)
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best, worst = values[0], values[-1]
        if math.isfinite(best) and abs(worst - best) <= spec.tolerance * (abs(best) + 1e-300):
            stop = "tolerance"
            break
        centroid = np.mean(simplex[:-1], axis=0)
        reflected = centroid + alpha * (centroid - simplex[-1])
        f_r = yield reflected
        evals += 1
        if f_r < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_e = yield expanded
            evals += 1
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + rho * (simplex[-1] - centroid)
            f_c = yield contracted
            evals += 1
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = yield simplex[i]
                    evals += 1
    order = np.argsort(values)
    return simplex[order[0]], values[order[0]], evals, stop


def _lock_step(
    simplices: list[_Simplex], score: Callable[[np.ndarray], np.ndarray]
) -> tuple[list[tuple[np.ndarray, float, int, str]], int]:
    """Advance every simplex one evaluation per round, scoring each round's points together.

    ``score`` maps a stack of unprojected points to their costs.  Returns
    each simplex's result, in order, and the number of rounds.
    """
    pending = {i: next(simplex) for i, simplex in enumerate(simplices)}
    results: dict[int, tuple[np.ndarray, float, int, str]] = {}
    rounds = 0
    while pending:
        ids = list(pending)
        costs = score(np.array([pending[i] for i in ids]))
        rounds += 1
        for i, cost in zip(ids, costs.tolist()):
            try:
                pending[i] = simplices[i].send(cost)
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return [results[i] for i in range(len(simplices))], rounds


def optimize_at_distance(
    spec: SearchSpec,
    objective: str,
    bundle: Bundle,
    initial: SourceConfig | None = None,
) -> tuple[SourceConfig, RateReport]:
    """Maximize the selected key rate over intensities and probabilities.

    ``objective`` is one of ``keyrate.MODES`` ("finite", "asymptotic-decoy",
    "asymptotic-exact"), or "asymptotic", an alias of "asymptotic-decoy".
    The best feasible point found over all restarts is returned together
    with its ``keyrate.rate_report``; a fixed seed makes the result
    reproducible bit for bit.  An objective that ``keyrate`` cannot rate
    for the bundle's number of users raises (ConfigError, or ValueError
    for an unknown objective) at the first evaluation, before any search.
    Bounds that hold no feasible point raise ConfigError; a box in which
    no point has a rate raises EstimationError.
    """
    mode = "asymptotic-decoy" if objective == "asymptotic" else objective
    n_users = bundle.config.num_users
    _check_box(n_users, spec)
    tally = np.zeros(len(INFEASIBLE), dtype=np.int64)

    def score(points: np.ndarray) -> np.ndarray:
        """Cost -key_rate_raw of projected points; inf where the rate is undefined."""
        ints, probs = _ladders(points, n_users)
        raw, cause = keyrate.rate_rows(
            ints, probs, bundle.config, bundle.channel, bundle.security, mode
        )
        tally[:] += np.bincount(cause, minlength=len(INFEASIBLE))
        return np.where((cause == 0) & np.isfinite(raw), -raw, math.inf)

    rng = np.random.default_rng(spec.seed)
    starts = [
        _project(_from_config(initial), n_users, spec)
        if initial is not None
        else _default_start(n_users, spec)
    ]
    pool = _sample_starts(rng, spec.presamples, n_users, spec)
    ranked = np.argsort(score(pool), kind="stable")
    starts.extend(pool[i] for i in ranked[: spec.restarts - 1])

    results, rounds = _lock_step(
        [_nelder_mead(start, spec) for start in starts],
        lambda points: score(_project(points, n_users, spec)),
    )
    _log_search(bundle, objective, spec.presamples, rounds, results, tally)

    best_x, best_cost = None, math.inf
    for x, c, _, _ in results:
        if c < best_cost:
            best_x, best_cost = x, c
    if best_x is None:
        raise EstimationError("no point in the search box has a rate to optimize")
    best_config = _to_config(_project(best_x, n_users, spec), bundle.config)
    return best_config, keyrate.rate_report(best_config, bundle.channel, bundle.security, mode)


def _log_search(
    bundle: Bundle,
    objective: str,
    presamples: int,
    rounds: int,
    results: list[tuple[np.ndarray, float, int, str]],
    tally: np.ndarray,
) -> None:
    """Log the search's telemetry record at DEBUG level."""
    # Imported here rather than with the module, so that the commands that
    # never optimize (rate, scan without --optimize, simulate) skip it.
    import logging

    logger = logging.getLogger(__name__)
    if not logger.isEnabledFor(logging.DEBUG):
        return
    telemetry = {
        "objective": objective,
        "distance_km": bundle.channel.distance_km,
        "presamples": presamples,
        "rounds": rounds,
        "evaluations": int(tally.sum()),
        "restarts": [{"evals": e, "stop": stop, "best": c} for _, c, e, stop in results],
        "infeasible": {
            INFEASIBLE[code].__name__: int(count)
            for code, count in enumerate(tally.tolist())
            if code and count
        },
    }
    logger.debug(
        "optimized %s at %g km: %d presamples, %d rounds, %d evaluations; "
        "restarts (evals, stop, best cost) %s; infeasible %s",
        objective,
        telemetry["distance_km"],
        presamples,
        rounds,
        telemetry["evaluations"],
        [(r["evals"], r["stop"], r["best"]) for r in telemetry["restarts"]],
        telemetry["infeasible"],
        extra={"telemetry": telemetry},
    )


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
