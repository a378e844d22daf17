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
which depends only on the spec and the number of users, so a scan draws
it once for all its distances; it is scored in one kernel call and its
best points seed the restarts.  The simplices of all restarts are then
held in one array (``_simplex_search``).  Each round advances every
running restart by one full Nelder-Mead iteration: the reflected,
expanded and contracted points of all of them are scored speculatively
in one kernel call, and the restarts that shrink score their new
vertices in a second one.  A restart uses only the points a sequential
simplex would have asked for, and a row's value never depends on the
other rows of its batch, so each restart moves, counts and stops
exactly as it would alone; a fixed seed reproduces the result bit for
bit.

Each search logs one DEBUG record on the ``mfqcka.optimizer`` logger
(the same data as the record's ``telemetry`` attribute): the presample
count and best presample cost, the number of kernel calls ("rounds",
the presample pool's included) and of rows they scored, each restart's
evaluations, stop reason and best cost, and the evaluations used, with
the infeasible ones counted by the exception that evaluating the point
alone raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Any, Callable

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


# Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5

# A restart's result: best point (unprojected), its cost, evaluations, stop reason.
_Result = tuple[np.ndarray, float, int, str]


def _simplex_search(
    starts: np.ndarray,
    spec: SearchSpec,
    score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[_Result], np.ndarray]:
    """Budgeted Nelder-Mead descent (minimization) from every row of ``starts`` at once.

    The simplices of all R restarts are one (R, d+1, d) array and their
    values one (R, d+1) array.  ``score`` maps a stack of unprojected
    points to their costs and infeasibility causes.  The initial
    vertices are scored in one call; then each round advances every
    running restart by one full iteration.  Its reflected, expanded and
    contracted points are scored together in one call, and the restarts
    that shrink score their d new vertices in a second one.  A restart
    uses 1, 2 or 2+d of those points per iteration, exactly those a
    sequential simplex would have asked for, so it moves, counts and
    stops as it would alone: at ``spec.tolerance`` agreement of its
    values ("tolerance") or once its evaluations reach ``spec.max_evals``
    ("budget"; the last iteration may run past it by up to d+1).

    Returns each restart's result and the causes of the evaluations the
    restarts used (speculative points they did not use are left out),
    counted per ``model.INFEASIBLE`` code.
    """
    count, dim = starts.shape
    simplex = np.repeat(starts[:, None, :], dim + 1, axis=1)
    axis = np.arange(dim)
    simplex[:, axis + 1, axis] += 0.25 * starts + 0.02
    tally = np.zeros(len(INFEASIBLE), dtype=np.int64)
    cost, cause = score(simplex.reshape(-1, dim))
    values = cost.reshape(count, dim + 1)
    tally += np.bincount(cause, minlength=len(INFEASIBLE))
    evals = np.full(count, dim + 1)
    stop = ["budget"] * count
    live = np.flatnonzero(evals < spec.max_evals)
    while live.size:
        order = np.argsort(values[live], axis=1)
        sim, val = simplex[live[:, None], order], values[live[:, None], order]
        simplex[live], values[live] = sim, val
        best, worst = val[:, 0], val[:, -1]
        # The spread is only taken where the best value is finite: inf - inf is nan.
        done = np.isfinite(best)
        done[done] = np.abs(worst[done] - best[done]) <= spec.tolerance * (np.abs(best[done]) + 1e-300)
        for r in live[done].tolist():
            stop[r] = "tolerance"
        go = ~done
        live, sim, val = live[go], sim[go], val[go]
        if not live.size:
            break

        worst_pt = sim[:, -1]
        centroid = sim[:, :-1].mean(axis=1)
        reflected = centroid + _ALPHA * (centroid - worst_pt)
        expanded = centroid + _GAMMA * (reflected - centroid)
        contracted = centroid + _RHO * (worst_pt - centroid)
        cost, cause = score(np.concatenate([reflected, expanded, contracted]))
        f_r, f_e, f_c = cost.reshape(3, len(live))
        c_r, c_e, c_c = cause.reshape(3, len(live))
        expand = f_r < val[:, 0]
        reflect = ~expand & (f_r < val[:, -2])
        contract = ~expand & ~reflect
        used = np.concatenate([c_r, c_e[expand], c_c[contract]])
        tally += np.bincount(used, minlength=len(INFEASIBLE))
        evals[live] += np.where(reflect, 1, 2)

        take_e = expand & (f_e < f_r)
        take_c = contract & (f_c < val[:, -1])
        shrink = contract & ~take_c
        moved = ~shrink
        point = np.where(take_e[:, None], expanded, np.where(take_c[:, None], contracted, reflected))
        sim[moved, -1] = point[moved]
        val[moved, -1] = np.where(take_e, f_e, np.where(take_c, f_c, f_r))[moved]
        if shrink.any():
            first = sim[shrink, :1]
            sim[shrink, 1:] = first + _SIGMA * (sim[shrink, 1:] - first)
            cost, cause = score(sim[shrink, 1:].reshape(-1, dim))
            val[shrink, 1:] = cost.reshape(-1, dim)
            tally += np.bincount(cause, minlength=len(INFEASIBLE))
            evals[live[shrink]] += dim
        simplex[live], values[live] = sim, val
        live = live[evals[live] < spec.max_evals]

    pick = np.argsort(values, axis=1)[:, 0]
    results = [
        (simplex[r, pick[r]], float(values[r, pick[r]]), int(evals[r]), stop[r]) for r in range(count)
    ]
    return results, tally


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
    for an unknown objective) before any evaluation.
    Bounds that hold no feasible point raise ConfigError; a box in which
    no point has a rate raises EstimationError.
    """
    mode = "asymptotic-decoy" if objective == "asymptotic" else objective
    n_users = bundle.config.num_users
    keyrate._check_mode(n_users, mode)
    _check_box(n_users, spec)

    kernel = {"rounds": 0, "scored": 0}  # kernel calls and the rows they rated

    def score(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost -key_rate_raw of projected points (inf where the rate is undefined), and cause."""
        kernel["rounds"] += 1
        kernel["scored"] += len(points)
        ints, probs = _ladders(points, n_users)
        raw, cause = keyrate.rate_rows(
            ints, probs, bundle.config, bundle.channel, bundle.security, mode
        )
        return np.where((cause == 0) & np.isfinite(raw), -raw, math.inf), cause

    starts = [
        _project(_from_config(initial), n_users, spec)
        if initial is not None
        else _default_start(n_users, spec)
    ]
    pool = _presample_pool(spec, n_users)
    tally = np.zeros(len(INFEASIBLE), dtype=np.int64)
    presample_best = None
    if len(pool):
        cost, cause = score(pool)
        tally += np.bincount(cause, minlength=len(INFEASIBLE))
        presample_best = float(cost.min())
        ranked = np.argsort(cost, kind="stable")
        starts.extend(pool[i] for i in ranked[: spec.restarts - 1])

    results, used = _simplex_search(
        np.array(starts), spec, lambda points: score(_project(points, n_users, spec))
    )
    tally += used
    counts = {"presamples": len(pool), "presample_best": presample_best, **kernel}
    _log_search(bundle, objective, counts, results, tally)

    best_x, best_cost = None, math.inf
    for x, c, _, _ in results:
        if c < best_cost:
            best_x, best_cost = x, c
    if best_x is None:
        raise EstimationError("no point in the search box has a rate to optimize")
    best_config = _to_config(_project(best_x, n_users, spec), bundle.config)
    return best_config, keyrate.rate_report(best_config, bundle.channel, bundle.security, mode)


@lru_cache(maxsize=8)
def _presample_pool(spec: SearchSpec, n_users: int) -> np.ndarray:
    """The seeded presample pool (read-only); drawn once for all distances of a scan."""
    pool = _sample_starts(np.random.default_rng(spec.seed), spec.presamples, n_users, spec)
    pool.flags.writeable = False
    return pool


def _log_search(
    bundle: Bundle,
    objective: str,
    counts: dict[str, Any],
    results: list[_Result],
    tally: np.ndarray,
) -> None:
    """Log the search's telemetry record at DEBUG level.

    ``counts`` holds the presample count and best presample cost (None
    without presamples), the kernel calls ("rounds") and the rows they
    rated ("scored"); ``tally`` counts the evaluations used by cause.
    """
    # Imported here rather than with the module, so that the commands that
    # never optimize (rate, scan without --optimize, simulate) skip it.
    import logging

    logger = logging.getLogger(__name__)
    if not logger.isEnabledFor(logging.DEBUG):
        return
    telemetry = {
        "objective": objective,
        "distance_km": bundle.channel.distance_km,
        **counts,
        "evaluations": int(tally.sum()),
        "restarts": [{"evals": e, "stop": stop, "best": c} for _, c, e, stop in results],
        "infeasible": {
            INFEASIBLE[code].__name__: int(count)
            for code, count in enumerate(tally.tolist())
            if code and count
        },
    }
    logger.debug(
        "optimized %s at %g km: %d presamples (best cost %s), %d rounds, %d rows scored, "
        "%d evaluations; restarts (evals, stop, best cost) %s; infeasible %s",
        objective,
        telemetry["distance_km"],
        telemetry["presamples"],
        telemetry["presample_best"],
        telemetry["rounds"],
        telemetry["scored"],
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
