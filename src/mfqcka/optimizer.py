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
(``keyrate.rate_rows``).  The standard library's ``random.Random``,
seeded with the spec's seed, draws a pool of ``PRESAMPLES`` random
feasible points, which depends only on the spec and the number of users,
so a scan draws it once for all its distances.  A seeded result thus
depends on Python's Mersenne Twister and its ``uniform`` and
``gammavariate``, not on numpy's generator algorithms, and an optimizing
process never imports ``numpy.random``.
The pool is scored in one kernel call and ranked by cost; it is the only
source of starting points.  Without a warm start the restarts begin at
the ``restarts`` best points of the pool; with one, at the warm start and
the ``restarts - 1`` best points.  The simplices of all restarts are then
held in one array (``_simplex_search``), and every round is one kernel
call.  It scores, speculatively, the reflected, expanded and contracted
points of every restart that begins a Nelder-Mead iteration, and the new
vertices of every restart that shrank in the round before, which waits
for them and proposes nothing.  A restart uses only the points a
sequential simplex would have asked for, and a row's value never depends
on the other rows of its batch, so each restart moves, counts and stops
exactly as it would alone; a fixed seed reproduces the result bit for
bit.

Each search logs one DEBUG record on the ``mfqcka.optimizer`` logger
(the same data as the record's ``telemetry`` attribute): the presample
count and best presample cost, the number of kernel calls ("rounds",
the presample pool's included) and of rows they scored, each restart's
evaluations, stop reason and best cost, and the evaluations used, with
the infeasible ones counted by the exception that evaluating the point
alone raises.  A process that has not imported ``logging`` has nothing
that could receive the record, so the search skips it and the import.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Any, Callable, NamedTuple

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

__all__ = ["SearchSpec", "optimize_at_distance", "scan_distances"]

# Random feasible points scored before the restarts; the best of them
# are the restarts' starting points.
PRESAMPLES = 512


class _SearchFields(NamedTuple):
    intensity_bounds: tuple[float, float] = (1e-4, 1.0)
    prob_bounds: tuple[float, float] = (1e-3, 0.99)
    restarts: int = 8
    max_evals: int = 2000
    tolerance: float = 1e-9
    seed: int = 2024


class SearchSpec(_SearchFields):
    """Bounds, budget and seed of one optimization run.

    ``seed`` seeds the ``random.Random`` that draws the ``PRESAMPLES``
    random feasible points whose best ones start the ``restarts`` simplex
    descents; the feasible basin can be narrow at long distances (tiny
    decoy counts blow up the concentration bounds), so blind restarts
    tend to strand on the zero-rate plateau.  A seed gives the same pool
    on every Python, whatever numpy is installed.  ``max_evals`` budgets
    each restart's evaluations.  Construction raises a ConfigError for a
    spec that breaks any of these rules; ``_replace`` skips the checks.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> SearchSpec:
        self = super().__new__(cls, *args, **kwargs)
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
        return self


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
    ``np.minimum(np.maximum(...))`` is ``np.clip`` bit for bit.
    """
    n = n_users  # intensities: signal + (n-1) nonzero decoys
    lows, highs = _box(n, spec)
    points = np.minimum(np.maximum(np.asarray(x, dtype=float), lows), highs)
    ints = points.reshape(-1, 2 * n)[:, :n]
    ints.sort(axis=1)
    ints = ints[:, ::-1].T.copy()  # one row per intensity, signal first
    ladder = list(ints)  # views of the rows, updated in place
    for i in range(1, n):
        np.minimum(ladder[i], ladder[i - 1] - ORDERING_GAP, out=ladder[i])
    np.maximum(ladder[-1], lows[0], out=ladder[-1])
    for i in range(n - 2, -1, -1):
        np.maximum(ladder[i], ladder[i + 1] + ORDERING_GAP, out=ladder[i])

    plo = spec.prob_bounds[0]
    probs = points.reshape(-1, 2 * n)[:, n:].copy()  # contiguous: cheaper to operate on
    excess = np.add.reduce(probs, axis=1) - (1.0 - MIN_VACUUM_PROB)
    over = excess > 0.0
    slack = probs - plo
    share = np.where(over, np.add.reduce(slack, axis=1), 1.0)
    probs = np.where(over[:, None], probs - excess[:, None] * slack / share[:, None], probs)
    out = np.concatenate([ints.T, probs], axis=1)
    return out if points.ndim == 2 else out[0]


@lru_cache(maxsize=8)
def _box(n_users: int, spec: SearchSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of every coordinate of a point (read-only)."""
    bounds = np.repeat([spec.intensity_bounds, spec.prob_bounds], n_users, axis=0).T.copy()
    bounds.flags.writeable = False
    return bounds[0], bounds[1]


def _ladders(points: np.ndarray, n_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Kernel rows of projected points: each ladder with the vacuum appended, and its probabilities."""
    rows = len(points)
    ints = np.zeros((rows, n_users + 1))
    ints[:, :n_users] = points[:, :n_users]
    probs = np.empty((rows, n_users + 1))
    probs[:, :n_users] = points[:, n_users:]
    probs[:, n_users] = 1.0 - np.add.reduce(points[:, n_users:], axis=1)
    return ints, probs


def _to_config(x: np.ndarray, base: SourceConfig) -> SourceConfig:
    ints, probs = _ladders(x[None, :], base.num_users)
    return base._replace(
        signal_intensity=float(ints[0, 0]),
        decoy_intensities=tuple(ints[0, 1:].tolist()),
        send_probabilities=tuple(probs[0].tolist()),
    )


def _from_config(config: SourceConfig) -> np.ndarray:
    ints = [config.signal_intensity, *config.decoy_intensities[:-1]]
    probs = list(config.send_probabilities[:-1])
    return np.asarray(ints + probs, dtype=float)


def _sample_starts(rng: random.Random, count: int, n_users: int, spec: SearchSpec) -> np.ndarray:
    """``count`` random feasible candidates, one per row: log-uniform ladder, Dirichlet split.

    Each row draws its log signal, its n_users - 1 intensity ratios
    (uniform on [0.03, 0.85]) and the n_users + 1 gamma(1.6) variates
    whose normalized sum is a Dirichlet(1.6) split of the send
    probabilities (the vacuum's share is dropped), in that order, so a
    pool's first rows do not depend on its size.
    """
    lo, hi = spec.intensity_bounds
    log_hi = math.log(min(hi, 0.6))
    log_lo = min(math.log(max(2.0 * lo, 5e-3)), log_hi)
    raw = np.empty((count, 2 * n_users))
    for r in range(count):
        ladder = [math.exp(rng.uniform(log_lo, log_hi))]
        ratios = sorted(rng.uniform(0.03, 0.85) for _ in range(n_users - 1))
        for ratio in reversed(ratios):  # each intensity: the one before it times the next largest ratio
            ladder.append(ladder[-1] * ratio)
        split = [rng.gammavariate(1.6, 1.0) for _ in range(n_users + 1)]
        total = sum(split)
        raw[r] = ladder + [share / total for share in split[:n_users]]
    return _project(raw, n_users, spec)


# Nelder-Mead coefficients: expansion, contraction, shrink (the reflection's is 1).
_GAMMA, _RHO, _SIGMA = 2.0, 0.5, 0.5

# A restart's result: best point (unprojected), its cost, evaluations, stop reason.
_Result = tuple[np.ndarray, float, int, str]


def _simplex_search(
    starts: np.ndarray,
    spec: SearchSpec,
    score: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[list[_Result], np.ndarray]:
    """Budgeted Nelder-Mead descent (minimization) from every row of ``starts`` at once.

    The simplices of the restarts are one (R, d+1, d) array and their
    values one (R, d+1) array, row r restart r for the whole search.
    ``score`` maps a stack of unprojected points to their costs and
    infeasibility causes, and every round is one ``score`` call: the
    initial vertices in the first, then the reflected, expanded and
    contracted points of the restarts that begin an iteration together
    with the d new vertices of the restarts that shrank in the round
    before, which propose nothing in this one.  A restart uses 1, 2 or
    2+d of its points per iteration, exactly those a sequential simplex
    would have asked for, so it moves, counts and stops as it would alone:
    at ``spec.tolerance`` agreement of its values ("tolerance") or once its
    evaluations reach ``spec.max_evals`` ("budget"; the last iteration may
    run past it by up to d+1, and a restart whose shrink ends past it
    stops once those vertices are scored).  A stop marks the row with its
    reason; the row proposes nothing more and is never written again, and
    each result is read from its row once no row proposes or waits.

    Returns each restart's result and the causes of the evaluations the
    restarts used (speculative points they did not use are left out),
    counted per ``model.INFEASIBLE`` code.
    """
    count, dim = starts.shape
    simplex = np.repeat(starts[:, None, :], dim + 1, axis=1)
    axis = np.arange(dim)
    simplex[:, axis + 1, axis] += 0.25 * starts + 0.02
    cost, cause = score(simplex.reshape(-1, dim))
    values = cost.reshape(count, dim + 1)
    tally = np.bincount(cause, minlength=len(INFEASIBLE)).tolist()
    # Per restart: its evaluations, whether the vertices of its last shrink
    # are scored this round, and why it stopped (None while it runs).
    evals, waiting = [dim + 1] * count, [False] * count
    stops: list[str | None] = [None] * count
    # A waiting or stopped simplex is sorted by this key, which keeps its
    # order: argsort is not stable, so sorting a stopped row by its values
    # again could swap tied vertices and change the point it returns.
    ramp = np.arange(dim + 1.0)
    # offsets of each simplex's vertices in the flattened (R * (d+1), d) stack
    offsets = np.arange(0, count * (dim + 1), dim + 1)[:, None]
    limit, tolerance, isfinite = spec.max_evals, spec.tolerance, math.isfinite
    rows = range(count)
    while True:
        # Begin an iteration: stop the restarts whose budget is spent, sort
        # each running simplex as the sequential one keeps it, and stop
        # those whose values agree.
        for r in rows:
            if stops[r] is None and not waiting[r] and evals[r] >= limit:
                stops[r] = "budget"
        held = [w or s is not None for w, s in zip(waiting, stops)]
        key = np.where(np.array(held)[:, None], ramp, values) if any(held) else values
        order = key.argsort(axis=1) + offsets
        simplex, values = simplex.reshape(-1, dim).take(order, axis=0), values.take(order)
        ends = values.tolist()
        for r, v in enumerate(ends):
            if not held[r] and isfinite(v[0]) and abs(v[-1] - v[0]) <= tolerance * (abs(v[0]) + 1e-300):
                stops[r] = "tolerance"
        prop = [r for r in rows if stops[r] is None and not waiting[r]]
        shrunk = [r for r in rows if waiting[r]]
        if not (prop or shrunk):
            break

        worst_pt = simplex[:, -1]
        centroid = np.add.reduce(simplex[:, :-1], axis=1) / dim  # np.mean bit for bit
        trial = np.empty((3, count, dim))  # reflected (coefficient 1), expanded, contracted
        np.add(centroid, centroid - worst_pt, out=trial[0])
        np.add(centroid, _GAMMA * (trial[0] - centroid), out=trial[1])
        np.add(centroid, _RHO * (worst_pt - centroid), out=trial[2])
        if len(prop) == count:
            batch = trial.reshape(-1, dim)
        else:
            batch = np.concatenate([trial[:, prop].reshape(-1, dim), simplex[shrunk, 1:].reshape(-1, dim)])
        cost, cause = score(batch)
        costs, causes = cost.tolist(), cause.tolist()

        n_prop = len(prop)
        moved, picks, shrinks = [], [], []
        for j, row in enumerate(prop):
            best, second, worst = ends[row][0], ends[row][-2], ends[row][-1]
            f_r = costs[j]
            tally[causes[j]] += 1
            if f_r < best:
                tally[causes[n_prop + j]] += 1
                evals[row] += 2
                pick = n_prop + j if costs[n_prop + j] < f_r else j
            elif f_r < second:
                evals[row] += 1
                pick = j
            else:
                tally[causes[2 * n_prop + j]] += 1
                evals[row] += 2
                if not costs[2 * n_prop + j] < worst:
                    shrinks.append(row)
                    continue
                pick = 2 * n_prop + j
            moved.append(row)
            picks.append(pick)
        if shrunk:
            values[shrunk, 1:] = cost[3 * n_prop :].reshape(-1, dim)
            for code in causes[3 * n_prop :]:
                tally[code] += 1
            for row in shrunk:
                waiting[row] = False
        if shrinks:
            first = simplex[shrinks, :1]
            simplex[shrinks, 1:] = first + _SIGMA * (simplex[shrinks, 1:] - first)
            for row in shrinks:
                evals[row] += dim
                waiting[row] = True
        if moved:
            target = slice(None) if len(moved) == count else moved
            picks = np.array(picks)
            simplex[target, -1] = batch[picks]
            values[target, -1] = cost[picks]
    best = values.argsort(axis=1)[:, 0].tolist()
    results = [(simplex[r, b], float(values[r, b]), evals[r], stops[r]) for r, b in zip(rows, best)]
    return results, np.array(tally)


def optimize_at_distance(
    spec: SearchSpec,
    objective: str,
    bundle: Bundle,
    initial: SourceConfig | None = None,
) -> RateReport:
    """Maximize the selected key rate over intensities and probabilities.

    ``objective`` is one of ``keyrate.MODES`` ("finite", "asymptotic-decoy",
    "asymptotic-exact").
    ``initial``, if given, is the first restart's starting point.  Returns
    the ``keyrate.rate_report`` of the best feasible point found over all
    restarts (its ``params_used`` is the tuned configuration); a fixed
    seed makes the result reproducible bit for bit.  An objective that
    ``keyrate`` cannot rate for the bundle's number of users raises
    (ConfigError, or ValueError for an unknown objective) before any
    evaluation.  Of ``bundle.config`` the search reads only the user
    count and the phase slices: it rates ladders of its own, so the
    configured ladder's widths are never checked here.
    Bounds that hold no feasible point raise ConfigError; a box in which
    no point has a rate raises EstimationError.
    """
    n_users = bundle.config.num_users
    keyrate._check_mode(n_users, objective)
    _check_box(n_users, spec)

    kernel = {"rounds": 0, "scored": 0}  # kernel calls and the rows they rated

    def score(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cost -key_rate_raw of projected points (inf where the rate is undefined), and cause."""
        kernel["rounds"] += 1
        kernel["scored"] += len(points)
        ints, probs = _ladders(points, n_users)
        raw, cause = keyrate.rate_rows(
            ints, probs, bundle.config, bundle.channel, bundle.security, objective
        )
        return np.where((cause == 0) & np.isfinite(raw), -raw, math.inf), cause

    pool = _presample_pool(spec, n_users)
    cost, cause = score(pool)
    ranked = pool[np.argsort(cost, kind="stable")]
    if initial is None:
        starts = ranked[: spec.restarts]
    else:
        warm = _project(_from_config(initial), n_users, spec)
        starts = np.vstack([warm, ranked[: spec.restarts - 1]])

    results, used = _simplex_search(
        starts, spec, lambda points: score(_project(points, n_users, spec))
    )
    tally = np.bincount(cause, minlength=len(INFEASIBLE)) + used
    counts = {"presamples": PRESAMPLES, "presample_best": float(cost.min()), **kernel}
    _log_search(bundle, objective, counts, results, tally)

    best_x, best_cost = None, math.inf
    for x, c, _, _ in results:
        if c < best_cost:
            best_x, best_cost = x, c
    if best_x is None:
        raise EstimationError("no point in the search box has a rate to optimize")
    best_config = _to_config(_project(best_x, n_users, spec), bundle.config)
    return keyrate.rate_report(best_config, bundle.channel, bundle.security, objective)


@lru_cache(maxsize=8)
def _presample_pool(spec: SearchSpec, n_users: int) -> np.ndarray:
    """The seeded presample pool (read-only); drawn once for all distances of a scan."""
    pool = _sample_starts(random.Random(spec.seed), PRESAMPLES, n_users, spec)
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

    ``counts`` holds the presample count and best presample cost, the
    kernel calls ("rounds") and the rows they rated ("scored"); ``tally``
    counts the evaluations used by cause.
    """
    # Until something imports logging, no level or handler can be set, so
    # the record would go nowhere; an optimize run then never imports it.
    import sys

    if "logging" not in sys.modules:
        return
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
    logger.debug("optimized: %s", telemetry, extra={"telemetry": telemetry})


def scan_distances(bundles: list[Bundle], spec: SearchSpec, objective: str) -> list[RateReport]:
    """Optimize each bundle in turn, warm-starting from the previous one's result.

    ``bundles`` are validated (``model.validate``), typically one per distance.
    """
    if not bundles:
        raise ValueError("bundle list must not be empty")
    reports: list[RateReport] = []
    for bundle in bundles:
        warm = reports[-1].params_used if reports else None
        reports.append(optimize_at_distance(spec, objective, bundle, initial=warm))
    return reports
