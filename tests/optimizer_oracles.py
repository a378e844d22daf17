"""The generator simplex and its lock-step driver, kept as a test oracle.

``mfqcka.optimizer`` held every restart as a generator that yields each
point it needs and receives that point's cost, and advanced all restarts
one evaluation per round.  The array search that replaced it must make
the same moves: the tests run these generators one restart at a time
and compare points, values, evaluation counts and stop reasons bit for
bit.
"""

import math
from typing import Callable, Generator

import numpy as np

from mfqcka.optimizer import SearchSpec, _project

# The simplex yields a point and receives its cost; it returns
# (best point, best cost, evaluations, stop reason).
Simplex = Generator[np.ndarray, float, "tuple[np.ndarray, float, int, str]"]


def nelder_mead(x0: np.ndarray, spec: SearchSpec, steps: list[str] | None = None) -> Simplex:
    """Budgeted simplex descent (minimization) as a generator.

    Yields every point it needs scored, unprojected (the caller projects
    it before scoring), and takes the cost back through ``send``.  Stops
    when the simplex values agree to ``spec.tolerance`` ("tolerance") or
    the evaluations reach ``spec.max_evals`` ("budget"; a shrink may run
    up to dim evaluations past it).  The returned best point is unprojected.
    ``steps``, if given, receives "iteration" as each iteration begins and
    "shrink" as each shrink begins.
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
        if steps is not None:
            steps.append("iteration")
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
                if steps is not None:
                    steps.append("shrink")
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = yield simplex[i]
                    evals += 1
    order = np.argsort(values)
    return simplex[order[0]], values[order[0]], evals, stop


def lock_step(
    simplices: list[Simplex], score: Callable[[np.ndarray], np.ndarray]
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


def run_alone(
    cost: Callable[[np.ndarray], float],
    x0: np.ndarray,
    spec: SearchSpec,
    n_users: int,
    steps: list[str] | None = None,
) -> tuple[np.ndarray, float, int, str]:
    """Drive one simplex generator alone, scoring each projected point with ``cost``.

    Returns the generator's result with its best point left unprojected;
    ``steps`` receives the generator's iterations and shrinks.
    """
    simplex = nelder_mead(x0, spec, steps)
    point = next(simplex)
    try:
        while True:
            point = simplex.send(cost(_project(point, n_users, spec)))
    except StopIteration as done:
        return done.value


def kernel_calls(steps: list[str]) -> int:
    """The kernel calls that a restart with these ``steps`` needs alone, one call a round.

    The initial vertices take one call, each iteration one for its
    reflected, expanded and contracted points, and each shrink one for its
    new vertices.
    """
    return 1 + len(steps)
