"""Search-engine behaviour: recovery, feasibility, determinism, lock-step rounds."""

import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mfqcka import keyrate
from mfqcka.keyrate import finite_rate, rate_report
from mfqcka.model import (
    ChannelParams,
    ConfigError,
    DegenerateChannelError,
    EstimationError,
    SecurityParams,
    validate,
)
from mfqcka.optimizer import (
    MIN_VACUUM_PROB,
    PRESAMPLES,
    SearchSpec,
    _from_config,
    _ladders,
    _presample_pool,
    _project,
    _sample_starts,
    _simplex_search,
    _to_config,
    optimize_at_distance,
    scan_distances,
)
from conftest import make_bundle, make_channel, make_config, make_geometric_config
from optimizer_oracles import kernel_calls, lock_step, nelder_mead, run_alone


def search(cost, starts, spec, n_users):
    """The array search from each row of ``starts``, scoring each projected point with ``cost``.

    Returns the search's results, with every best point projected, and
    the sizes of the batches it scored.
    """
    batches = []

    def score(points):
        batches.append(len(points))
        costs = np.array([cost(_project(point, n_users, spec)) for point in points])
        return costs, np.zeros(len(points), dtype=np.intp)

    results, _ = _simplex_search(np.atleast_2d(starts), spec, score)
    results = [(_project(x, n_users, spec), value, evals, stop) for x, value, evals, stop in results]
    return results, batches


def run_simplex(cost, x0, spec, n_users):
    """One restart of the array search alone: (projected best point, cost, evaluations, stop)."""
    return search(cost, x0, spec, n_users)[0][0]


def ladder_start(n_users, spec):
    """A fixed feasible point: a geometric intensity ladder and a signal-heavy split."""
    ints = [0.45 * 0.3**i for i in range(n_users)]
    probs = [0.5] + [0.4 / (n_users - 1)] * (n_users - 1)
    return _project(np.asarray(ints + probs), n_users, spec)


def test_spec_validation():
    with pytest.raises(ConfigError):
        SearchSpec(intensity_bounds=(0.0, 1.0))
    with pytest.raises(ConfigError):
        SearchSpec(prob_bounds=(0.1, 1.0))
    with pytest.raises(ConfigError):
        SearchSpec(restarts=0)


@pytest.mark.parametrize(
    "field,value", [("max_evals", 0), ("tolerance", math.nan), ("tolerance", -1.0), ("seed", -1)]
)
def test_spec_rejects_unusable_search_settings(field, value):
    with pytest.raises(ConfigError):
        SearchSpec(**{field: value})


class TestProjection:
    def test_idempotent_and_feasible(self):
        spec = SearchSpec()
        rng = np.random.default_rng(0)
        for _ in range(200):
            raw = rng.uniform(-0.5, 1.5, 6)
            x = _project(raw, 3, spec)
            assert np.allclose(_project(x, 3, spec), x, atol=1e-12)
            ints, probs = x[:3], x[3:]
            assert all(a > b for a, b in zip(ints, ints[1:]))
            assert ints[0] <= spec.intensity_bounds[1]
            assert ints[-1] >= spec.intensity_bounds[0]
            assert probs.min() >= spec.prob_bounds[0] - 1e-12
            assert probs.sum() <= 1.0 - MIN_VACUUM_PROB + 1e-12

    def test_collapsed_input_separated(self):
        spec = SearchSpec()
        x = _project(np.array([0.5, 0.5, 0.5, 0.9, 0.9, 0.9]), 3, spec)
        ints = x[:3]
        assert ints[0] > ints[1] > ints[2]
        assert x[3:].sum() <= 1.0 - MIN_VACUUM_PROB + 1e-12


class TestNelderMead:
    def test_recovers_quadratic_maximum(self):
        spec = SearchSpec(max_evals=4000, tolerance=1e-14)
        target = _project(
            np.array([0.3, 0.1, 0.03, 0.4, 0.3, 0.2]), 3, spec
        )  # projection fixed point

        def cost(x):
            return float(np.sum((x - target) ** 2))

        best, value, evals, _ = run_simplex(cost, ladder_start(3, spec), spec, 3)
        assert value < 1e-8
        assert np.allclose(best, target, atol=1e-4)
        assert evals <= spec.max_evals + 7

    def test_constant_objective_returns_feasible_point(self):
        spec = SearchSpec(max_evals=100)
        best, value, evals, stop = run_simplex(lambda x: 1.25, ladder_start(3, spec), spec, 3)
        assert value == 1.25
        assert np.allclose(_project(best, 3, spec), best, atol=1e-12)
        assert (evals, stop) == (7, "tolerance")  # the first simplex already agrees

    def test_budget_stop_counts_every_evaluation(self):
        spec = SearchSpec(max_evals=50, tolerance=0.0)
        calls = []

        def cost(x):
            calls.append(x)
            return float(np.sum(x**2))

        [(_, _, evals, stop)], batches = search(cost, ladder_start(3, spec), spec, 3)
        assert stop == "budget"
        assert sum(batches) == len(calls)
        assert spec.max_evals <= evals <= spec.max_evals + 7
        # every point the sequential simplex asks for is counted, and only those
        calls.clear()
        assert run_alone(cost, ladder_start(3, spec), spec, 3)[2] == evals == len(calls)


    @pytest.mark.parametrize("n_users", [3, 8])
    def test_matches_the_oracle_across_infeasible_regions(self, n_users):
        # No rate past a wall on every coordinate.  The first restart starts
        # just inside, so each axis step of its first simplex lands past a
        # wall: its values mix finite ones with tied infs, which the default
        # sort orders differently from a stable one.  The random starts lie
        # past the walls, on an inf plateau.
        spec = SearchSpec(restarts=4, max_evals=400, seed=31)
        walls = np.concatenate([0.3 * 0.5 ** np.arange(n_users), np.full(n_users, 0.5 / n_users)])

        def cost(x):
            return math.inf if (x > walls).any() else float(np.sum((x - 0.5 * walls) ** 2))

        pool = _sample_starts(np.random.default_rng(31), 3, n_users, spec)
        starts = np.vstack([_project(0.97 * walls, n_users, spec), pool])
        results, _ = search(cost, starts, spec, n_users)
        alone = [run_alone(cost, start, spec, n_users) for start in starts]
        assert results[0][1] < math.inf
        for (x, value, evals, stop), (x_alone, *rest) in zip(results, alone):
            assert (value, evals, stop) == tuple(rest)
            assert x.tobytes() == _project(x_alone, n_users, spec).tobytes()


class TestOptimizeAtDistance:
    def test_anchor_point_rate(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=4, max_evals=800)
        report = optimize_at_distance(spec, "finite", bundle)
        config = report.params_used
        assert report.key_rate == pytest.approx(1.44e-4, rel=0.15)
        # result validates and respects every constraint
        validate(config, bundle.channel, bundle.security)
        assert config.signal_intensity <= spec.intensity_bounds[1]
        assert min(config.decoy_intensities[:-1]) >= spec.intensity_bounds[0]

    def test_deterministic_bit_for_bit(self):
        bundle = make_bundle(distance_km=80.0, data_size=1e13)
        spec = SearchSpec(restarts=3, max_evals=400, seed=99)
        first = optimize_at_distance(spec, "finite", bundle)
        second = optimize_at_distance(spec, "finite", bundle)
        assert first.params_used == second.params_used
        assert first.key_rate_raw == second.key_rate_raw

    def test_beats_its_best_start(self):
        bundle = make_bundle(distance_km=60.0, data_size=1e13)
        spec = SearchSpec(restarts=3, max_evals=400)
        pool = _presample_pool(spec, 3)
        raw, cause = keyrate.rate_rows(
            *_ladders(pool, 3), bundle.config, bundle.channel, bundle.security, "finite"
        )
        best_start = pool[np.argmax(np.where(cause == 0, raw, -math.inf))]
        start_cfg = _to_config(best_start, bundle.config)
        start_rate = finite_rate(start_cfg, bundle.channel, bundle.security).key_rate_raw
        report = optimize_at_distance(spec, "finite", bundle)
        assert report.key_rate_raw > start_rate > 0.0

    def test_objective_names(self, caplog):
        bundle = make_bundle(distance_km=40.0)
        spec = SearchSpec(restarts=1, max_evals=60)
        for objective in ("finite", "asymptotic-decoy", "asymptotic-exact"):
            report = optimize_at_distance(spec, objective, bundle)
            assert report.key_rate >= 0.0
        caplog.clear()
        # only keyrate.MODES, which the CLI maps its flags to; no search starts
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            for objective in ("simplex", "asymptotic"):
                with pytest.raises(ValueError):
                    optimize_at_distance(spec, objective, bundle)
        assert not [r for r in caplog.records if r.name == "mfqcka.optimizer"]

    @pytest.mark.parametrize("seed", [0, 512])
    def test_unsupported_user_count_raises_before_any_search(self, seed, caplog):
        bundle = make_bundle(num_users=4, distance_km=50.0)
        spec = SearchSpec(seed=seed)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            with pytest.raises(ConfigError, match="3 users only"):
                optimize_at_distance(spec, "finite", bundle)
            with pytest.raises(ConfigError, match="3 users only"):
                scan_distances([bundle, make_bundle(num_users=4, distance_km=100.0)], spec, "finite")
        assert not [r for r in caplog.records if r.name == "mfqcka.optimizer"]

    def test_warm_start_used(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=1, max_evals=150)
        seeded = optimize_at_distance(SearchSpec(restarts=4, max_evals=800), "finite", bundle).params_used
        report = optimize_at_distance(spec, "finite", bundle, initial=seeded)
        warm_rate = finite_rate(seeded, bundle.channel, bundle.security).key_rate_raw
        assert report.key_rate_raw >= warm_rate - 1e-18


class TestScanDistances:
    def test_single_distance_matches_point_optimization(self):
        bundle = make_bundle(distance_km=70.0, data_size=1e13)
        spec = SearchSpec(restarts=2, max_evals=300)
        reports = scan_distances([bundle], spec, "finite")
        report = optimize_at_distance(spec, "finite", bundle)
        assert reports[0].distance_km == 70.0
        assert reports[0].params_used == report.params_used
        assert reports[0].key_rate_raw == report.key_rate_raw

    def test_rates_track_distance(self):
        bundles = [make_bundle(distance_km=d, data_size=1e14) for d in (50.0, 100.0, 150.0)]
        spec = SearchSpec(restarts=3, max_evals=500)
        reports = scan_distances(bundles, spec, "finite")
        rates = [r.key_rate for r in reports]
        # optimized rate non-increasing in distance up to 5% optimizer noise
        assert all(b <= a * 1.05 for a, b in zip(rates, rates[1:]))
        assert all(r.params_used.num_users == 3 for r in reports)

    def test_empty_distance_list_rejected(self):
        with pytest.raises(ValueError):
            scan_distances([], SearchSpec(), "finite")


def search_telemetry(caplog):
    """The one DEBUG record an optimize_at_distance call logs, as its telemetry dict."""
    records = [r for r in caplog.records if r.name == "mfqcka.optimizer"]
    assert len(records) == 1
    return records[0].telemetry


def scalar_cost(rate_of):
    """The optimizer's cost evaluated one point at a time through the scalar entry points."""

    def cost(x):
        try:
            raw = rate_of(x).key_rate_raw
        except (ConfigError, EstimationError, DegenerateChannelError):
            return math.inf
        return -raw if math.isfinite(raw) else math.inf

    return cost


class TestLockStep:
    def test_more_restarts_than_starts(self, caplog):
        # A budget the first simplex already spends: every restart stops
        # after its initial vertices, all scored in one kernel call.
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=PRESAMPLES + 10, max_evals=7)
        for initial, warm_starts in [(None, 0), (bundle.config, 1)]:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
                optimize_at_distance(spec, "finite", bundle, initial=initial)
            telemetry = search_telemetry(caplog)
            # the whole pool, after the warm start if there is one
            assert len(telemetry["restarts"]) == warm_starts + PRESAMPLES
            evals = sum(r["evals"] for r in telemetry["restarts"])
            assert telemetry["evaluations"] == PRESAMPLES + evals
            assert telemetry["rounds"] == 2

    def test_equals_restarts_run_one_at_a_time(self, caplog, monkeypatch):
        self.check_restarts_run_alone(None, caplog, monkeypatch)

    def test_warm_start_is_the_first_restart(self, caplog, monkeypatch):
        self.check_restarts_run_alone(make_bundle().config, caplog, monkeypatch)

    @staticmethod
    def check_restarts_run_alone(initial, caplog, monkeypatch):
        """The search from ``initial`` (or none) equals its restarts run one at a time.

        The restarts start at ``initial`` and then the pool points in
        order of their scalar cost, ties broken by pool index.
        """
        bundle = make_bundle(distance_km=80.0, data_size=1e13)
        spec = SearchSpec(restarts=4, max_evals=300, seed=5)
        batches = []
        rate_rows = keyrate.rate_rows

        def spy(ints, *args):
            batches.append(len(ints))
            return rate_rows(ints, *args)

        monkeypatch.setattr(keyrate, "rate_rows", spy)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            report = optimize_at_distance(spec, "finite", bundle, initial=initial)
        telemetry = search_telemetry(caplog)

        cost = scalar_cost(
            lambda x: finite_rate(_to_config(x, bundle.config), bundle.channel, bundle.security)
        )
        pool = _sample_starts(np.random.default_rng(spec.seed), PRESAMPLES, 3, spec)
        costs = [cost(x) for x in pool]
        ranked = sorted(range(len(pool)), key=lambda i: (costs[i], i))
        warm = [] if initial is None else [_project(_from_config(initial), 3, spec)]
        starts = warm + [pool[i] for i in ranked[: spec.restarts - len(warm)]]
        steps = [[] for _ in starts]
        alone = [run_alone(cost, start, spec, 3, s) for start, s in zip(starts, steps)]

        # with the default tolerance the restarts stop in different rounds
        assert len({evals for _, _, evals, _ in alone}) > 1
        # rounds are kernel calls: the pool's, then one per round of the search,
        # as many as the restart that needs the most calls alone, far fewer
        # than the evaluations of the longest restart
        calls = max(kernel_calls(s) for s in steps)
        assert telemetry["rounds"] == len(batches) == 1 + calls
        assert calls < max(evals for _, _, evals, _ in alone)
        assert telemetry["scored"] == sum(batches) >= telemetry["evaluations"]
        assert batches[:2] == [PRESAMPLES, 7 * spec.restarts]
        assert telemetry["presamples"] == PRESAMPLES
        assert telemetry["presample_best"] == min(costs)
        assert [(r["evals"], r["stop"], r["best"]) for r in telemetry["restarts"]] == [
            (evals, stop, value) for _, value, evals, stop in alone
        ]
        best_x, best_value, _, _ = min(alone, key=lambda result: result[1])
        assert report.params_used == _to_config(_project(best_x, 3, spec), bundle.config)
        assert report.key_rate_raw == -best_value

    @pytest.mark.parametrize("objective", ["asymptotic-decoy", "asymptotic-exact"])
    def test_reported_rate_is_the_best_cost(self, objective, caplog):
        bundle = make_bundle(num_users=4, distance_km=150.0)
        spec = SearchSpec(restarts=3, max_evals=120, seed=11)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            report = optimize_at_distance(spec, objective, bundle)
        best = min(r["best"] for r in search_telemetry(caplog)["restarts"])
        assert report.key_rate_raw == -best
        mode = objective.split("-")[1]
        assert report.mode == f"asymptotic-{mode}"


@pytest.mark.parametrize(
    "bundle,objective",
    [
        (make_bundle(distance_km=50.0, data_size=1e14), "finite"),
        (make_bundle(distance_km=80.0, data_size=1e13), "finite"),
        (make_bundle(num_users=5, distance_km=280.0), "asymptotic-decoy"),
        (make_bundle(num_users=4, distance_km=200.0), "asymptotic-exact"),
    ],
    ids=["n3-finite-50km", "n3-finite-80km", "n5-decoy-280km", "n4-exact-200km"],
)
def test_no_restart_starts_on_the_zero_rate_plateau(bundle, objective, caplog):
    # Restarts begin at the best points of the presample pool, all of
    # which have a positive rate here, so none ends at a cost >= 0.  A
    # restart from the fixed ladder_start slides to the plateau in the
    # N=3 and N=5 cases: its finite rate is negative at 50 and 80 km.
    with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
        report = optimize_at_distance(SearchSpec(), objective, bundle)
    telemetry = search_telemetry(caplog)
    assert len(telemetry["restarts"]) == SearchSpec().restarts
    assert [r["best"] for r in telemetry["restarts"] if r["best"] >= 0.0] == []
    assert report.key_rate > 0.0


def no_signal(num_users):
    """Negligible detector efficiency and no dark counts: no point has a rate."""
    channel = ChannelParams(
        detector_efficiency=1e-300, dark_count_rate=0.0, fiber_alpha=0.16, distance_km=50.0
    )
    return validate(make_geometric_config(num_users), channel, SecurityParams(data_size=1e12))


ORACLE_CASES = {
    # name: (bundle, mode, spec)
    "n3-finite": (
        make_bundle(distance_km=80.0, data_size=1e13),
        "finite",
        SearchSpec(restarts=3, max_evals=300, seed=5),
    ),
    "n4-decoy": (
        make_bundle(num_users=4, distance_km=150.0),
        "asymptotic-decoy",
        SearchSpec(restarts=3, max_evals=150, seed=11),
    ),
    "n8-exact": (
        validate(make_geometric_config(8), make_channel(50.0), SecurityParams(data_size=1e12)),
        "asymptotic-exact",
        SearchSpec(restarts=2, max_evals=90, seed=13),
    ),
    "plateau-n3": (no_signal(3), "finite", SearchSpec(restarts=2, max_evals=40, seed=17)),
    "plateau-n8": (no_signal(8), "asymptotic-exact", SearchSpec(restarts=2, max_evals=60, seed=19)),
    "budget": (
        make_bundle(distance_km=50.0, data_size=1e14),
        "finite",
        SearchSpec(restarts=3, max_evals=120, tolerance=0.0, seed=23),
    ),
    "tolerance": (
        make_bundle(distance_km=30.0, data_size=1e14),
        "finite",
        SearchSpec(restarts=3, max_evals=2000, tolerance=1e-6, seed=29),
    ),
}


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_array_search_matches_the_generator_oracle(case):
    bundle, mode, spec = ORACLE_CASES[case]
    n = bundle.config.num_users
    dim = 2 * n
    pool = _sample_starts(np.random.default_rng(spec.seed), spec.restarts - 1, n, spec)
    starts = np.vstack([ladder_start(n, spec), pool])

    batches = []

    def score(points):
        batches.append(len(points))
        ints, probs = _ladders(_project(points, n, spec), n)
        raw, cause = keyrate.rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, mode)
        return np.where((cause == 0) & np.isfinite(raw), -raw, math.inf), cause

    results, tally = _simplex_search(starts, spec, score)
    cost = scalar_cost(
        lambda x: rate_report(_to_config(x, bundle.config), bundle.channel, bundle.security, mode)
    )
    steps = [[] for _ in starts]
    alone = [run_alone(cost, start, spec, n, s) for start, s in zip(starts, steps)]
    for (x, value, evals, stop), (x_alone, *rest) in zip(results, alone):
        assert (value, evals, stop) == tuple(rest)
        assert x.tobytes() == x_alone.tobytes()
    assert tally.sum() == sum(evals for _, _, evals, _ in results) <= sum(batches)
    calls = len(batches)
    # every round is one kernel call, and the search runs as many rounds as
    # the restart that needs the most calls alone: one per iteration and one
    # per shrink, after the initial vertices'
    assert calls == max(kernel_calls(s) for s in steps)
    # the generators in lock-step, one evaluation per restart and kernel call
    locked, rounds = lock_step([nelder_mead(start, spec) for start in starts], lambda p: score(p)[0])
    assert [(v, e, st) for _, v, e, st in locked] == [(v, e, st) for _, v, e, st in alone]
    assert rounds == max(evals for _, _, evals, _ in results) > calls

    stops = {stop for _, _, _, stop in results}
    if case.startswith("plateau"):
        # Every iteration on an inf plateau rejects the reflected and the
        # contracted point and shrinks: 2 + dim evaluations, two kernel calls.
        assert all(s == ["iteration", "shrink"] * (len(s) // 2) for s in steps)
        assert all(value == math.inf for _, value, _, _ in results)
        assert all((evals - dim - 1) % (dim + 2) == 0 and evals > dim + 1 for _, _, evals, _ in results)
        assert tally[0] == 0
    if case == "budget":
        assert stops == {"budget"}
    if case == "tolerance":
        assert "tolerance" in stops


def test_telemetry_counts_infeasible_points_by_cause(caplog):
    # Negligible detector efficiency and no dark counts: no point has a
    # sifted signal, so every evaluation raises EstimationError when run
    # alone (the decoy bound fails before the adjacent error could raise
    # DegenerateChannelError), and the kernel counts it under that class.
    channel = ChannelParams(
        detector_efficiency=1e-300, dark_count_rate=0.0, fiber_alpha=0.16, distance_km=50.0
    )
    bundle = validate(make_config(3), channel, SecurityParams(data_size=1e12))
    spec = SearchSpec(restarts=2, max_evals=20)
    with pytest.raises(EstimationError):
        finite_rate(_to_config(ladder_start(3, spec), bundle.config), channel, bundle.security)
    with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
        with pytest.raises(EstimationError):
            optimize_at_distance(spec, "finite", bundle)
    telemetry = search_telemetry(caplog)
    assert telemetry["evaluations"] == PRESAMPLES + sum(r["evals"] for r in telemetry["restarts"])
    assert telemetry["infeasible"] == {"EstimationError": telemetry["evaluations"]}
    assert all(r["best"] == math.inf for r in telemetry["restarts"])
    assert "EstimationError" in caplog.text


def test_an_optimize_run_does_not_import_logging(tmp_path):
    # Until logging is imported no level or handler can be set, so the
    # search's DEBUG record would go nowhere, and the search skips the import.
    import mfqcka

    path = tmp_path / "n3.json"
    path.write_text(json.dumps(make_bundle(distance_km=50.0, data_size=1e14).to_dict()))
    code = "import sys; from mfqcka import cli; print(cli.main(sys.argv[1:]), 'logging' in sys.modules)"
    argv = ["optimize", str(path), "--restarts", "2", "--max-evals", "30"]
    env = {**os.environ, "PYTHONPATH": str(Path(mfqcka.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert run.stdout.splitlines()[-1] == "0 False", run.stderr


def test_telemetry_is_silent_above_debug(caplog):
    bundle = make_bundle(distance_km=50.0, data_size=1e14)
    with caplog.at_level(logging.INFO, logger="mfqcka.optimizer"):
        optimize_at_distance(SearchSpec(restarts=1, max_evals=20), "finite", bundle)
    assert not [r for r in caplog.records if r.name == "mfqcka.optimizer"]
