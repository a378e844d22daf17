"""Search-engine behaviour: recovery, feasibility, determinism, lock-step rounds."""

import logging
import math

import numpy as np
import pytest

from mfqcka.keyrate import finite_rate
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
    SearchSpec,
    _default_start,
    _nelder_mead,
    _project,
    _sample_starts,
    _to_config,
    optimize_at_distance,
    scan_distances,
)
from conftest import make_bundle, make_config


def run_simplex(cost, x0, spec, n_users):
    """Drive one simplex generator alone, scoring each projected point with ``cost``."""
    simplex = _nelder_mead(x0, spec)
    point = next(simplex)
    try:
        while True:
            point = simplex.send(cost(_project(point, n_users, spec)))
    except StopIteration as done:
        best, value, evals, stop = done.value
    return _project(best, n_users, spec), value, evals, stop


def test_spec_validation():
    with pytest.raises(ConfigError):
        SearchSpec(intensity_bounds=(0.0, 1.0))
    with pytest.raises(ConfigError):
        SearchSpec(prob_bounds=(0.1, 1.0))
    with pytest.raises(ConfigError):
        SearchSpec(restarts=0)


@pytest.mark.parametrize("field,value", [("presamples", -1)])
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

        best, value, evals, _ = run_simplex(cost, _default_start(3, spec), spec, 3)
        assert value < 1e-8
        assert np.allclose(best, target, atol=1e-4)
        assert evals <= spec.max_evals + 7

    def test_constant_objective_returns_feasible_point(self):
        spec = SearchSpec(max_evals=100)
        best, value, evals, stop = run_simplex(lambda x: 1.25, _default_start(3, spec), spec, 3)
        assert value == 1.25
        assert np.allclose(_project(best, 3, spec), best, atol=1e-12)
        assert (evals, stop) == (7, "tolerance")  # the first simplex already agrees

    def test_budget_stop_counts_every_evaluation(self):
        spec = SearchSpec(max_evals=50, tolerance=0.0)
        calls = []

        def cost(x):
            calls.append(x)
            return float(np.sum(x**2))

        _, _, evals, stop = run_simplex(cost, _default_start(3, spec), spec, 3)
        assert stop == "budget"
        assert evals == len(calls)
        assert spec.max_evals <= evals <= spec.max_evals + 7


class TestOptimizeAtDistance:
    def test_anchor_point_rate(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=4, max_evals=800, presamples=256)
        config, report = optimize_at_distance(spec, "finite", bundle)
        assert report.key_rate == pytest.approx(1.44e-4, rel=0.15)
        # result validates and respects every constraint
        validate(config, bundle.channel, bundle.security)
        assert config.signal_intensity <= spec.intensity_bounds[1]
        assert min(config.decoy_intensities[:-1]) >= spec.intensity_bounds[0]

    def test_deterministic_bit_for_bit(self):
        bundle = make_bundle(distance_km=80.0, data_size=1e13)
        spec = SearchSpec(restarts=3, max_evals=400, presamples=128, seed=99)
        first = optimize_at_distance(spec, "finite", bundle)
        second = optimize_at_distance(spec, "finite", bundle)
        assert first[0] == second[0]
        assert first[1].key_rate_raw == second[1].key_rate_raw

    def test_beats_default_start(self):
        bundle = make_bundle(distance_km=60.0, data_size=1e13)
        spec = SearchSpec(restarts=3, max_evals=400, presamples=128)
        start_cfg = _to_config(_default_start(3, spec), bundle.config)
        start_rate = finite_rate(start_cfg, bundle.channel, bundle.security).key_rate_raw
        _, report = optimize_at_distance(spec, "finite", bundle)
        assert report.key_rate_raw >= start_rate

    def test_objective_names(self):
        bundle = make_bundle(distance_km=40.0)
        spec = SearchSpec(restarts=1, max_evals=60, presamples=16)
        for objective in ("finite", "asymptotic", "asymptotic-decoy", "asymptotic-exact"):
            _, report = optimize_at_distance(spec, objective, bundle)
            assert report.key_rate >= 0.0
        with pytest.raises(ValueError):
            optimize_at_distance(spec, "simplex", bundle)

    @pytest.mark.parametrize("presamples", [0, 512])
    def test_unsupported_user_count_raises_before_any_search(self, presamples, caplog):
        bundle = make_bundle(num_users=4, distance_km=50.0)
        spec = SearchSpec(presamples=presamples)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            with pytest.raises(ConfigError, match="3 users only"):
                optimize_at_distance(spec, "finite", bundle)
            with pytest.raises(ConfigError, match="3 users only"):
                scan_distances([50.0, 100.0], spec, "finite", bundle)
        assert not [r for r in caplog.records if r.name == "mfqcka.optimizer"]

    def test_warm_start_used(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=1, max_evals=150, presamples=8)
        seeded, _ = optimize_at_distance(
            SearchSpec(restarts=4, max_evals=800, presamples=256), "finite", bundle
        )
        _, report = optimize_at_distance(spec, "finite", bundle, initial=seeded)
        warm_rate = finite_rate(seeded, bundle.channel, bundle.security).key_rate_raw
        assert report.key_rate_raw >= warm_rate - 1e-18


class TestScanDistances:
    def test_single_distance_matches_point_optimization(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e13)
        spec = SearchSpec(restarts=2, max_evals=300, presamples=64)
        records = scan_distances([70.0], spec, "finite", bundle)
        shifted = type(bundle)(
            bundle.config, bundle.channel.with_distance(70.0), bundle.security
        )
        config, report = optimize_at_distance(spec, "finite", shifted)
        assert records[0].config == config
        assert records[0].report.key_rate_raw == report.key_rate_raw

    def test_rates_track_distance(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=3, max_evals=500, presamples=128)
        records = scan_distances([50.0, 100.0, 150.0], spec, "finite", bundle)
        rates = [r.report.key_rate for r in records]
        # optimized rate non-increasing in distance up to 5% optimizer noise
        assert all(b <= a * 1.05 for a, b in zip(rates, rates[1:]))
        assert all(r.config.num_users == 3 for r in records)

    def test_empty_distance_list_rejected(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            scan_distances([], SearchSpec(), "finite", bundle)


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
    def test_no_presamples(self, caplog):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=3, max_evals=100, presamples=0)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            config, report = optimize_at_distance(spec, "finite", bundle)
        telemetry = search_telemetry(caplog)
        assert telemetry["presamples"] == 0
        assert len(telemetry["restarts"]) == 1
        assert telemetry["evaluations"] == telemetry["restarts"][0]["evals"]
        validate(config, bundle.channel, bundle.security)
        assert report.key_rate_raw == -telemetry["restarts"][0]["best"]

    def test_more_restarts_than_starts(self, caplog):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        spec = SearchSpec(restarts=6, max_evals=80, presamples=2)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            optimize_at_distance(spec, "finite", bundle)
        telemetry = search_telemetry(caplog)
        assert len(telemetry["restarts"]) == 3  # the default start and both presamples
        assert telemetry["evaluations"] == 2 + sum(r["evals"] for r in telemetry["restarts"])

    def test_equals_restarts_run_one_at_a_time(self, caplog):
        bundle = make_bundle(distance_km=80.0, data_size=1e13)
        spec = SearchSpec(restarts=4, max_evals=300, presamples=48, seed=5)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            config, report = optimize_at_distance(spec, "finite", bundle)
        telemetry = search_telemetry(caplog)

        cost = scalar_cost(
            lambda x: finite_rate(_to_config(x, bundle.config), bundle.channel, bundle.security)
        )
        pool = _sample_starts(np.random.default_rng(spec.seed), spec.presamples, 3, spec)
        ranked = sorted(range(len(pool)), key=lambda i: (cost(pool[i]), i))
        starts = [_default_start(3, spec)] + [pool[i] for i in ranked[: spec.restarts - 1]]
        alone = [run_simplex(cost, start, spec, 3) for start in starts]

        # with the default tolerance the restarts stop in different rounds
        assert len({evals for _, _, evals, _ in alone}) > 1
        assert telemetry["rounds"] == max(evals for _, _, evals, _ in alone)
        assert [(r["evals"], r["stop"], r["best"]) for r in telemetry["restarts"]] == [
            (evals, stop, value) for _, value, evals, stop in alone
        ]
        best_x, best_value, _, _ = min(alone, key=lambda result: result[1])
        assert config == _to_config(best_x, bundle.config)
        assert report.key_rate_raw == -best_value

    @pytest.mark.parametrize("objective", ["asymptotic-decoy", "asymptotic-exact"])
    def test_reported_rate_is_the_best_cost(self, objective, caplog):
        bundle = make_bundle(num_users=4, distance_km=150.0)
        spec = SearchSpec(restarts=3, max_evals=120, presamples=32, seed=11)
        with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
            _, report = optimize_at_distance(spec, objective, bundle)
        best = min(r["best"] for r in search_telemetry(caplog)["restarts"])
        assert report.key_rate_raw == -best
        mode = objective.split("-")[1]
        assert report.mode == f"asymptotic-{mode}"


def test_telemetry_counts_infeasible_points_by_cause(caplog):
    # Negligible detector efficiency and no dark counts: no point has a
    # sifted signal, so every evaluation raises EstimationError when run
    # alone (the decoy bound fails before the adjacent error could raise
    # DegenerateChannelError), and the kernel counts it under that class.
    channel = ChannelParams(
        detector_efficiency=1e-300, dark_count_rate=0.0, fiber_alpha=0.16, distance_km=50.0
    )
    bundle = validate(make_config(3), channel, SecurityParams(data_size=1e12))
    spec = SearchSpec(restarts=2, max_evals=20, presamples=10)
    with pytest.raises(EstimationError):
        finite_rate(_to_config(_default_start(3, spec), bundle.config), channel, bundle.security)
    with caplog.at_level(logging.DEBUG, logger="mfqcka.optimizer"):
        with pytest.raises(EstimationError):
            optimize_at_distance(spec, "finite", bundle)
    telemetry = search_telemetry(caplog)
    assert telemetry["evaluations"] == 10 + sum(r["evals"] for r in telemetry["restarts"])
    assert telemetry["infeasible"] == {"EstimationError": telemetry["evaluations"]}
    assert all(r["best"] == math.inf for r in telemetry["restarts"])
    assert "EstimationError" in caplog.text


def test_telemetry_is_silent_above_debug(caplog):
    bundle = make_bundle(distance_km=50.0, data_size=1e14)
    with caplog.at_level(logging.INFO, logger="mfqcka.optimizer"):
        optimize_at_distance(SearchSpec(restarts=1, max_evals=20, presamples=4), "finite", bundle)
    assert not [r for r in caplog.records if r.name == "mfqcka.optimizer"]
