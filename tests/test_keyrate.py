"""Key-rate assembly: bounds, orderings, clamping, convergence."""

import dataclasses
import math

import pytest

import matching_oracles
from mfqcka.keyrate import asymptotic_rate, finite_rate, multicast_bound
from mfqcka.matching import _count_matrix
from mfqcka.model import ConfigError
from mfqcka.special_math import binary_entropy
from conftest import make_bundle, make_channel, make_geometric_config


class TestMulticastBound:
    def test_frozen_values(self):
        assert multicast_bound(make_channel(100.0)) == pytest.approx(
            0.0009105663263677886, rel=1e-12
        )
        assert multicast_bound(make_channel(250.0)) == pytest.approx(
            1.4426950481024389e-08, rel=1e-12
        )
        # coarse cross-check against the documented magnitudes
        assert multicast_bound(make_channel(100.0)) == pytest.approx(9.10e-4, rel=0.01)
        assert multicast_bound(make_channel(250.0)) == pytest.approx(1.45e-8, rel=0.01)

    def test_unbounded_at_zero_distance(self):
        assert multicast_bound(make_channel(0.0)) == math.inf

    def test_unbounded_when_loss_rounds_away(self):
        lossless = dataclasses.replace(make_channel(50.0), fiber_alpha=1e-300)
        assert multicast_bound(lossless) == math.inf

    def test_strictly_decreasing(self):
        values = [multicast_bound(make_channel(d)) for d in range(1, 400, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_vanishes_with_channel(self):
        assert multicast_bound(make_channel(2000.0)) == pytest.approx(0.0, abs=1e-15)


class TestAsymptoticRate:
    def test_modes_agree_on_ordering(self):
        bundle = make_bundle(distance_km=120.0)
        decoy = asymptotic_rate(bundle.config, bundle.channel, "decoy")
        exact = asymptotic_rate(bundle.config, bundle.channel, "exact")
        assert decoy.key_rate <= exact.key_rate * (1 + 1e-12)
        assert decoy.phase_error_upper >= exact.phase_error_upper - 1e-12

    def test_report_recomputes_from_components(self):
        bundle = make_bundle(distance_km=80.0)
        report = asymptotic_rate(bundle.config, bundle.channel, "decoy")
        worst_h = max(binary_entropy(e) for e in report.marginal_errors)
        bracket = 1.0 - binary_entropy(report.phase_error_upper) - 1.1 * worst_h
        assert report.key_rate_raw == pytest.approx(report.sifted_signal * bracket, rel=1e-12)

    def test_rate_decreases_when_phase_error_grows(self):
        # recompute the bracket at a shifted phase error: the documented
        # monotonicity of the assembly in phi
        bundle = make_bundle(distance_km=80.0)
        report = asymptotic_rate(bundle.config, bundle.channel, "decoy")
        phi = report.phase_error_upper
        worst_h = max(binary_entropy(e) for e in report.marginal_errors)
        for delta in (0.02, 0.1, 0.2):
            shifted = 1.0 - binary_entropy(min(phi + delta, 0.5)) - 1.1 * worst_h
            assert report.sifted_signal * shifted <= report.key_rate_raw + 1e-15

    def test_saturated_phase_error_clamps_rate(self):
        # large signal intensity drives the decoy phase error past 1/2
        bundle = make_bundle(distance_km=50.0, signal=0.4)
        report = asymptotic_rate(bundle.config, bundle.channel, "decoy")
        assert report.phase_error_upper >= 0.5
        assert report.key_rate == 0.0
        assert report.key_rate_raw < 0.0

    def test_mode_validation(self):
        bundle = make_bundle()
        with pytest.raises(ValueError):
            asymptotic_rate(bundle.config, bundle.channel, "bogus")

    def test_decoy_mode_needs_supported_user_count(self):
        bundle = make_bundle(num_users=5)
        config = type(bundle.config)(
            num_users=6,
            signal_intensity=0.1,
            decoy_intensities=(0.07, 0.03, 0.012, 0.005, 0.002, 0.0),
            send_probabilities=(0.3, 0.2, 0.15, 0.13, 0.1, 0.07, 0.05),
            phase_slices=16,
        )
        with pytest.raises(ConfigError):
            asymptotic_rate(config, bundle.channel, "decoy")

    @pytest.mark.parametrize("num_users", [6, 7, 8])
    def test_exact_mode_beyond_five_users(self, num_users):
        config = make_geometric_config(num_users)
        channel = make_channel(50.0)
        report = asymptotic_rate(config, channel, "exact")
        assert math.isfinite(report.key_rate_raw)
        assert math.isfinite(report.key_rate) and report.key_rate >= 0.0
        assert report.params_used.num_users == num_users
        if num_users == 6:
            expected = matching_oracles.count_matrix(config, channel, 1.0)
            got = _count_matrix(config, channel, 1.0)
            for got_row, expected_row in zip(got, expected):
                assert got_row == pytest.approx(expected_row, rel=1e-12, abs=0.0)


def test_crossover_window_above_multicast_bound():
    # with tuned parameters the three-user asymptotic rate stays above
    # the bound across a 30 km window, not just at one witness point
    from mfqcka.optimizer import SearchSpec, optimize_at_distance

    bundle = make_bundle(distance_km=300.0, data_size=1e14)
    spec = SearchSpec(restarts=3, max_evals=600, seed=17)
    config = optimize_at_distance(spec, "asymptotic", bundle).params_used
    for distance in (290.0, 300.0, 310.0, 320.0):
        channel = make_channel(distance)
        rep = asymptotic_rate(config, channel, "decoy", ec_efficiency=1.1)
        assert rep.key_rate > multicast_bound(channel)


class TestFiniteRate:
    def test_three_users_only(self):
        bundle = make_bundle(num_users=4)
        with pytest.raises(ConfigError):
            finite_rate(bundle.config, bundle.channel, bundle.security)

    def test_below_asymptotic(self):
        bundle = make_bundle(distance_km=100.0, data_size=1e13)
        fin = finite_rate(bundle.config, bundle.channel, bundle.security)
        asy = asymptotic_rate(
            bundle.config, bundle.channel, "decoy", ec_efficiency=1.1
        )
        assert fin.key_rate_raw <= asy.key_rate_raw + 1e-15

    def test_converges_to_asymptotic(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e22)
        fin = finite_rate(bundle.config, bundle.channel, bundle.security)
        asy = asymptotic_rate(bundle.config, bundle.channel, "decoy", ec_efficiency=1.1)
        assert fin.key_rate == pytest.approx(asy.key_rate, rel=1e-4)

    def test_clamped_rate_keeps_raw_value(self):
        bundle = make_bundle(distance_km=320.0, data_size=1e11)
        report = finite_rate(bundle.config, bundle.channel, bundle.security)
        assert report.key_rate == 0.0
        assert report.key_rate_raw < 0.0

    def test_correction_terms_and_budget(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        report = finite_rate(bundle.config, bundle.channel, bundle.security)
        n = bundle.security.data_size
        expected = (
            math.log2(4.0 / bundle.security.eps_ec)
            + 2.0 * math.log2(1.0 / (2.0 * bundle.security.eps_pa))
        ) / n
        assert report.correction_bits == pytest.approx(expected, rel=1e-12)
        assert report.chernoff_applications == 6
        assert report.failure_budget == pytest.approx(6e-10, rel=1e-12)

    def test_report_carries_intermediates(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e14)
        report = finite_rate(bundle.config, bundle.channel, bundle.security)
        assert set(report.sifted) == set(bundle.config.intensities)
        assert set(report.s_mu_n_lower) == {0, 2}
        assert report.params_used == bundle.config
        assert len(report.marginal_errors) == 2
        assert report.worst_marginal_error == max(report.marginal_errors)
        assert report.worst_marginal_error == report.marginal_errors[-1]
