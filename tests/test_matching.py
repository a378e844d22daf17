"""Coincidence-matching statistics: expansion, symmetry and scaling checks."""

import math

import numpy as np
import pytest

import keyrate_oracles
import matching_oracles
from mfqcka.channel import pair_gains, total_efficiency
from mfqcka.matching import (
    _correction_factors,
    _count_matrix,
    _gain_rows,
    _port_totals,
    _unit_gauss_legendre,
    expected_stats,
    sifted_coincidences,
)
from mfqcka.model import SecurityParams
from conftest import (
    DARK_COUNT_RATE,
    DECOYS,
    make_bundle,
    make_channel,
    make_config,
    make_geometric_config,
)


def three_user_retained_oracle(k, j, config, channel, data_size):
    """Independent N=3 expansion: (4N p_k^2 q0 / M^2) sum_w p_w (1 - q_w/2).

    For port 1 the spectator is user 3 on port 2 (intensities (k, k_w));
    for port 2 the spectator is user 1 on port 1 ((k_w, k)).
    """
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    idx = config.intensities.index(k)
    p_k = config.send_probabilities[idx]
    q0 = pair_gains(k, k, eta_t, p_d)[0]
    mixture = 0.0
    for k_w, p_w in zip(config.intensities, config.send_probabilities):
        pair = (k, k_w) if j == 1 else (k_w, k)
        mixture += p_w * (1.0 - 0.5 * pair_gains(*pair, eta_t, p_d)[1])
    m = config.phase_slices
    return 4.0 * data_size * p_k**2 * q0 / m**2 * mixture


def retained(bundle, sec=None):
    """Expected retained clicks per slice by (intensity, port), read from ``expected_stats``."""
    stats = expected_stats(bundle.config, bundle.channel, sec or bundle.security)
    counts = stats.retained_clicks.tolist()
    return {(k, j + 1): n for k, row in zip(bundle.config.intensities, counts) for j, n in enumerate(row)}


def slice_totals(bundle):
    """Expected size of one slice set by port, as the sifted formula totals the retained clicks."""
    counts = np.array([_count_matrix(bundle.config, bundle.channel, bundle.security.data_size)])
    return dict(enumerate(_port_totals(counts)[0][0].tolist(), 1))


class TestRetainedClicks:
    def test_matches_three_user_expansion(self):
        bundle = make_bundle(distance_km=50.0, data_size=1e12)
        got = retained(bundle)
        for k in bundle.config.intensities:
            for j in (1, 2):
                expected = three_user_retained_oracle(
                    k, j, bundle.config, bundle.channel, bundle.security.data_size
                )
                assert got[(k, j)] == pytest.approx(expected, rel=1e-12)

    def test_zero_probability_never_sent(self):
        # vacuum retained clicks vanish when dark counts are off
        bundle = make_bundle(distance_km=50.0, dark_count_rate=0.0)
        assert retained(bundle)[(0.0, 1)] == 0.0

    def test_port_symmetry(self):
        bundle = make_bundle(distance_km=75.0)
        got = retained(bundle)
        for k in bundle.config.intensities:
            assert got[(k, 1)] == pytest.approx(got[(k, 2)], rel=1e-12)

    def test_linearity_in_data_size(self):
        bundle = make_bundle(distance_km=120.0, data_size=2.5e11)
        base = retained(bundle)
        scaled = retained(bundle, SecurityParams(data_size=4 * bundle.security.data_size))
        for k in bundle.config.intensities:
            assert scaled[(k, 1)] == 4.0 * base[(k, 1)]  # power-of-two scale: bit exact

    def test_correction_factor_in_unit_interval(self):
        for num_users in (3, 4, 5):
            for distance in (0.0, 50.0, 200.0, 350.0):
                config = make_config(num_users)
                channel = make_channel(distance)
                ks = np.array([config.intensities])
                probs = np.array([config.send_probabilities])
                q_avg, _ = _gain_rows(ks, total_efficiency(channel), channel.dark_count_rate)
                factors = _correction_factors(probs, q_avg, num_users)
                assert factors.shape == (1, num_users - 1, len(config.intensities))
                for value in factors.flat:
                    assert 0.0 < value <= 1.0


def _random_config(num_users, rng):
    nonzero = np.sort(rng.uniform(0.001, 0.5, num_users))[::-1]
    probs = rng.dirichlet(np.ones(num_users + 1))
    return make_config(
        num_users,
        signal=float(nonzero[0]),
        decoys=tuple(float(x) for x in nonzero[1:]) + (0.0,),
        probs=tuple(float(p) for p in probs),
    )


def _assert_matches_enumeration(config, channel, data_size=1e12):
    got = np.array(_count_matrix(config, channel, data_size))
    expected = np.array(matching_oracles.count_matrix(config, channel, data_size))
    assert got.shape == expected.shape
    zero = expected == 0.0
    assert np.all(got[zero] == 0.0)
    assert np.all(np.abs(got - expected)[~zero] <= 1e-12 * np.abs(expected[~zero]))


@pytest.mark.parametrize("num_users", [3, 4, 5, 6])
def test_transfer_matrix_matches_enumeration(num_users):
    configs = [make_geometric_config(num_users)]
    if num_users in DECOYS:
        configs.append(make_config(num_users))
    for config in configs:
        for distance in (0.0, 50.0, 200.0, 350.0):
            _assert_matches_enumeration(config, make_channel(distance))
    rng = np.random.default_rng(3000 + num_users)
    for trial in range(50):
        # every other ladder without dark counts, where the vacuum entries are exactly 0
        dark = 0.0 if trial % 2 else DARK_COUNT_RATE
        channel = make_channel(float(rng.uniform(0.0, 350.0)), dark_count_rate=dark)
        _assert_matches_enumeration(_random_config(num_users, rng), channel)


def test_gauss_legendre_rule_matches_leggauss():
    # n = 1..128 nodes cover every simulated N (up to 256 users).  numpy 1.x
    # groups legval's terms differently, so allow a few ulp, not bit identity.
    for n in range(1, 129):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        t, w = _unit_gauss_legendre(n)
        np.testing.assert_array_max_ulp(t, 0.5 * (nodes + 1.0), maxulp=4)
        np.testing.assert_array_max_ulp(w, 0.5 * weights, maxulp=4)


class TestSliceTotal:
    def test_sum_over_intensities(self):
        bundle = make_bundle(num_users=4, distance_km=60.0)
        got = retained(bundle)
        parts = [got[(k, 2)] for k in bundle.config.intensities]
        assert slice_totals(bundle)[2] == pytest.approx(math.fsum(parts), rel=1e-15)

    def test_degenerate_mixture(self):
        # push nearly all probability onto the signal: the slice total is
        # then dominated by that intensity's retained clicks
        bundle = make_bundle(probs=(0.997, 0.001, 0.001, 0.001))
        assert retained(bundle)[(0.1, 1)] / slice_totals(bundle)[1] > 0.99


class TestSifted:
    def test_symmetric_collapse(self):
        bundle = make_bundle(distance_km=50.0)
        config, channel, sec = bundle.config, bundle.channel, bundle.security
        m = config.phase_slices
        n0 = slice_totals(bundle)[1]
        got = retained(bundle)
        for k in config.intensities:
            n_k = got[(k, 1)]
            expected = 0.5 * m * n0 * (n_k / n0) ** (config.num_users - 1)
            assert sifted_coincidences(k, config, channel, sec) == pytest.approx(
                expected, rel=1e-12
            )

    def test_empty_factor_gives_zero(self):
        bundle = make_bundle(dark_count_rate=0.0)
        assert sifted_coincidences(0.0, bundle.config, bundle.channel, bundle.security) == 0.0

    def test_bounded_by_min_slice_count(self):
        bundle = make_bundle(num_users=4, distance_km=100.0)
        config, channel, sec = bundle.config, bundle.channel, bundle.security
        n_min = min(slice_totals(bundle).values())
        cap = 0.5 * config.phase_slices * n_min
        total = 0.0
        for k in config.intensities:
            s_k = sifted_coincidences(k, config, channel, sec)
            assert s_k <= cap * (1 + 1e-12)
            total += s_k
        # symmetric configuration: per-port fractions share one distribution
        assert total <= cap * (1 + 1e-12)


class TestExpectedStats:
    def test_bundle_is_consistent(self):
        bundle = make_bundle(num_users=5, distance_km=80.0)
        stats = expected_stats(bundle.config, bundle.channel, bundle.security)
        config = bundle.config
        assert stats.retained_clicks.shape == (len(config.intensities), config.num_users - 1)
        assert stats.sifted.shape == (len(config.intensities),)
        adjacent = keyrate_oracles.error_terms(config, bundle.channel)[0]
        assert stats.adjacent_error == pytest.approx(adjacent, rel=1e-12)
