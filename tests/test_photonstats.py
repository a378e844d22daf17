"""Photon-number statistics against an amplitude-level enumeration oracle."""

import math

import pytest

from mfqcka.matching import sifted_coincidences
from mfqcka.model import EstimationError, SecurityParams
from mfqcka import photonstats
from mfqcka.keyrate import asymptotic_rate
from mfqcka.photonstats import _port_weight_sequence, phase_error_exact, signal_coincidences_nphoton
from conftest import make_bundle, make_channel, make_config, make_geometric_config
from photonstats_oracles import pair_yield, port_weight_sequence, threshold_click_prob


def splitter_output_distribution(f, g):
    """P(a photons left, f+g-a right) from the interference amplitudes.

    A balanced splitter maps the inputs to (c +/- d)/sqrt(2); the
    amplitude of |a, n-a> follows from expanding the creation-operator
    product, signs included.
    """
    n = f + g
    probs = []
    for a in range(n + 1):
        amp = 0.0
        for fp in range(max(0, a - g), min(f, a) + 1):
            gp = a - fp
            amp += math.comb(f, fp) * math.comb(g, gp) * (-1.0) ** (g - gp)
        amp *= math.sqrt(
            math.factorial(a) * math.factorial(n - a) / (2**n * math.factorial(f) * math.factorial(g))
        )
        probs.append(amp * amp)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    return probs


def yield_oracle(l, r, eta_t, p_d):
    """Exhaustive loss tree + splitter amplitudes + threshold detectors."""
    total = 0.0
    for f in range(l + 1):
        w_f = math.comb(l, f) * eta_t**f * (1 - eta_t) ** (l - f)
        for g in range(r + 1):
            w_g = math.comb(r, g) * eta_t**g * (1 - eta_t) ** (r - g)
            for a, p_out in enumerate(splitter_output_distribution(f, g)):
                b = f + g - a
                click_a = 1.0 if a > 0 else p_d
                click_b = 1.0 if b > 0 else p_d
                noclick_a = 0.0 if a > 0 else 1.0 - p_d
                noclick_b = 0.0 if b > 0 else 1.0 - p_d
                total += w_f * w_g * p_out * (click_a * noclick_b + noclick_a * click_b)
    return total


class TestThresholdClickProb:
    def test_vacuum(self):
        p_d = 3.03e-9
        assert threshold_click_prob(0, 0, p_d) == pytest.approx(2 * p_d * (1 - p_d), rel=1e-12)

    def test_single_photon(self):
        assert threshold_click_prob(1, 0, 0.01) == pytest.approx(0.99, rel=1e-12)

    def test_two_photon_bunching(self):
        # Hong-Ou-Mandel: both photons exit one side, so one detector
        # always fires alone
        assert threshold_click_prob(1, 1, 0.01) == pytest.approx(0.99, rel=1e-12)

    def test_symmetry_and_range(self):
        for f in range(6):
            for g in range(6):
                p = threshold_click_prob(f, g, 1e-3)
                assert p == threshold_click_prob(g, f, 1e-3)
                assert 0.0 <= p <= 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            threshold_click_prob(-1, 0, 0.0)


class TestPairYield:
    def test_vacuum(self):
        p_d = 1e-4
        assert pair_yield(0, 0, 0.3, p_d) == pytest.approx(2 * p_d * (1 - p_d), rel=1e-12)

    def test_lossless_single_photon(self):
        assert pair_yield(1, 0, 1.0, 0.01) == pytest.approx(0.99, rel=1e-12)

    @pytest.mark.parametrize("eta_t,p_d", [(0.385, 0.0), (0.385, 1e-3), (0.05, 3.03e-9)])
    def test_outcome_tree_oracle_up_to_four_photons(self, eta_t, p_d):
        for l in range(5):
            for r in range(5 - l):
                assert pair_yield(l, r, eta_t, p_d) == pytest.approx(
                    yield_oracle(l, r, eta_t, p_d), rel=1e-12, abs=1e-15
                )

    def test_monotone_in_efficiency_single_photon_cases(self):
        # Monotonicity in eta_t only holds while bunching cannot spoil the
        # click: with two photons on one arm, full transmission yields a
        # single click half the time, whereas losing one photon yields it
        # always, so e.g. Y(2,0) peaks at intermediate efficiency.
        etas = [0.01 * i for i in range(1, 100)]
        for l, r in ((1, 0), (0, 1), (1, 1)):
            values = [pair_yield(l, r, eta, 0.0) for eta in etas]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_bunching_breaks_monotonicity(self):
        assert pair_yield(2, 0, 0.5, 0.0) > pair_yield(2, 0, 1.0, 0.0)


class TestPortWeights:
    @pytest.mark.parametrize("p_d", [0.0, 3.03e-9, 1e-3, 0.1])
    def test_closed_form_matches_loops(self, p_d):
        for eta_t in (0.0, 1e-6, 1e-3, 0.05, 0.385, 0.9, 1.0):
            # the loops' w[m] does not depend on n_max, so one sequence serves all three
            expected = port_weight_sequence(eta_t, p_d, 40)
            for n_max in (5, 20, 40):
                got = _port_weight_sequence(eta_t, p_d, n_max)
                assert len(got) == n_max + 1
                for w, ref in zip(got, expected):
                    if ref == 0.0:
                        assert w == 0.0
                    else:
                        assert w == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("num_users", [3, 4, 5, 6])
def test_exact_rate_matches_oracle_weights(num_users, monkeypatch):
    config = make_geometric_config(num_users)
    channels = [make_channel(d) for d in (0.0, 50.0, 200.0, 350.0)]
    photonstats._composition_sums.cache_clear()
    closed = [asymptotic_rate(config, channel, "exact") for channel in channels]
    # the same rates assembled from the loop weights; the caches must not keep them
    photonstats._composition_sums.cache_clear()
    monkeypatch.setattr(
        photonstats, "_port_weight_sequence", port_weight_sequence
    )
    try:
        looped = [asymptotic_rate(config, channel, "exact") for channel in channels]
    finally:
        photonstats._composition_sums.cache_clear()
    for got, expected in zip(closed, looped):
        assert got.phase_error_upper == pytest.approx(expected.phase_error_upper, rel=1e-12)
        assert got.key_rate_raw == pytest.approx(expected.key_rate_raw, rel=1e-12)


class TestSignalCoincidences:
    def test_vacuum_contribution_needs_dark_counts(self):
        bundle = make_bundle(distance_km=100.0, dark_count_rate=0.0)
        assert signal_coincidences_nphoton(
            0, bundle.config, bundle.channel, bundle.security
        ) == 0.0

    @pytest.mark.parametrize("distance,tol", [(100.0, 0.01), (200.0, 0.01)])
    def test_sum_converges_to_sifted_signal(self, distance, tol):
        bundle = make_bundle(distance_km=distance)
        total = math.fsum(
            signal_coincidences_nphoton(n, bundle.config, bundle.channel, bundle.security)
            for n in range(21)
        )
        s_mu = sifted_coincidences(
            bundle.config.signal_intensity, bundle.config, bundle.channel, bundle.security
        )
        assert 1.0 - tol <= total / s_mu <= 1.0 + tol

    @pytest.mark.xfail(
        strict=True,
        reason="the per-port photon-number weights leave out the 1/(l+1) port-selection "
        "correction of the count matrix; the sum is 1.156 s_mu at N=6, 50 km",
    )
    def test_sum_matches_sifted_signal_six_users(self):
        config, channel = make_geometric_config(6), make_channel(50.0)
        sec = SecurityParams(data_size=1e12, ec_efficiency=1.1)
        total = math.fsum(
            signal_coincidences_nphoton(n, config, channel, sec, n_max=40) for n in range(41)
        )
        s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
        assert 0.99 <= total / s_mu <= 1.01

    def test_two_photon_term_dominates_even_terms(self):
        bundle = make_bundle(distance_km=50.0)
        terms = {
            n: signal_coincidences_nphoton(n, bundle.config, bundle.channel, bundle.security)
            for n in range(0, 13, 2)
        }
        assert all(terms[2] > terms[n] for n in terms if n != 2)


# The photon-number sum stops at photonstats.N_MAX = 20 whatever the number of
# users, so past five users the exact phase error is a truncated upper bound.
_CUTOFF_NOT_CONVERGED = pytest.mark.xfail(
    strict=True,
    reason="the photon-number cutoff N_MAX = 20 does not converge past 5 users: at 200 km "
    "|phi(20) - phi(40)| is 4.3e-10 at N=6, 1.1e-2 at N=12 and 0.50 at N=20",
)


class TestPhaseErrorExact:
    def test_monotone_in_truncation(self):
        bundle = make_bundle(distance_km=150.0)
        phis = [
            phase_error_exact(bundle.config, bundle.channel, bundle.security, n_max=n)
            for n in (6, 8, 12, 16, 20)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(phis, phis[1:]))

    def test_converged_at_default_truncation(self):
        bundle = make_bundle(distance_km=200.0)
        phi20 = phase_error_exact(bundle.config, bundle.channel, bundle.security, n_max=20)
        phi24 = phase_error_exact(bundle.config, bundle.channel, bundle.security, n_max=24)
        assert abs(phi20 - phi24) <= 1e-10

    @pytest.mark.parametrize(
        "config, distance",
        [
            *(pytest.param(make_config(n), d, id=f"{d}-{n}") for d in (50.0, 200.0) for n in (4, 5)),
            *(
                pytest.param(
                    make_geometric_config(n), 200.0, id=f"geometric-{n}",
                    marks=[_CUTOFF_NOT_CONVERGED] if n >= 6 else [],
                )
                for n in range(3, 21)
            ),
        ],
    )
    def test_converged_at_default_truncation_more_users(self, config, distance):
        channel, sec = make_channel(distance), SecurityParams(data_size=1e12, ec_efficiency=1.1)
        phi20 = phase_error_exact(config, channel, sec, n_max=20)
        phi40 = phase_error_exact(config, channel, sec, n_max=40)
        assert abs(phi20 - phi40) <= 1e-10

    def test_requires_room_for_all_users(self):
        bundle = make_bundle(num_users=5)
        with pytest.raises(ValueError):
            phase_error_exact(bundle.config, bundle.channel, bundle.security, n_max=4)

    def test_no_coincidences_raises(self):
        bundle = make_bundle(distance_km=0.0, dark_count_rate=0.0)
        channel = type(bundle.channel)(0.0, 0.0, 0.16, 0.0)  # dead detectors
        with pytest.raises(EstimationError):
            phase_error_exact(bundle.config, channel, bundle.security)

    def test_three_user_phase_error_is_odd_mass(self):
        bundle = make_bundle(distance_km=150.0)
        sec = bundle.security
        s_mu = sifted_coincidences(
            bundle.config.signal_intensity, bundle.config, bundle.channel, sec
        )
        even = math.fsum(
            signal_coincidences_nphoton(n, bundle.config, bundle.channel, sec, n_max=20)
            for n in range(0, 21, 2)
        )
        phi = phase_error_exact(bundle.config, bundle.channel, sec, n_max=20)
        assert phi == pytest.approx(1.0 - even / s_mu, abs=1e-12)
