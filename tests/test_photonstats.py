"""Photon-number statistics against an amplitude-level enumeration oracle."""

import functools
import math
import warnings

import numpy as np
import pytest

from mfqcka.channel import total_efficiency
from mfqcka.matching import _correction_factors, _count_matrix, _gain_rows, sifted_coincidences
from mfqcka.model import ConfigError, EstimationError, SecurityParams
from mfqcka.keyrate import asymptotic_rate
from mfqcka.photonstats import _parity_sums, _port_weight_sequence, phase_error_exact
from conftest import make_bundle, make_channel, make_config, make_geometric_config
import keyrate_oracles
import photonstats_oracles
from photonstats_oracles import nphoton_terms, pair_yield, port_weight_sequence, threshold_click_prob


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


# The loops cost about 0.4 s per channel at the oracle's cutoff; every user count shares them.
_loop_weights = functools.lru_cache(port_weight_sequence)


@pytest.mark.parametrize("num_users", [3, 4, 5, 6])
def test_exact_rate_matches_oracle_weights(num_users, monkeypatch):
    """The closed-form exact rate against the scalar rate oracle on the loop weights, summed to convergence."""
    config, sec = make_geometric_config(num_users), SecurityParams(data_size=1.0, ec_efficiency=1.1)
    channels = [make_channel(d) for d in (0.0, 50.0, 200.0, 350.0)]
    # the oracle's per-n terms from the loops; its cache must not keep them
    photonstats_oracles.composition_sums.cache_clear()
    monkeypatch.setattr(photonstats_oracles, "_port_weight_sequence", _loop_weights)
    try:
        for channel in channels:
            got = asymptotic_rate(config, channel, "exact")
            phi = photonstats_oracles.phase_error_exact(config, channel, sec)
            assert got.phase_error_upper == pytest.approx(phi, rel=1e-12)
            expected = keyrate_oracles.asymptotic_rate_raw(config, channel, "exact")
            assert got.key_rate_raw == pytest.approx(expected, rel=1e-12)
    finally:
        photonstats_oracles.composition_sums.cache_clear()


class TestSignalCoincidences:
    def test_vacuum_contribution_needs_dark_counts(self):
        bundle = make_bundle(distance_km=100.0, dark_count_rate=0.0)
        assert nphoton_terms(bundle.config, bundle.channel, bundle.security)[0] == 0.0

    @pytest.mark.parametrize("distance,tol", [(100.0, 0.01), (200.0, 0.01)])
    def test_sum_converges_to_sifted_signal(self, distance, tol):
        bundle = make_bundle(distance_km=distance)
        total = math.fsum(nphoton_terms(bundle.config, bundle.channel, bundle.security))
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
        total = math.fsum(nphoton_terms(config, channel, sec, n_max=40))
        s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
        assert 0.99 <= total / s_mu <= 1.01

    def test_two_photon_term_dominates_even_terms(self):
        bundle = make_bundle(distance_km=50.0)
        terms = nphoton_terms(bundle.config, bundle.channel, bundle.security)
        even = range(0, 13, 2)
        assert all(terms[2] > terms[n] for n in even if n != 2)


def oracle_sums(config, channel, data_size):
    """(sum_n s_n, good-parity sum) / s_mu of the oracle's per-n terms, and the package's two closed-form ratios.

    The oracle takes the package's count matrix, so only the
    photon-number sums are compared.
    """
    counts = _count_matrix(config, channel, data_size)
    sec = SecurityParams(data_size=data_size, ec_efficiency=1.1)
    terms = nphoton_terms(config, channel, sec, counts=counts.tolist())
    s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
    good = 1 if config.num_users % 2 == 0 else 0
    total, alternating = _parity_sums(
        counts[None], np.array([config.signal_intensity]), np.array([config.send_probabilities[0]]),
        config.phase_slices, total_efficiency(channel), channel.dark_count_rate, data_size,
    )
    closed_good = 0.5 * (total[0] - alternating[0] if good else total[0] + alternating[0])
    return (math.fsum(terms) / s_mu, math.fsum(terms[good::2]) / s_mu), (float(total[0]), float(closed_good))


@pytest.mark.parametrize("num_users", range(3, 21))
def test_closed_form_sums_match_the_per_n_terms(num_users):
    """Every parity and the good parity, against the per-n terms summed to convergence.

    Measured: at most 6.1e-15 relative, at N = 20, 50 km.
    """
    config = make_geometric_config(num_users)
    for distance in (0.0, 10.0, 50.0, 200.0, 350.0):
        (total, good), (closed_total, closed_good) = oracle_sums(config, make_channel(distance), 1e12)
        assert closed_total == pytest.approx(total, rel=1e-14, abs=0.0)
        assert closed_good == pytest.approx(good, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("num_users", [4, 6])
@pytest.mark.parametrize("signal", [1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
def test_closed_form_at_small_signals_and_high_loss(num_users, signal):
    """At 350 km the argument eta_t mu falls to 1e-10, below the dark-count rate.

    There e^(eta_t mu) I0(eta_t mu) - 1 written as it reads loses most of
    its digits.  Measured: at most 2.7e-15 relative.
    """
    config = make_config(
        num_users, signal=signal, decoys=tuple(signal * 0.5 ** (i + 1) for i in range(num_users - 1)) + (0.0,),
        probs=(0.5,) + (0.5 / num_users,) * num_users,
    )
    (total, good), (closed_total, closed_good) = oracle_sums(config, make_channel(350.0), 1e12)
    assert closed_total == pytest.approx(total, rel=1e-14, abs=0.0)
    assert closed_good == pytest.approx(good, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("num_users", range(3, 21))
def test_all_parity_ratio_is_the_gain_ratio_over_the_port_selection(num_users):
    """sum_n s_n / s_mu = (q_avg(mu, mu) / q_zero(mu, mu))^(N-1) / prod_j c_j(mu), not 1.

    The per-port photon-number weights use the phase-averaged gain where
    sifting keeps matched phases, and leave out the port-selection factor
    c_j of the count matrix.  Measured: the two sides agree to 3.1e-9
    relative (the 1 - y cancellation of ``pair_gains`` at 350 km), and the
    ratio differs from 1 by at least 2.3e-7 (N=3, 350 km), so the
    tolerance tells this identity from "the terms add up to s_mu".
    """
    config = make_geometric_config(num_users)
    ks, probs = np.array([config.intensities]), np.array([config.send_probabilities])
    for distance in (0.0, 10.0, 50.0, 200.0, 350.0):
        channel = make_channel(distance)
        eta_t, p_d = total_efficiency(channel), channel.dark_count_rate
        q_avg, q_zero = _gain_rows(ks, eta_t, p_d)
        selection = _correction_factors(probs, q_avg, num_users)[0, :, 0]
        expected = (q_avg[0, 0, 0] / q_zero[0, 0]) ** (num_users - 1) / np.multiply.reduce(selection)
        total, _ = _parity_sums(
            _count_matrix(config, channel, 1e12)[None], ks[:, 0], probs[:, 0], config.phase_slices, eta_t, p_d, 1e12
        )
        assert total[0] == pytest.approx(expected, rel=1e-8, abs=0.0)
        assert total[0] != pytest.approx(1.0, rel=1e-8, abs=0.0)


class TestPhaseErrorExact:
    @pytest.mark.parametrize(
        "config, distance",
        [
            *(pytest.param(make_config(n), d, id=f"{d}-{n}") for d in (50.0, 200.0) for n in (4, 5)),
            *(pytest.param(make_geometric_config(n), 200.0, id=f"geometric-{n}") for n in range(3, 21)),
        ],
    )
    def test_converged_at_default_truncation_more_users(self, config, distance):
        # the closed form has no cutoff: it is the oracle's sum at a cutoff that has converged
        channel, sec = make_channel(distance), SecurityParams(data_size=1e12, ec_efficiency=1.1)
        phi = phase_error_exact(config, channel, sec)
        assert abs(phi - photonstats_oracles.phase_error_exact(config, channel, sec)) <= 1e-10

    def test_large_signal(self):
        # the per-n sum needs a cutoff past 60 photons here, and overflows at signal 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = make_bundle(signal=5.0)
            phi = phase_error_exact(bundle.config, bundle.channel, bundle.security)
            assert phi == pytest.approx(0.398100583, abs=5e-10)
            assert phi == pytest.approx(
                photonstats_oracles.phase_error_exact(bundle.config, bundle.channel, bundle.security, n_max=120),
                abs=1e-12,
            )
            bundle = make_bundle(signal=20.0)
            assert 0.0 <= phase_error_exact(bundle.config, bundle.channel, bundle.security) <= 1.0

    @pytest.mark.parametrize("num_users", [4, 20])
    def test_does_not_depend_on_the_data_size(self, num_users):
        # N_bins^P and the product of the slice-set totals would overflow
        config, channel = make_geometric_config(num_users), make_channel(50.0)
        phis = [
            phase_error_exact(config, channel, SecurityParams(data_size=n_bins, ec_efficiency=1.1))
            for n_bins in (1e12, 1e200, 1e300)
        ]
        assert all(math.isfinite(phi) for phi in phis)
        assert phis == pytest.approx([phis[0]] * 3, abs=1e-14)

    @pytest.mark.parametrize(
        "signal, decoys, probs",
        [
            pytest.param(0.01, (0.05, 0.1, 0.0), (0.4, 0.3, 0.2, 0.1), id="not-decreasing"),
            pytest.param(0.4, (0.1, 0.01, 0.001), (0.4, 0.3, 0.2, 0.1), id="no-vacuum"),
            pytest.param(0.4, (0.1, 0.01, 0.0), (0.5, 0.3, 0.2, 0.0), id="zero-probability"),
        ],
    )
    def test_a_ladder_that_breaks_the_rule_raises(self, signal, decoys, probs):
        # each ladder has sifted signal coincidences, so the ladder rule, not the no-signal check, raises
        config = make_config(3, signal=signal, decoys=decoys, probs=probs)
        with pytest.raises(ConfigError, match="strictly decreasing to the vacuum"):
            phase_error_exact(config, make_channel(50.0), SecurityParams(data_size=1e12))

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
        even = math.fsum(nphoton_terms(bundle.config, bundle.channel, sec)[0::2])
        phi = phase_error_exact(bundle.config, bundle.channel, sec)
        assert phi == pytest.approx(1.0 - even / s_mu, abs=1e-12)
