"""Detection-layer formulas: trivial limits, quadrature and sampling oracles."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfqcka.channel import arm_transmittance, error_terms, marginal_errors, pair_gains, total_efficiency
from mfqcka.model import DegenerateChannelError
from conftest import make_channel

ETA_T_50KM = 0.06101838790975287  # 0.385 * 10^-0.8


def sample_click_counts(k_a, k_b, dtheta, eta_t, p_d, trials, seed):
    """Independent detection sampler: Poissonian no-click per detector."""
    rng = np.random.default_rng(seed)
    mean = 0.5 * eta_t * (k_a + k_b)
    beat = eta_t * math.sqrt(k_a * k_b) * math.cos(dtheta)
    p_left = 1.0 - (1.0 - p_d) * math.exp(-(mean + beat))
    p_right = 1.0 - (1.0 - p_d) * math.exp(-(mean - beat))
    singles = wrong = 0
    for start in range(0, trials, 10**7):
        n = min(10**7, trials - start)
        left = rng.random(n) < p_left
        right = rng.random(n) < p_right
        single = left ^ right
        singles += int(single.sum())
        wrong += int((single & right).sum())
    return singles, wrong


def fixed_phase_gain(k_a, k_b, dtheta, eta_t, p_d):
    """Gain at phase difference dtheta: y [e^b + e^-b - 2y], b = eta_t sqrt(k_a k_b) cos(dtheta)."""
    y = (1.0 - p_d) * math.exp(-0.5 * eta_t * (k_a + k_b))
    b = eta_t * math.sqrt(k_a * k_b) * math.cos(dtheta)
    return y * (math.exp(b) + math.exp(-b) - 2.0 * y)


def adjacent_error(mu, eta_t, p_d):
    return error_terms(mu, 2, eta_t, p_d).adjacent[0]


def marginal_error(adjacent, j):
    return marginal_errors(np.array(adjacent), j)[-1]


def adjacent_error_decimal(mu, eta_t, p_d):
    """(e^-b - y) / (e^b + e^-b - 2y), y = (1 - p_d) e^-b, b = eta_t mu, in 50-digit decimal."""
    with localcontext() as ctx:
        ctx.prec = 50
        b = Decimal(eta_t) * Decimal(mu)
        wrong = (-b).exp()
        y = (1 - Decimal(p_d)) * wrong
        return (wrong - y) / (b.exp() + wrong - 2 * y)


class TestEfficiency:
    def test_zero_distance(self):
        assert total_efficiency(make_channel(0.0)) == pytest.approx(0.385, rel=1e-14)

    def test_100km(self):
        assert total_efficiency(make_channel(100.0)) == pytest.approx(
            0.009670762761311881, rel=1e-12
        )

    def test_250km(self):
        # 0.385 * 10^-4; direct evaluation of the formula
        assert total_efficiency(make_channel(250.0)) == pytest.approx(3.85e-5, rel=1e-12)

    def test_arm_transmittance(self):
        assert arm_transmittance(make_channel(100.0)) == pytest.approx(10**-1.6, rel=1e-14)


class TestGains:
    def test_no_light_no_darks(self):
        q_zero, q_avg = pair_gains(0.1, 0.1, 0.0, 0.0)
        assert q_zero == pytest.approx(0.0, abs=1e-15)
        assert q_avg == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("dtheta", [0.0])
    def test_vacuum_pair_reduces_to_dark_counts(self, dtheta):
        p_d = 3.03e-9
        expected = 2 * p_d * (1 - p_d)
        assert fixed_phase_gain(0.0, 0.0, dtheta, 0.2, p_d) == pytest.approx(expected, rel=1e-9)
        for q in pair_gains(0.0, 0.0, 0.2, p_d):
            assert q == pytest.approx(expected, rel=1e-9)

    def test_phase_average_zero_efficiency(self):
        p_d = 1e-3
        assert pair_gains(0.3, 0.2, 0.0, p_d)[1] == pytest.approx(2 * p_d * (1 - p_d), rel=1e-12)

    def test_one_sided_vacuum_branch(self):
        eta_t, p_d, k = 0.05, 1e-6, 0.3
        y = (1 - p_d) * math.exp(-0.5 * eta_t * k)
        assert pair_gains(k, 0.0, eta_t, p_d)[1] == pytest.approx(2 * y - 2 * y * y, rel=1e-12)

    @pytest.mark.parametrize("k_a,k_b", [(0.1, 0.1), (0.4, 0.05), (1.0, 0.3)])
    def test_quadrature_oracle(self, k_a, k_b):
        # midpoint rule over 10^4 uniform phase samples; periodic smooth
        # integrand, so the rule converges far below the 1e-10 tolerance
        eta_t, p_d = ETA_T_50KM, 3.03e-9
        grid = (np.arange(10**4) + 0.5) * (2 * math.pi / 10**4)
        mean = math.fsum(fixed_phase_gain(k_a, k_b, t, eta_t, p_d) for t in grid) / 10**4
        q_zero, q_avg = pair_gains(k_a, k_b, eta_t, p_d)
        assert q_avg == pytest.approx(mean, abs=1e-10)
        assert q_zero == pytest.approx(fixed_phase_gain(k_a, k_b, 0.0, eta_t, p_d), rel=1e-14)

    def test_monte_carlo_oracle_matched_signal(self):
        eta_t, p_d = 9.672e-3, 3.03e-9  # 100 km arm
        trials = 10**8
        q = pair_gains(0.1, 0.1, eta_t, p_d)[0]
        singles, _ = sample_click_counts(0.1, 0.1, 0.0, eta_t, p_d, trials, seed=101)
        z = (singles - trials * q) / math.sqrt(trials * q * (1 - q))
        assert abs(z) <= 5.0

    def test_bracket_nonnegative_and_bounded(self):
        for k_a in (0.0, 0.05, 0.5, 1.0):
            for k_b in (0.0, 0.1, 1.0):
                for distance in (0.0, 100.0, 400.0):
                    eta_t = total_efficiency(make_channel(distance))
                    for q in pair_gains(k_a, k_b, eta_t, 3.03e-9):
                        assert 0.0 <= q <= 1.0

    def test_monotone_in_distance_without_darks(self):
        values = [
            pair_gains(0.2, 0.1, total_efficiency(make_channel(d)), 0.0)[1]
            for d in np.linspace(0.0, 400.0, 21)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestAdjacentError:
    def test_noiseless_is_exact_zero(self):
        assert adjacent_error(0.1, 0.05, 0.0) == 0.0

    def test_dark_count_dominated_limit(self):
        assert adjacent_error(0.1, 1e-12, 1e-4) == pytest.approx(0.5, rel=1e-6)

    def test_range_on_physical_grid(self):
        for mu in (1e-3, 0.05, 0.3, 1.0):
            for d in (0.0, 50.0, 200.0, 400.0):
                e = adjacent_error(mu, total_efficiency(make_channel(d)), 3.03e-9)
                assert 0.0 <= e <= 0.5

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateChannelError):
            error_terms(1e-300, 2, 0.0, 0.0)

    def test_any_click_probability_has_an_error(self):
        # exp(b) + exp(-b) - 2y rounds to 0 here, but 2b = 2e-17 is a click probability
        assert adjacent_error(1e-17, 1.0, 0.0) == 0.0

    def test_matches_high_precision_oracle(self):
        worst = 0.0
        for d in range(0, 351, 10):
            eta_t = total_efficiency(make_channel(float(d)))
            for p_d in (3.03e-9, 1e-6, 1e-3):
                for mu in (1e-3, 0.02, 0.05, 0.2, 0.4, 1.0):
                    exact = adjacent_error_decimal(mu, eta_t, p_d)
                    got = Decimal(float(adjacent_error(mu, eta_t, p_d)))
                    worst = max(worst, float(abs(got - exact) / exact))
        assert worst <= 1e-15

    def test_monte_carlo_oracle_wrong_detector(self):
        # inflate the dark counts so the wrong-detector count is testable
        eta_t, p_d, mu = total_efficiency(make_channel(200.0)), 1e-3, 0.1
        e_expected = adjacent_error(mu, eta_t, p_d)
        q = pair_gains(mu, mu, eta_t, p_d)[0]
        trials = 10**8
        singles, wrong = sample_click_counts(mu, mu, 0.0, eta_t, p_d, trials, seed=7)
        z_q = (singles - trials * q) / math.sqrt(trials * q * (1 - q))
        z_e = (wrong - singles * e_expected) / math.sqrt(
            singles * e_expected * (1 - e_expected)
        )
        assert abs(z_q) <= 5.0
        assert abs(z_e) <= 5.0

    def test_paper_point_wrong_detector_within_5_sigma(self):
        # realistic dark counts at 200 km: the expected wrong-click count
        # over 10^8 trials is below one, so the 5-sigma Poisson envelope
        # amounts to seeing at most a handful of events
        eta_t, p_d, mu = total_efficiency(make_channel(200.0)), 3.03e-9, 0.1
        e_expected = adjacent_error(mu, eta_t, p_d)
        q = pair_gains(mu, mu, eta_t, p_d)[0]
        trials = 10**8
        singles, wrong = sample_click_counts(mu, mu, 0.0, eta_t, p_d, trials, seed=11)
        expected_wrong = trials * q * e_expected
        assert wrong <= expected_wrong + 5.0 * math.sqrt(expected_wrong) + 5.0


class TestMarginalError:
    def test_identity_at_two_users(self):
        assert marginal_error(0.037, 2) == pytest.approx(0.037, rel=1e-14)

    def test_zero_error_propagates(self):
        for j in range(2, 9):
            assert marginal_error(0.0, j) == 0.0

    def test_three_user_value(self):
        assert marginal_error(0.01, 3) == pytest.approx(0.0198, rel=1e-12)

    @pytest.mark.parametrize(
        "e", [0.0, 1e-15, 1e-12, 1e-9, 3e-8, 2.5e-7, 1e-5, 1e-3, 0.01, 0.137, 0.3, 0.49, 0.5]
    )
    def test_closed_form_matches_exact_odd_binomial_sum(self, e):
        # the odd-flip sum of C(j-1, o) E^o (1-E)^(j-1-o) in exact rationals
        q = Fraction(e)
        for j, value in enumerate(marginal_errors(np.array(e), 20), start=2):
            exact = sum(math.comb(j - 1, o) * q**o * (1 - q) ** (j - 1 - o) for o in range(1, j, 2))
            assert abs(Fraction(value) - exact) <= Fraction(5e-16) * exact, (j, value)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(e=st.floats(0.0, 0.5), num_users=st.integers(3, 20))
    def test_marginals_do_not_decrease_along_the_chain(self, e, num_users):
        marginals = marginal_errors(np.array(e), num_users)
        assert (np.diff(marginals) >= 0.0).all()
        assert 0.0 <= marginals[0] and marginals[-1] <= 0.5

    def test_exhaustive_parity_enumeration(self):
        # odd-parity mass of j-1 independent Bernoulli flips, enumerated
        for j in range(2, 9):
            links = j - 1
            for e in (0.0, 0.01, 0.2, 0.5):
                mass = 0.0
                for pattern in range(2**links):
                    flips = bin(pattern).count("1")
                    if flips % 2 == 1:
                        mass += e**flips * (1 - e) ** (links - flips)
                assert marginal_error(e, j) == pytest.approx(mass, abs=1e-14)
