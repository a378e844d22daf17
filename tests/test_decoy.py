"""Decoy-state bounds: synthetic photon-number models and soundness sweeps."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfqcka.decoy import (
    ObservedCounts,
    bounds_3user_asymptotic,
    bounds_3user_finite,
    bounds_4user_asymptotic,
    bounds_5user_asymptotic,
    _chernoff_sides,
    _observed_lower,
)
from mfqcka.keyrate import asymptotic_rate
from mfqcka.matching import sifted_coincidences
from mfqcka.model import ConfigError, EstimationError, SecurityParams
from conftest import PROBS, make_bundle
import decoy_oracles
from photonstats_oracles import nphoton_terms
from test_acceptance import GRID_SIGNALS

BETA_1E10 = math.log(1e10)


def synthetic_counts(num_users, intensities, probabilities, s_n):
    """Exact sifted counts implied by a photon-number decomposition.

    t_k = sum_n (k/mu)^n s_n defines the normalized counts; inverting the
    normalization gives the raw s_k that an experiment would observe.
    """
    mu = intensities[0]
    c = 2 * (num_users - 1)
    sifted = {}
    for k in intensities:
        t_k = math.fsum((k / mu) ** n * s for n, s in enumerate(s_n))
        factor = math.exp(c * (k - mu)) * (probabilities[mu] / probabilities[k]) ** c
        sifted[k] = t_k / factor
    return ObservedCounts(sifted=sifted, probabilities=probabilities, num_users=num_users)


def poisson_tail(mean, size, scale=1e8):
    return [scale * math.exp(-mean) * mean**n / math.factorial(n) for n in range(size)]


INTENSITIES = {
    3: (0.1, 0.05, 0.01, 0.0),
    4: (0.1, 0.06, 0.02, 0.008, 0.0),
    5: (0.1, 0.07, 0.03, 0.012, 0.005, 0.0),
}
ESTIMATORS = {
    3: (bounds_3user_asymptotic, (0, 2)),
    4: (bounds_4user_asymptotic, (1, 3)),
    5: (bounds_5user_asymptotic, (0, 2, 4)),
}


def observed_of(num_users, s_n):
    ks = INTENSITIES[num_users]
    probs = dict(zip(ks, PROBS[num_users]))
    return synthetic_counts(num_users, ks, probs, s_n)


def model_observed(bundle):
    config = bundle.config
    sifted = {
        k: sifted_coincidences(k, config, bundle.channel, bundle.security)
        for k in config.intensities
    }
    probs = dict(zip(config.intensities, config.send_probabilities))
    return ObservedCounts(sifted=sifted, probabilities=probs, num_users=config.num_users)


class TestChernoff:
    def test_zero_count_collapse(self):
        lower, upper = _chernoff_sides(np.asarray(0.0), BETA_1E10)
        assert lower == 0.0
        assert upper == pytest.approx(2 * BETA_1E10, rel=1e-12)

    def test_frozen_example(self):
        lower, upper = _chernoff_sides(np.asarray(100.0), BETA_1E10)
        assert lower == pytest.approx(19.655994064430956, rel=1e-12)
        assert upper == pytest.approx(194.68727707424722, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e15, allow_nan=False))
    def test_bound_ordering(self, s):
        lower, upper = _chernoff_sides(np.asarray(s), BETA_1E10)
        assert lower <= s <= upper

    def test_intervals_nest_in_epsilon(self):
        s = np.array([0.0, 10.0, 1e4, 1e9])
        tight = _chernoff_sides(s, math.log(1.0 / 1e-3))
        wide = _chernoff_sides(s, math.log(1.0 / 1e-12))
        assert (wide[0] <= tight[0]).all() and (tight[1] <= wide[1]).all()

    def test_observed_lower_examples(self):
        assert _observed_lower(np.asarray(0.0), BETA_1E10) == 0.0
        assert _observed_lower(np.asarray(2 * BETA_1E10), BETA_1E10) == 0.0
        assert _observed_lower(np.asarray(1e6), BETA_1E10) == pytest.approx(
            993213.8595755849, rel=1e-12
        )

    def test_math_module_oracle(self):
        counts = np.array([0.0, 2 * BETA_1E10, 100.0, 1e6, 1e15])
        lower, upper = _chernoff_sides(counts, BETA_1E10)
        observed = _observed_lower(counts, BETA_1E10)
        for i, s in enumerate(counts.tolist()):
            assert (lower[i], upper[i]) == decoy_oracles.chernoff_expected_bounds(s, 1e-10)
            assert observed[i] == decoy_oracles.chernoff_observed_lower(s, 1e-10)


def paper_3user_s2_oracle(obs):
    """Explicit coefficient form of the three-user 2-photon bound."""
    mu, nu, om, _ = obs.ordered_intensities
    p = obs.probabilities
    s = obs.sifted
    diff = (mu - nu) * (nu - om) * (mu - om)
    prefactor = p[mu] ** 4 * mu / (math.exp(4 * mu) * nu * om * diff)
    bracket = (
        diff * (mu + nu + om) * s[0.0] / p[0.0] ** 4
        + math.exp(4 * nu) * mu * om * (mu**2 - om**2) * s[nu] / p[nu] ** 4
        - math.exp(4 * om) * mu * nu * (mu**2 - nu**2) * s[om] / p[om] ** 4
        - math.exp(4 * mu) * nu * om * (nu**2 - om**2) * s[mu] / p[mu] ** 4
    )
    return prefactor * bracket


class TestSyntheticModel:
    """Bounds evaluated on counts generated from a known decomposition."""

    def test_3user_exact_when_tail_absent(self):
        s_n = [5.0, 40.0, 300.0, 20.0]  # nothing beyond n = 3
        db = bounds_3user_asymptotic(observed_of(3, s_n))
        assert db.s_mu_n_lower[0] == pytest.approx(s_n[0], rel=1e-9)
        assert db.s_mu_n_lower[2] == pytest.approx(s_n[2], rel=1e-9)

    def test_4user_exact_when_tails_absent(self):
        db = bounds_4user_asymptotic(observed_of(4, [5.0, 40.0, 0.0]))
        assert db.s_mu_n_lower[1] == pytest.approx(40.0, rel=1e-9)
        db = bounds_4user_asymptotic(observed_of(4, [5.0, 40.0, 300.0, 700.0, 90.0]))
        assert db.s_mu_n_lower[3] == pytest.approx(700.0, rel=1e-9)

    def test_5user_exact_when_tails_absent(self):
        db = bounds_5user_asymptotic(observed_of(5, [5.0, 40.0, 300.0, 20.0]))
        assert db.s_mu_n_lower[0] == pytest.approx(5.0, rel=1e-9)
        assert db.s_mu_n_lower[2] == pytest.approx(300.0, rel=1e-9)
        db = bounds_5user_asymptotic(
            observed_of(5, [5.0, 40.0, 300.0, 20.0, 800.0, 30.0])
        )
        assert db.s_mu_n_lower[4] == pytest.approx(800.0, rel=1e-9)

    @pytest.mark.parametrize("num_users", [3, 4, 5])
    def test_sound_on_poisson_tails(self, num_users):
        rng = np.random.default_rng(5)
        estimator, terms = ESTIMATORS[num_users]
        for mean in (0.3, 0.8, 1.6):
            s_n = poisson_tail(mean, 25)
            jitter = rng.uniform(0.5, 2.0, len(s_n))
            s_n = [s * j for s, j in zip(s_n, jitter)]
            db = estimator(observed_of(num_users, s_n))
            for n in terms:
                assert db.s_mu_n_lower[n] <= s_n[n] * (1 + 1e-9)

    def test_3user_matches_explicit_coefficient_form(self):
        s_n = poisson_tail(0.9, 22)
        obs = observed_of(3, s_n)
        db = bounds_3user_asymptotic(obs)
        assert db.s_mu_n_lower[2] == pytest.approx(paper_3user_s2_oracle(obs), rel=1e-11)

    def test_vacuum_ratio_is_identity(self):
        s_n = poisson_tail(1.1, 22)
        for num_users in (3, 5):
            estimator, _ = ESTIMATORS[num_users]
            db = estimator(observed_of(num_users, s_n))
            assert db.s_mu_n_lower[0] == pytest.approx(s_n[0], rel=1e-9)


class TestModelSoundness:
    """Bounds from the analytic channel model against the exact values."""

    def test_3user_ratio_at_200km(self):
        bundle = make_bundle(distance_km=200.0)
        db = bounds_3user_asymptotic(model_observed(bundle))
        exact = nphoton_terms(bundle.config, bundle.channel, bundle.security)[2]
        assert db.s_mu_n_lower[2] <= exact * (1 + 1e-9)
        assert db.s_mu_n_lower[2] / exact >= 0.9

    @pytest.mark.parametrize("num_users,distance", [(4, 150.0), (5, 150.0)])
    def test_multiuser_soundness(self, num_users, distance):
        bundle = make_bundle(num_users=num_users, distance_km=distance)
        estimator, terms = ESTIMATORS[num_users]
        db = estimator(model_observed(bundle))
        exact_terms = nphoton_terms(bundle.config, bundle.channel, bundle.security)
        for n in terms:
            exact = exact_terms[n]
            assert db.s_mu_n_lower[n] <= exact * (1 + 1e-9)

    def test_perturbing_omega_count_downweights_bound(self):
        bundle = make_bundle(distance_km=200.0)
        obs = model_observed(bundle)
        base = bounds_3user_asymptotic(obs).s_mu_n_lower[2]
        omega = obs.ordered_intensities[2]
        bumped = dict(obs.sifted)
        bumped[omega] *= 1.05
        perturbed = bounds_3user_asymptotic(
            ObservedCounts(sifted=bumped, probabilities=obs.probabilities, num_users=3)
        ).s_mu_n_lower[2]
        assert perturbed < base

    def test_degenerate_intensities_rejected(self):
        bundle = make_bundle()
        obs = model_observed(bundle)
        nu, om = obs.ordered_intensities[1], obs.ordered_intensities[2]
        collided = dict(obs.sifted)
        collided[nu] = collided.pop(nu) + collided.pop(om)  # drops a setting
        with pytest.raises(ConfigError):
            bounds_3user_asymptotic(
                ObservedCounts(
                    sifted=collided,
                    probabilities=obs.probabilities,
                    num_users=3,
                )
            )

    def test_all_zero_counts_raise(self):
        ks = INTENSITIES[3]
        obs = ObservedCounts(
            sifted={k: 0.0 for k in ks},
            probabilities=dict(zip(ks, PROBS[3])),
            num_users=3,
        )
        with pytest.raises(EstimationError):
            bounds_3user_asymptotic(obs)

    @pytest.mark.xfail(
        strict=True,
        reason="the m = 2 weighted sum cancels terms of about 1.7e288 to 1.3e-15 relative, and the "
        "underflow guard on prod x_k misses it: s_mu_2_lower is 4.6e273 at a second decoy of 1e-300",
    )
    @pytest.mark.parametrize("tiny", [1e-300, 1e-200])
    def test_tiny_decoy_stays_below_the_exact_rate(self, tiny):
        # a valid document, and the point optimize picks with intensity_bounds [1e-300, 1]
        bundle = make_bundle(
            distance_km=200.0, signal=1.0, decoys=(1e-4, tiny, 0.0), probs=(0.99, 0.001, 0.001, 0.008)
        )
        decoy = asymptotic_rate(bundle.config, bundle.channel, "decoy")
        exact = asymptotic_rate(bundle.config, bundle.channel, "exact")
        assert decoy.key_rate_raw <= exact.key_rate_raw
        assert all(bound <= decoy.sifted_signal for bound in decoy.s_mu_n_lower.values())


class TestFiniteSize:
    def test_finite_below_asymptotic(self):
        bundle = make_bundle(distance_km=100.0, data_size=1e12)
        obs = model_observed(bundle)
        finite = bounds_3user_finite(obs, bundle.security)
        asymptotic = bounds_3user_asymptotic(obs)
        for n in (0, 2):
            assert finite.s_mu_n_lower[n] <= asymptotic.s_mu_n_lower[n] * (1 + 1e-12)
        assert finite.phase_error_upper >= asymptotic.phase_error_upper - 1e-12

    def test_converges_to_asymptotic(self):
        # counts above 1e10 shrink the relative gap below 1e-3; inflated
        # dark counts keep even the vacuum statistics in that regime
        bundle = make_bundle(distance_km=25.0, data_size=1e21, dark_count_rate=1e-4)
        obs = model_observed(bundle)
        assert min(obs.sifted.values()) > 1e10
        finite = bounds_3user_finite(obs, bundle.security)
        asymptotic = bounds_3user_asymptotic(obs)
        for n in (0, 2):
            gap = 1.0 - finite.s_mu_n_lower[n] / asymptotic.s_mu_n_lower[n]
            assert 0.0 <= gap <= 1e-3

    def test_phase_error_clamped_to_unit_interval(self):
        bundle = make_bundle(distance_km=300.0, data_size=1e10)
        finite = bounds_3user_finite(model_observed(bundle), bundle.security)
        assert 0.0 <= finite.phase_error_upper <= 1.0

    def test_clamp_diagnostic_reported(self):
        # starve the decoy statistics so the two-photon bound goes negative
        bundle = make_bundle(distance_km=280.0, data_size=1e9)
        finite = bounds_3user_finite(model_observed(bundle), bundle.security)
        assert 2 in finite.clamped
        assert finite.s_mu_n_lower[2] == 0.0


ORACLES = {
    3: (bounds_3user_asymptotic, decoy_oracles.bounds_3user_asymptotic),
    4: (bounds_4user_asymptotic, decoy_oracles.bounds_4user_asymptotic),
    5: (bounds_5user_asymptotic, decoy_oracles.bounds_5user_asymptotic),
}


def grid_ladders(num_users):
    """(observed, security) at every point of the acceptance soundness grid."""
    for distance in (50.0, 100.0, 150.0, 200.0, 250.0, 300.0):
        for signal, decoys in GRID_SIGNALS[num_users]:
            bundle = make_bundle(
                num_users=num_users,
                distance_km=distance,
                data_size=1e12,
                signal=signal,
                decoys=decoys,
            )
            yield model_observed(bundle), bundle.security


def random_ladders(num_users, count=200):
    """Seeded intensities uniform in (0.001, 0.5) plus the vacuum, random counts."""
    rng = np.random.default_rng(1000 + num_users)
    sec = SecurityParams(data_size=1e12)
    for _ in range(count):
        ks = tuple(sorted(map(float, rng.uniform(0.001, 0.5, num_users)), reverse=True)) + (0.0,)
        sifted = dict(zip(ks, map(float, rng.uniform(0.0, 1e6, num_users + 1))))
        yield ObservedCounts(sifted, dict(zip(ks, PROBS[num_users])), num_users), sec


@pytest.mark.parametrize("ladders", [grid_ladders, random_ladders], ids=["grid", "random"])
@pytest.mark.parametrize("num_users", [3, 4, 5])
def test_general_rule_matches_closed_forms(num_users, ladders):
    """The shared interpolation rule reproduces the hand-derived ladders."""
    new, oracle = ORACLES[num_users]
    pairs = []
    for obs, sec in ladders(num_users):
        pairs.append((new(obs), oracle(obs)))
        if num_users == 3:
            pairs.append(
                (bounds_3user_finite(obs, sec), decoy_oracles.bounds_3user_finite(obs, sec))
            )
    for got, want in pairs:
        assert got.clamped == want.clamped
        assert list(got.s_mu_n_lower) == list(want.s_mu_n_lower)
        for n, expected in want.s_mu_n_lower.items():
            if expected > 0.0:
                assert got.s_mu_n_lower[n] == pytest.approx(expected, rel=1e-10)
            else:
                assert got.s_mu_n_lower[n] == 0.0
        assert got.phase_error_upper == pytest.approx(want.phase_error_upper, rel=1e-10, abs=1e-15)
