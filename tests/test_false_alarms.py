"""How often a correct Monte Carlo run flags: the 5 sigma gate against exact tails.

A check flags at |z| > 5.  For a Poisson count that is the two tails of
its exact law, and for a port's slice homogeneity the two tails of the
chi-square law at the X^2 whose Wilson-Hilferty z is +-5.  Summed over
the checks that ``compare_to_analytic`` runs at the analytic means, this
is the chance that a run of a correct simulator exits 3.  Stdlib only.
"""

import math

import pytest

from conftest import make_bundle
from mfqcka.matching import expected_stats
from mfqcka.model import SecurityParams
from mfqcka.montecarlo import TrialSummary, _wilson_hilferty, compare_to_analytic
from tail_oracles import chi2_cdf, chi2_flag, chi2_sf, poisson_flag, wilson_hilferty_x2

NORMAL_5_SIGMA = math.erfc(5.0 / math.sqrt(2.0))  # two-sided, 5.7e-7


def test_tail_oracles_match_closed_forms():
    for x in (0.5, 3.0, 30.0, 80.0):
        # nu = 1: X = Z^2; nu = 2: X is exponential with mean 2
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-12)
        assert chi2_cdf(x, 1) == pytest.approx(math.erf(math.sqrt(x / 2.0)), rel=1e-12)
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2.0), rel=1e-12)
    for mu in (10.0, 37.5):
        pmf = [math.exp(n * math.log(mu) - mu - math.lgamma(n + 1.0)) for n in range(400)]
        want = math.fsum(p for n, p in enumerate(pmf) if abs(n - mu) > 5.0 * math.sqrt(mu))
        assert poisson_flag(mu) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("nu", [1, 2, 7, 127, 1023, 16382])
def test_homogeneity_gate_is_no_looser_than_the_normal_one(nu):
    # M/2 - 1 for M = 4, 6, 16, 256, 2048 and 32766 phase slices
    for z in (5.0, -5.0):
        x2 = wilson_hilferty_x2(z, nu)
        if x2 > 0.0:
            assert _wilson_hilferty(x2, nu) == pytest.approx(z, rel=1e-12)
    assert chi2_flag(nu) <= NORMAL_5_SIGMA


def false_alarm_probability(phase_slices, bins):
    """The checks of a run of the standard N=3 bundle at 50 km whose counts sit at their means, and their flag chance."""
    bundle = make_bundle(num_users=3, distance_km=50.0, phase_slices=phase_slices)
    stats = expected_stats(bundle.config, bundle.channel, SecurityParams(data_size=float(bins)))
    half = phase_slices // 2
    retained = stats.retained_clicks[:, :, None].repeat(half, axis=2)
    adjacent_total = half * stats.retained_clicks[0]
    summary = TrialSummary(
        bins, 0, 3, phase_slices, bundle.config.intensities, retained, stats.sifted,
        adjacent_total, stats.adjacent_error * adjacent_total, (), 0, 0, 0, 0, 1,
    )
    checks = compare_to_analytic(summary, bundle).checks
    tails = [
        chi2_flag(round(c.expected)) if c.name.startswith("slice_homogeneity") else poisson_flag(c.expected)
        for c in checks
    ]
    return checks, math.fsum(tails)


@pytest.mark.parametrize(
    "phase_slices, bins, n_checks",
    [(16, 10**8, 11), (256, 10**8, 10), (1024, 10**10, 11)],
    ids=["M16-1e8", "M256-1e8", "M1024-1e10"],
)
def test_a_correct_run_rarely_flags(phase_slices, bins, n_checks):
    # the per-slice checks these replace flagged with 7.9e-5, 5.6e-3 and 1.0e-2
    checks, probability = false_alarm_probability(phase_slices, bins)
    assert len(checks) == n_checks
    assert sum(c.name.startswith("slice_homogeneity") for c in checks) == 2
    assert probability < 1e-4
