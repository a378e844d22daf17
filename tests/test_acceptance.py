"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All runs are seeded, so the suite is reproducible.
"""

import math

import numpy as np
import pytest

from mfqcka.decoy import (
    ObservedCounts,
    bounds_3user_asymptotic,
    bounds_4user_asymptotic,
    bounds_5user_asymptotic,
    _chernoff_sides,
)
from mfqcka.keyrate import asymptotic_rate
from mfqcka.matching import sifted_coincidences
from mfqcka.montecarlo import compare_to_analytic, run_protocol
from mfqcka.optimizer import SearchSpec, optimize_at_distance
from mfqcka.special_math import _entropy, _i0_rule
from mfqcka.channel import marginal_errors
from mfqcka.model import SecurityParams, validate
from conftest import EC_EFFICIENCY, make_bundle, make_channel, make_geometric_config
from photonstats_oracles import nphoton_terms

from test_montecarlo import ideal_columns, kernel_bits
from test_special_math import i0_series


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"{criterion}: {detail}"


FULL = SearchSpec(restarts=8, max_evals=2000, seed=2024)


def test_criterion_1_fig4_anchor_point():
    """Optimized finite rate at N=3, L=50 km, 1e14 pulses hits 1.44e-4 +-15%."""
    bundle = make_bundle(num_users=3, distance_km=50.0, data_size=1e14)
    rep = optimize_at_distance(FULL, "finite", bundle)
    target = 1.44e-4
    ratio = rep.key_rate / target
    report(
        "1 (anchor point)",
        abs(ratio - 1.0) <= 0.15,
        f"optimized rate {rep.key_rate:.4e} vs {target:.2e} (ratio {ratio:.3f})",
    )


@pytest.mark.parametrize(
    "data_size,distance",
    [(1e13, 270.0), (1e14, 300.0), (1e15, 310.0)],
    ids=["1e13@270km", "1e14@300km", "1e15@310km"],
)
def test_criterion_2_distance_reach(data_size, distance):
    """Positive optimized finite-size rate at the quoted reach distances."""
    bundle = make_bundle(num_users=3, distance_km=distance, data_size=data_size)
    rep = optimize_at_distance(FULL, "finite", bundle)
    report(
        f"2 (reach {distance:.0f} km @ {data_size:.0e})",
        rep.key_rate > 0.0,
        f"rate {rep.key_rate:.3e}",
    )


def test_criterion_3_finite_size_capacity_crossing():
    """With 1e15 pulses the finite rate beats the multicast bound in [240, 280]."""
    crossed = None
    for distance in (250.0, 260.0, 270.0):
        bundle = make_bundle(num_users=3, distance_km=distance, data_size=1e15)
        rep = optimize_at_distance(FULL, "finite", bundle)
        if rep.key_rate > rep.multicast_bound:
            crossed = (distance, rep.key_rate, rep.multicast_bound)
            break
    report(
        "3 (finite-size crossing)",
        crossed is not None,
        "no crossing found in [240, 280] km"
        if crossed is None
        else f"L={crossed[0]:.0f} km rate {crossed[1]:.3e} > bound {crossed[2]:.3e}",
    )


@pytest.mark.parametrize(
    "num_users,distance",
    [(3, 300.0), (4, 300.0), (5, 280.0)],
    ids=["N3@300km", "N4@300km", "N5@280km"],
)
def test_criterion_3_asymptotic_capacity_crossing(num_users, distance):
    """Asymptotic rates for 3-5 users each exceed the bound somewhere."""
    bundle = make_bundle(num_users=num_users, distance_km=distance, data_size=1e14)
    spec = SearchSpec(restarts=4, max_evals=1000, seed=2024)
    rep = optimize_at_distance(spec, "asymptotic-decoy", bundle)
    report(
        f"3 (asymptotic N={num_users})",
        rep.key_rate > rep.multicast_bound,
        f"L={distance:.0f} km rate {rep.key_rate:.3e} vs bound {rep.multicast_bound:.3e}",
    )


GRID_SIGNALS = {  # three intensity sets per user count
    3: [(0.08, (0.04, 0.008, 0.0)), (0.1, (0.05, 0.01, 0.0)), (0.15, (0.06, 0.012, 0.0))],
    4: [
        (0.08, (0.05, 0.018, 0.006, 0.0)),
        (0.1, (0.06, 0.02, 0.008, 0.0)),
        (0.15, (0.08, 0.03, 0.01, 0.0)),
    ],
    5: [
        (0.08, (0.055, 0.025, 0.01, 0.004, 0.0)),
        (0.1, (0.07, 0.03, 0.012, 0.005, 0.0)),
        (0.15, (0.09, 0.04, 0.016, 0.006, 0.0)),
    ],
}
ESTIMATORS = {
    3: (bounds_3user_asymptotic, (0, 2)),
    4: (bounds_4user_asymptotic, (1, 3)),
    5: (bounds_5user_asymptotic, (0, 2, 4)),
}


def test_criterion_4_decoy_soundness_grid():
    """Every decoy lower bound stays below the exact value on a 54-point grid."""
    points = violations = 0
    for num_users in (3, 4, 5):
        estimator, terms = ESTIMATORS[num_users]
        for distance in (50.0, 100.0, 150.0, 200.0, 250.0, 300.0):
            for signal, decoys in GRID_SIGNALS[num_users]:
                bundle = make_bundle(
                    num_users=num_users,
                    distance_km=distance,
                    data_size=1e12,
                    signal=signal,
                    decoys=decoys,
                )
                config, channel, sec = bundle.config, bundle.channel, bundle.security
                sifted = {k: sifted_coincidences(k, config, channel, sec) for k in config.intensities}
                obs = ObservedCounts(
                    sifted=sifted,
                    probabilities=dict(zip(config.intensities, config.send_probabilities)),
                )
                db = estimator(obs)
                points += 1
                exact_terms = nphoton_terms(config, channel, sec)
                for n in terms:
                    exact = exact_terms[n]
                    if db.s_mu_n_lower[n] > exact * (1 + 1e-9):
                        violations += 1
    report(
        "4 (decoy soundness grid)",
        points >= 50 and violations == 0,
        f"{points} grid points, {violations} soundness violations",
    )


def test_criterion_4_finite_decoy_tracks_infinite():
    """Finite-decoy asymptotic rate within a factor 2 of infinite decoys at 280+ km."""
    worst = 1.0
    spec = SearchSpec(restarts=4, max_evals=1000, seed=2024)
    for distance in (280.0, 300.0):
        bundle = make_bundle(num_users=3, distance_km=distance, data_size=1e14)
        rep = optimize_at_distance(spec, "asymptotic-decoy", bundle)
        exact = asymptotic_rate(rep.params_used, bundle.channel, "exact", ec_efficiency=1.1)
        assert rep.key_rate <= exact.key_rate * (1 + 1e-9)
        worst = min(worst, rep.key_rate / exact.key_rate)
    report(
        "4 (decoy/infinite ratio)",
        worst >= 0.5,
        f"worst decoy-to-infinite rate ratio {worst:.3f} (floor 0.5)",
    )


def _monte_carlo_oracle(label, bundle, seed, min_checks):
    """1e8 simulated bins agree with every analytic mean within |z| <= 5.

    ``min_checks`` is the number of statistics the run tests, each once:
    those whose expected count reaches 10.
    """
    summary = run_protocol(bundle, 10**8, seed=seed)
    comparison = compare_to_analytic(summary, bundle)
    flagged = [c.name for c in comparison.checks if c.flagged]
    report(
        f"5 (MC oracle {label})",
        comparison.clean and len(comparison.checks) >= min_checks,
        f"{len(comparison.checks)} statistics, max |z| = {comparison.max_abs_z:.2f}, "
        f"flagged: {flagged or 'none'}",
    )


@pytest.mark.parametrize("distance", [25.0, 50.0], ids=["25km", "50km"])
def test_criterion_5_monte_carlo_oracle_equivalence(distance):
    bundle = make_bundle(num_users=3, distance_km=distance, data_size=1e8)
    _monte_carlo_oracle(f"{distance:.0f} km", bundle, seed=20240 + int(distance), min_checks=11)


@pytest.mark.parametrize("num_users", [5, 8], ids=["N5", "N8"])
def test_criterion_5_many_user_monte_carlo_oracle(num_users):
    """The count matrix past N=3 against 1e8 bins at 50 km: N=5 on the
    standard ladder, N=8 on the geometric one."""
    if num_users == 5:
        bundle = make_bundle(num_users=5, distance_km=50.0, data_size=1e8)
    else:
        bundle = validate(
            make_geometric_config(num_users),
            make_channel(50.0),
            SecurityParams(data_size=1e8, ec_efficiency=EC_EFFICIENCY),
        )
    min_checks = {5: 26, 8: 57}[num_users]
    _monte_carlo_oracle(f"N={num_users}, 50 km", bundle, seed=20290 + 1000 * num_users, min_checks=min_checks)


def test_criterion_6_ghz_invariant_simulation():
    """Zero conference bit errors without dark counts, all N and M."""
    total_coincidences = 0
    errors = 0
    for num_users in (3, 4, 5):
        for m_slices in (4, 16):
            bundle = make_bundle(
                num_users=num_users,
                distance_km=5.0,
                dark_count_rate=0.0,
                data_size=1e6,
                phase_slices=m_slices,
            )
            summary = run_protocol(bundle, 10**6, seed=6000 + num_users * 10 + m_slices)
            total_coincidences += summary.coincidences
            errors += summary.conference_errors_all_intensities
    report(
        "6 (GHZ invariant, simulation)",
        total_coincidences > 0 and errors == 0,
        f"{total_coincidences} coincidences, {errors} conference errors",
    )


def test_criterion_6_ghz_invariant_exhaustive():
    """Symbolic bit extraction agrees with user 1 on every input pattern."""
    failures = 0
    patterns = 0
    for num_users in (3, 4):
        bits = kernel_bits(*ideal_columns(num_users), m_slices=4)
        patterns += bits.shape[1]
        failures += int((bits != bits[0]).any(axis=0).sum())
    report(
        "6 (GHZ invariant, exhaustive)",
        failures == 0 and patterns == 2**8 + 2**12,
        f"{patterns} patterns checked, {failures} disagreements",
    )


def test_criterion_7_chernoff_coverage():
    """Expected-value intervals cover the true mean at the stated failure rate."""
    rng = np.random.default_rng(777)
    n, p, resamples, eps = 10**4, 0.01, 10**5, 1e-3
    true_mean = n * p
    draws = rng.binomial(n, p, size=resamples)
    misses_low = misses_high = 0
    values, counts = np.unique(draws, return_counts=True)
    lowers, uppers = _chernoff_sides(values.astype(float), math.log(1.0 / eps))
    for lower, upper, count in zip(lowers.tolist(), uppers.tolist(), counts.tolist()):
        if true_mean < lower:
            misses_low += int(count)
        if true_mean > upper:
            misses_high += int(count)
    allowance = 10 * eps * resamples
    report(
        "7 (Chernoff coverage)",
        misses_low <= allowance and misses_high <= allowance,
        f"violations low/high = {misses_low}/{misses_high}, allowance {allowance:.0f} per side",
    )


def test_criterion_8_numeric_kernels():
    """I0 vs series oracle, entropy conventions, marginal-error parity."""
    xs = np.linspace(0.0, 20.0, 1000)
    # also in the gain table's layout: the vacuum pairs (argument 0) last, which the rule skips
    table = np.hstack([xs.reshape(100, 10), np.zeros((100, 3))])
    args = np.concatenate([xs, table.ravel()])
    i0_vals = np.concatenate([_i0_rule(xs), _i0_rule(table).ravel()])
    worst_rel = max(
        abs(v - i0_series(x)) / i0_series(x) for x, v in zip(args.tolist(), i0_vals.tolist())
    )
    grid = np.linspace(0.0, 1.0, 101)
    entropy_ok = (
        _entropy(np.array([0.0, 1.0, 0.5])).tolist() == [0.0, 0.0, 1.0]
        and bool((abs(_entropy(grid) - _entropy(1 - grid)) < 1e-12).all())
    )
    parity_ok = True
    for j in range(2, 9):
        links = j - 1
        for e in (0.0, 0.01, 0.137, 0.5):
            mass = sum(
                e**bin(pat).count("1") * (1 - e) ** (links - bin(pat).count("1"))
                for pat in range(2**links)
                if bin(pat).count("1") % 2 == 1
            )
            if not math.isclose(marginal_errors(np.array(e), j)[-1], mass, rel_tol=0, abs_tol=1e-14):
                parity_ok = False
    report(
        "8 (numeric kernels)",
        worst_rel <= 1e-12 and entropy_ok and parity_ok,
        f"I0 worst relative error {worst_rel:.2e}; entropy conventions {entropy_ok}; "
        f"parity enumeration {parity_ok}",
    )
