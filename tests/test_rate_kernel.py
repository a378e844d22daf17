"""The array rate kernel: batch independence, one-row entry points, scalar oracles."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import keyrate_oracles
from mfqcka.channel import error_rows, error_terms, total_efficiency
from mfqcka.keyrate import MODES, asymptotic_rate, finite_rate, rate_report, rate_reports, rate_rows
from mfqcka.model import (
    INFEASIBLE,
    ChannelParams,
    ConfigError,
    DegenerateChannelError,
    EstimationError,
    RateReport,
    SourceConfig,
)
from mfqcka.optimizer import ORDERING_GAP, SearchSpec, _ladders, _project, _sample_starts, _to_config
from conftest import make_bundle, make_channel, make_geometric_config

CASES = [(3, "finite")] + [(n, mode) for mode in MODES[1:] for n in (3, 4, 5)]


def pool(num_users, size, seed):
    """Projected points of the optimizer's presample law, and their configurations."""
    points = _sample_starts(random.Random(seed), size, num_users, SearchSpec())
    return points, _ladders(points, num_users)


def oracle_rate(config, channel, sec, mode):
    """(key_rate_raw, cause code) of the scalar oracle."""
    try:
        if mode == "finite":
            raw = keyrate_oracles.finite_rate_raw(config, channel, sec)
        else:
            raw = keyrate_oracles.asymptotic_rate_raw(
                config, channel, mode.split("-")[1], sec.ec_efficiency
            )
    except (ConfigError, EstimationError, DegenerateChannelError) as exc:
        return math.nan, INFEASIBLE.index(type(exc))
    return raw, 0


@pytest.mark.parametrize("distance", [50.0, 250.0])
@pytest.mark.parametrize("num_users,mode", CASES)
def test_rows_do_not_depend_on_the_batch(num_users, mode, distance):
    bundle = make_bundle(num_users=num_users, distance_km=distance, data_size=1e14)
    points, (ints, probs) = pool(num_users, 512, 900 + num_users)

    def run(lo, hi):
        return rate_rows(ints[lo:hi], probs[lo:hi], bundle.config, bundle.channel, bundle.security, mode)

    raw, cause = run(0, 512)
    for size, stop in ((7, 512), (1, 128)):
        parts = [run(lo, lo + size) for lo in range(0, stop, size)]
        assert np.array_equal(np.concatenate([c for _, c in parts]), cause[:stop])
        assert np.array_equal(np.concatenate([r for r, _ in parts]), raw[:stop], equal_nan=True)
    # the scalar entry points are one-row calls of the same layers
    for i in range(0, 512, 37):
        config = _to_config(points[i], bundle.config)
        if cause[i]:
            with pytest.raises(INFEASIBLE[cause[i]]):
                rate_report(config, bundle.channel, bundle.security, mode)
        else:
            assert rate_report(config, bundle.channel, bundle.security, mode).key_rate_raw == raw[i]


@pytest.mark.parametrize("num_users,mode", CASES)
def test_kernel_matches_scalar_oracles(num_users, mode):
    """Agreement to 1e-9 of the rate's scale s_mu / N_bins at 0-50 km.

    The scale, not key_rate_raw itself: near the edge of the positive-rate
    region the bracket 1 - H(phi) - f H(E) cancels, and a raw value close
    to zero turns the last-digit differences of exp and of the decoy sum
    into large relative ones.
    """
    bundle = make_bundle(num_users=num_users, data_size=1e14)
    points, (ints, probs) = pool(num_users, 64, 700 + num_users)
    n_bins = bundle.security.data_size if mode == "finite" else 1.0
    compared = 0
    for distance in (0.0, 10.0, 25.0, 50.0):
        channel = make_channel(distance)
        raw, cause = rate_rows(ints, probs, bundle.config, channel, bundle.security, mode)
        for i, point in enumerate(points):
            config = _to_config(point, bundle.config)
            expected, expected_cause = oracle_rate(config, channel, bundle.security, mode)
            assert cause[i] == expected_cause
            if expected_cause:
                continue
            s_mu = keyrate_oracles.observed(config, channel, n_bins).sifted[config.signal_intensity]
            assert abs(raw[i] - expected) <= 1e-9 * s_mu / n_bins
            compared += 1
    assert compared > 200


def clustered_ladders(num_users):
    """Ladders packed against the lower intensity bound, a few gaps apart."""
    spec = SearchSpec()
    lo, gap = spec.intensity_bounds[0], ORDERING_GAP
    rows = []
    for spread in (1.0, 1.5, 3.0, 10.0):
        ints = lo + gap * spread * np.arange(num_users)[::-1]
        rows.append(np.concatenate([ints, np.full(num_users, 0.9 / (num_users + 1))]))
    rows.append(np.concatenate([lo + gap * np.arange(num_users)[::-1], np.full(num_users, 0.19)]))
    return _project(np.array(rows), num_users, spec)


# Negligible detector efficiencies, with and without dark counts.  They
# keep eta_t * k far below 1e-16, where every exp in the gains is exactly 1
# and the signal gain exactly 0.  Between about 5e-17 and 1e-15 the matched
# gain is a few ulps of 2 that the kernel's exp and the math module's can
# round apart, so whether a point there has any signal at all is decided
# by the last bit of exp (efficiency 1e-12 at 100 km is such a point).
CORNERS = [
    ChannelParams(detector_efficiency=eff, dark_count_rate=p_d, fiber_alpha=0.16, distance_km=d)
    for eff in (1e-300, 1e-30, 1e-17)
    for p_d in (0.0, 1e-17, 3.03e-9)
    for d in (0.0, 100.0)
]


@pytest.mark.parametrize("num_users,mode", CASES)
def test_infeasible_rows_match_oracle(num_users, mode):
    bundle = make_bundle(num_users=num_users, data_size=1e12)
    points, _ = pool(num_users, 16, 500 + num_users)
    points = np.concatenate([points, clustered_ladders(num_users)])
    ints, probs = _ladders(points, num_users)
    channels = [make_channel(d) for d in range(0, 400, 60)] + CORNERS
    causes = []
    for channel in channels:
        _, cause = rate_rows(ints, probs, bundle.config, channel, bundle.security, mode)
        for i, point in enumerate(points):
            config = _to_config(point, bundle.config)
            assert cause[i] == oracle_rate(config, channel, bundle.security, mode)[1]
        causes.append(cause)
    # the corners without dark counts have no signal at all
    assert INFEASIBLE.index(EstimationError) in np.concatenate(causes)


@pytest.mark.parametrize("mode", ["finite", "asymptotic-decoy"])
def test_malformed_ladders_are_config_errors(mode):
    bundle = make_bundle(num_users=3, distance_km=50.0)
    ints = np.array([[0.1, 0.1, 0.05, 0.0], [0.1, 0.05, 0.01, 0.001], [0.1, 0.05, 0.01, 0.0]])
    probs = np.array([[0.4, 0.3, 0.2, 0.1], [0.4, 0.3, 0.2, 0.1], [0.5, 0.3, 0.2, 0.0]])
    _, cause = rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, mode)
    assert cause.tolist() == [INFEASIBLE.index(ConfigError)] * 3
    for row_ints, row_probs in zip(ints, probs):
        config = SourceConfig(3, row_ints[0], tuple(row_ints[1:]), tuple(row_probs), 16)
        assert oracle_rate(config, bundle.channel, bundle.security, mode)[1] == 1


# A row mutation: (kind, position, value).  "permute" reorders the settings
# with their probabilities, "vacuum" moves the vacuum to ``position``, and
# "intensity" and "probability" put ``value`` at that setting.  A negative
# value goes to a probability only: a negative intensity makes the gain table
# take the square root of a negative product, which numpy warns about in both
# paths before any rule sees the ladder.
_ROW_MUTATIONS = st.one_of(
    st.tuples(st.just("none"), st.just(0), st.just(0.0)),
    st.tuples(st.just("permute"), st.permutations(range(6)), st.just(0.0)),
    st.tuples(st.just("vacuum"), st.integers(0, 4), st.just(0.0)),
    st.tuples(st.just("intensity"), st.integers(0, 5), st.sampled_from([0.0, math.nan])),
    st.tuples(st.just("probability"), st.integers(0, 5), st.sampled_from([0.0, -0.03, math.nan])),
)


def keeps_ladder_rule(ints, probs):
    """Strictly decreasing down to the vacuum, every send probability > 0; a nan breaks it."""
    return all(a > b for a, b in zip(ints, ints[1:])) and ints[-1] == 0.0 and all(p > 0.0 for p in probs)


def mutate(ints, probs, mutation):
    """One row's ladder and probabilities after ``mutation`` (see ``_ROW_MUTATIONS``)."""
    kind, where, value = mutation
    ints, probs = ints.tolist(), probs.tolist()
    settings = len(ints)
    if kind == "permute":
        order = [i for i in where if i < settings]
        ints, probs = [ints[i] for i in order], [probs[i] for i in order]
    elif kind == "vacuum":
        at = where % settings
        ints.insert(at, ints.pop())
        probs.insert(at, probs.pop())
    elif kind != "none":
        (ints if kind == "intensity" else probs)[where % settings] = value
    return ints, probs


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    case=st.sampled_from(CASES),
    distance=st.sampled_from([0.0, 50.0, 200.0]),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([0, 0, 0, -1, 1]),
    mutations=st.lists(_ROW_MUTATIONS, min_size=1, max_size=4),
)
def test_a_row_raises_alone_what_its_kernel_cause_names(case, distance, seed, width, mutations):
    """On ladders of the optimizer's law, reordered, with a bad entry or of the wrong width.

    ``rate_rows`` reads each row in the order given, as ``rate_report``
    does, so the kernel's cause is the class the row raises alone and a
    rated row has the same rate bit for bit; a row that breaks the ladder
    rule has a ConfigError cause in every mode; a batch of N or N+2
    settings raises the ConfigError that each of its rows raises alone and
    in a scan.
    """
    num_users, mode = case
    bundle = make_bundle(num_users=num_users, distance_km=distance, data_size=1e14)
    _, (ints, probs) = pool(num_users, len(mutations), seed)
    rows = [mutate(k, p, mutation) for k, p, mutation in zip(ints, probs, mutations)]
    if width < 0:  # drop the last decoy
        rows = [(k[:-2] + k[-1:], p[:-2] + p[-1:]) for k, p in rows]
    elif width > 0:  # a second signal above the first
        rows = [([2.0 * k[0]] + k, [p[0]] + p) for k, p in rows]
    ints, probs = np.array([k for k, _ in rows]), np.array([p for _, p in rows])
    configs = [SourceConfig(num_users, k[0], tuple(k[1:]), tuple(p), 16) for k, p in rows]
    if width:
        with pytest.raises(ConfigError) as raised:
            rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, mode)
        for config in configs:
            for run in (
                lambda: rate_report(config, bundle.channel, bundle.security, mode),
                lambda: next(rate_reports(config, [bundle.channel], bundle.security, mode)),
            ):
                with pytest.raises(ConfigError) as alone:
                    run()
                assert str(alone.value) == str(raised.value)
        return
    raw, cause = rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, mode)
    for i, config in enumerate(configs):
        if not keeps_ladder_rule(*rows[i]):
            assert INFEASIBLE[cause[i]] is ConfigError
        if cause[i]:
            with pytest.raises(INFEASIBLE[cause[i]]):
                rate_report(config, bundle.channel, bundle.security, mode)
        else:
            got = rate_report(config, bundle.channel, bundle.security, mode).key_rate_raw
            assert np.float64(got).tobytes() == raw[i].tobytes()


def test_unsupported_user_counts_are_config_errors():
    _, (ints, probs) = pool(4, 5, 1)
    bundle = make_bundle(num_users=4)
    with pytest.raises(ConfigError, match="3 users only"):
        rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, "finite")
    six = SourceConfig(6, 0.1, (0.07, 0.03, 0.012, 0.005, 0.002, 0.0), (0.3, 0.2, 0.15, 0.13, 0.1, 0.07, 0.05), 16)
    _, (ints, probs) = pool(6, 5, 1)
    for run in (
        lambda: rate_rows(ints, probs, six, bundle.channel, bundle.security, "asymptotic-decoy"),
        lambda: rate_report(six, bundle.channel, bundle.security, "asymptotic-decoy"),
    ):
        with pytest.raises(ConfigError, match="3-5 users, not 6"):
            run()
    for mode in ("exact", "decoy", "asymptotic"):
        with pytest.raises(ValueError):
            rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, mode)
        with pytest.raises(ValueError):
            rate_report(bundle.config, bundle.channel, bundle.security, mode)
    many = make_geometric_config(21)  # past the exact phase error's photon-number cutoff
    _, (ints, probs) = pool(21, 5, 1)
    for run in (
        lambda: rate_rows(ints, probs, many, bundle.channel, bundle.security, "asymptotic-exact"),
        lambda: rate_report(many, bundle.channel, bundle.security, "asymptotic-exact"),
        lambda: next(rate_reports(many, [bundle.channel] * 2, bundle.security, "asymptotic-exact")),
    ):
        with pytest.raises(ConfigError, match="3-20 users, not 21"):
            run()


@pytest.mark.parametrize("num_users,mode", CASES)
def test_rate_report_is_the_entry_point_of_its_mode(num_users, mode):
    bundle = make_bundle(num_users=num_users, data_size=1e12)
    points, _ = pool(num_users, 24, 300 + num_users)
    for distance in (0.0, 50.0, 250.0):
        channel = make_channel(distance)
        for point in points:
            config = _to_config(point, bundle.config)
            if mode == "finite":
                direct = lambda: finite_rate(config, channel, bundle.security)
            else:
                direct = lambda: asymptotic_rate(
                    config, channel, mode.split("-")[1], ec_efficiency=bundle.security.ec_efficiency
                )
            try:
                expected = direct()
            except (EstimationError, DegenerateChannelError) as exc:
                with pytest.raises(type(exc)):
                    rate_report(config, channel, bundle.security, mode)
                continue
            assert rate_report(config, channel, bundle.security, mode) == expected


def test_empty_batch():
    bundle = make_bundle()
    ints, probs = np.empty((0, 4)), np.empty((0, 4))
    raw, cause = rate_rows(ints, probs, bundle.config, bundle.channel, bundle.security, "finite")
    assert raw.shape == cause.shape == (0,)


def test_degenerate_adjacent_error_is_flagged_per_row():
    channel = ChannelParams(detector_efficiency=0.0, dark_count_rate=0.0, fiber_alpha=0.16, distance_km=0.0)
    live = make_channel(50.0)
    rows = error_rows(np.array([0.1, 1e-300]), 3, total_efficiency(live), live.dark_count_rate)
    assert not rows.degenerate.any()
    rows = error_rows(np.array([0.1, 1e-300]), 3, total_efficiency(channel), channel.dark_count_rate)
    assert rows.degenerate.all()
    assert (rows.adjacent == 0.0).all() and (rows.marginals == 0.0).all()
    with pytest.raises(DegenerateChannelError):
        error_terms(1e-300, 3, 0.0, 0.0)


def test_chunks_bound_the_gain_table():
    from mfqcka.keyrate import _CHUNK_BYTES, _chunk_rows
    from mfqcka.special_math import I0_NODES

    for settings in range(4, 10):
        rows = _chunk_rows(settings)
        # one I0 argument per distinct pair of nonzero settings: the rule skips the vacuum pairs
        row_bytes = settings * (settings - 1) // 2 * I0_NODES * 8
        assert rows >= 1
        assert rows * row_bytes <= max(_CHUNK_BYTES, row_bytes)
        assert rows == 1 or (rows + 1) * row_bytes > _CHUNK_BYTES


REPORT_CASES = [(3, "finite")] + [(n, "asymptotic-decoy") for n in (3, 4, 5)] + [
    (n, "asymptotic-exact") for n in (4, 6)
]


def report_bundle(num_users):
    """The standard ladder where there is one, the geometric ladder otherwise."""
    if num_users <= 5:
        return make_bundle(num_users=num_users, data_size=1e14)
    return dataclasses.replace(make_bundle(data_size=1e14), config=make_geometric_config(num_users))


def assert_same_report(got, expected):
    for field in dataclasses.fields(RateReport):
        value, want = getattr(got, field.name), getattr(expected, field.name)
        assert value == want, field.name
        assert type(value) is type(want), field.name


def assert_reports_match(config, channels, sec, mode):
    """``rate_reports`` against one ``rate_report`` per channel; True if a channel raised.

    Up to the first infeasible channel every report is equal, and there
    the scan raises that channel's error class and message.
    """
    reports = rate_reports(config, channels, sec, mode)
    for channel in channels:
        try:
            expected = rate_report(config, channel, sec, mode)
        except (ConfigError, EstimationError, DegenerateChannelError) as exc:
            with pytest.raises(type(exc)) as raised:
                next(reports)
            assert str(raised.value) == str(exc)
            return True
        assert_same_report(next(reports), expected)
    assert next(reports, None) is None
    return False


@pytest.mark.parametrize("num_users,mode", REPORT_CASES)
def test_rate_reports_equal_one_report_per_distance(num_users, mode):
    """On the case's standard or geometric ladder and on seeded ladders of the optimizer's law.

    The standard or geometric ladder is feasible at every distance; a
    seeded ladder may raise, but at least one of them rates every channel.
    """
    bundle = report_bundle(num_users)
    channels = [make_channel(d) for d in range(0, 351, 25)]
    assert not assert_reports_match(bundle.config, channels, bundle.security, mode)
    points, _ = pool(num_users, 4, 1100 + num_users)
    raised = [
        assert_reports_match(_to_config(point, bundle.config), channels, bundle.security, mode)
        for point in points
    ]
    assert not all(raised)


def no_signal(distance):
    return ChannelParams(detector_efficiency=0.0, dark_count_rate=0.0, fiber_alpha=0.16, distance_km=distance)


def dark_free(distance):
    return make_channel(distance, dark_count_rate=0.0)


# Every cause a validated bundle reaches (the kernel's causes over the corner
# channels of the tests above are all EstimationErrors): no signal at all,
# decoys too small to weigh, and a signal that fades out along the scan.
INFEASIBLE_SCANS = [
    (3, "finite", {}, [no_signal(0.0), no_signal(50.0)]),
    (4, "asymptotic-exact", {}, [make_channel(0.0), no_signal(50.0)]),
    (3, "finite", {"decoys": (1e-200, 1e-250, 0.0)}, [make_channel(0.0)]),
    (4, "asymptotic-decoy", {"decoys": (1e-100, 1e-150, 1e-200, 0.0)}, [make_channel(0.0)]),
    (3, "finite", {}, [dark_free(d) for d in range(0, 3001, 100)]),
    (5, "asymptotic-decoy", {}, [dark_free(d) for d in range(0, 3001, 100)]),
    (4, "asymptotic-exact", {}, [dark_free(d) for d in range(0, 3001, 100)]),
]


# (p_mu / p_k)^4 overflows for these valid send probabilities at N = 3
VANISHING_PROBABILITIES = {"vacuum": (0.6, 0.3, 0.1, 1e-80), "decoy": (0.6, 0.3, 1e-80, 0.1)}


@pytest.mark.parametrize("mode", ["finite", "asymptotic-decoy"])
@pytest.mark.parametrize("probs", VANISHING_PROBABILITIES.values(), ids=VANISHING_PROBABILITIES)
def test_vanishing_send_probability_is_an_estimation_error(probs, mode):
    bundle = make_bundle(distance_km=200.0, data_size=1e14, probs=probs)
    config, channel, sec = bundle.config, bundle.channel, bundle.security
    _, cause = rate_rows(np.array([config.intensities]), np.array([probs]), config, channel, sec, mode)
    assert cause.tolist() == [INFEASIBLE.index(EstimationError)]
    with pytest.raises(EstimationError, match="overflows"):
        rate_report(config, channel, sec, mode)
    assert math.isfinite(rate_report(config, channel, sec, "asymptotic-exact").key_rate_raw)


@pytest.mark.parametrize("num_users,mode,ladder,channels", INFEASIBLE_SCANS)
def test_rate_reports_raise_the_error_of_the_first_infeasible_row(num_users, mode, ladder, channels):
    bundle = make_bundle(num_users=num_users, data_size=1e14, **ladder)
    if not assert_reports_match(bundle.config, channels, bundle.security, mode):
        pytest.fail("no channel of the scan is infeasible")
