"""Protocol simulator: click tables, shard oracle, bit extraction, analytic agreement."""

import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest

import montecarlo_oracles as oracle
from mfqcka import montecarlo
from mfqcka.channel import total_efficiency
from mfqcka.model import Bundle
from mfqcka.montecarlo import compare_to_analytic, run_protocol
from conftest import make_bundle


def _tables(bundle):
    m_slices = bundle.config.phase_slices
    cos_table = np.cos(2.0 * np.pi * np.arange(m_slices) / m_slices)
    return montecarlo._click_tables(bundle.config, bundle.channel, cos_table), cos_table


ORACLE_BUNDLES = {
    f"N{n}-M{m}": dict(num_users=n, phase_slices=m) for n in (3, 4, 5) for m in (4, 16)
}
ORACLE_BUNDLES["N3-darks"] = dict(num_users=3, distance_km=120.0, dark_count_rate=2e-2)
# a port is a candidate with probability max s = 0.46 here, so most
# candidate bins have several candidate ports
BRIGHT_BUNDLE = dict(num_users=5, distance_km=0.0, signal=0.8, dark_count_rate=1e-3)
# enough bins for at least 20 tested cells in every bundle
ORACLE_BINS = {name: 1 << 20 for name in ORACLE_BUNDLES} | {"N3-M4": 1 << 21, "N5-M16": 1 << 21}


class TestClickTables:
    @pytest.mark.parametrize("kwargs", ORACLE_BUNDLES.values(), ids=ORACLE_BUNDLES.keys())
    def test_entries_equal_per_bin_formula(self, kwargs):
        bundle = make_bundle(**kwargs)
        (p_left, p_right), cos_table = _tables(bundle)
        k_a, k_b, delta, xor = (i.ravel() for i in np.indices(p_left.shape))
        settings = np.asarray(bundle.config.intensities)
        want_left, want_right = oracle.click_probabilities(
            settings[k_a], settings[k_b], delta, xor.astype(np.int8),
            total_efficiency(bundle.channel), bundle.channel.dark_count_rate, cos_table,
        )
        assert np.array_equal(p_left.ravel(), want_left)
        assert np.array_equal(p_right.ravel(), want_right)

    def test_single_click_frequency(self):
        # every port a candidate; port 1: both users on the signal, slices 0
        # and 1, equal bits; port 2: signal against the first decoy, slices
        # 1 and 3, opposite bits
        bundle = make_bundle(distance_km=5.0, dark_count_rate=1e-3)
        _, cos_table = _tables(bundle)
        single, right_given_single = montecarlo._port_tables(
            bundle.config, bundle.channel, cos_table
        )
        q = single.max()
        trials = 2 * 10**5
        # (left, right) user values of port 1 in the first trials columns,
        # of port 2 in the last
        column = lambda pairs, dtype: np.repeat(np.array(pairs, dtype=dtype).T, trials, axis=1)
        success, d_val = montecarlo._detect_ports(
            column([(0, 0), (0, 1)], np.int8), column([(0, 1), (1, 3)], np.int16),
            column([(0, 0), (0, 1)], np.int8), single, right_given_single,
            np.random.default_rng(3),
        )
        assert not (d_val.astype(bool) & ~success).any()
        success, d_val = success.reshape(2, trials), d_val.reshape(2, trials)
        eta_t = total_efficiency(bundle.channel)
        p_d, m_slices = bundle.channel.dark_count_rate, bundle.config.phase_slices
        k = bundle.config.intensities
        # (k_a, k_b, slice difference mod M, sign of the bit XOR) per port
        for j, (k_a, k_b, delta, sign) in enumerate([(k[0], k[0], 15, 1.0), (k[0], k[1], 14, -1.0)]):
            mean = 0.5 * eta_t * (k_a + k_b)
            beat = eta_t * math.sqrt(k_a * k_b) * math.cos(2.0 * math.pi * delta / m_slices) * sign
            click_l, click_r = (
                1.0 - (1.0 - p_d) * math.exp(-max(mean + s * beat, 0.0)) for s in (1.0, -1.0)
            )
            # a candidate succeeds with probability s / q
            checks = [
                (success[j].sum(), (click_l * (1 - click_r) + (1 - click_l) * click_r) / q),
                ((success[j] & (d_val[j] == 1)).sum(), (1 - click_l) * click_r / q),
            ]
            for observed, p in checks:
                z = (observed - trials * p) / math.sqrt(trials * p * (1 - p))
                assert abs(z) <= 5.0


def two_sample_z(a, b, min_total=20):
    """z of equal-exposure counts a and b, for the cells with a + b >= min_total."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    tested = a + b >= min_total
    return (a - b)[tested] / np.sqrt((a + b)[tested])


def retained_cells(shard, bundle, n_bins, seed, chunk=1 << 18):
    """Retained bins per (setting, port, left slice); d = 1 and retained bins
    per (port, noiseless announcement).

    ``shard`` is ``montecarlo._generate_shard`` or the oracle; ``n_bins``
    run in chunks from one generator.
    """
    config = bundle.config
    m_slices, ports = config.phase_slices, config.num_users - 1
    shape = (len(config.intensities), ports, m_slices)
    n_cells = math.prod(shape)
    _, cos_table = _tables(bundle)
    rng = np.random.default_rng(seed)
    cells, d_one, retained = np.zeros(n_cells, np.int64), np.zeros(2 * ports), np.zeros(2 * ports)
    for start in range(0, n_bins, chunk):
        out = shard(config, bundle.channel, min(chunk, n_bins - start), rng, cos_table)
        columns = out[0] if isinstance(out, tuple) else out
        port = columns["port"].astype(np.int64)
        left_slice = columns["m"] + m_slices // 2 * columns["m_left"]
        cells += np.bincount(
            (columns["k_idx"] * ports + port) * m_slices + left_slice, minlength=n_cells
        )
        ideal = columns["m_left"] ^ columns["r_left"] ^ columns["m_right"] ^ columns["r_right"]
        group = 2 * port + ideal
        d_one += np.bincount(group, weights=columns["d"], minlength=2 * ports)
        retained += np.bincount(group, minlength=2 * ports)
    return cells.reshape(shape), d_one, retained


@functools.lru_cache(maxsize=None)
def oracle_cells(name):
    """``retained_cells`` of the per-bin oracle on ORACLE_BUNDLES[name], run once."""
    bundle = make_bundle(**ORACLE_BUNDLES[name])
    return retained_cells(oracle.generate_shard, bundle, ORACLE_BINS[name], 99)


def assert_same_distribution(got, want):
    """Two-sample z <= 5 on every well-filled cell, on the (setting, port)
    totals and on each d = 1 fraction.

    The totals see a wrong choice among several successful ports, which
    spreads too thin over the slices to show per cell.  Without dark
    counts a d = 1 fraction is exactly 0 or 1 on both sides; the gate
    then reads 0 <= 0.
    """
    (got_cells, got_d, got_n), (want_cells, want_d, want_n) = got, want
    z = two_sample_z(got_cells.ravel(), want_cells.ravel())
    assert z.size >= 20
    assert np.abs(z).max() <= 5.0
    z = two_sample_z(got_cells.sum(axis=2).ravel(), want_cells.sum(axis=2).ravel())
    assert np.abs(z).max() <= 5.0
    pooled = (got_d + want_d) / (got_n + want_n)
    sigma = np.sqrt(pooled * (1 - pooled) * (1 / got_n + 1 / want_n))
    assert (np.abs(got_d / got_n - want_d / want_n) <= 5.0 * sigma).all()


class TestShardOracle:
    """The thinning kernel against the per-bin oracle, equal in distribution.

    The two consume their random streams differently, so the retained
    cells are compared by two-sample z-tests rather than bit for bit; the
    three seeds are independent kernel runs against one oracle sample.
    """

    @pytest.mark.parametrize("name", ORACLE_BUNDLES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shard_equals_per_bin_oracle(self, name, seed):
        bundle = make_bundle(**ORACLE_BUNDLES[name])
        got = retained_cells(montecarlo._generate_shard, bundle, ORACLE_BINS[name], seed)
        assert_same_distribution(got, oracle_cells(name))

    def test_shard_equals_per_bin_oracle_with_many_candidate_ports(self):
        bundle = make_bundle(**BRIGHT_BUNDLE)
        n_bins = 1 << 20
        got = retained_cells(montecarlo._generate_shard, bundle, n_bins, 0)
        assert_same_distribution(got, retained_cells(oracle.generate_shard, bundle, n_bins, 1))

    def test_phase_bits_at_the_largest_slice_count(self):
        # 2 s in int16 overflows past s = 16383
        bundle = make_bundle(distance_km=0.0, signal=1.0, phase_slices=32766)
        _, cos_table = _tables(bundle)
        columns, _ = montecarlo._generate_shard(
            bundle.config, bundle.channel, 1 << 18, np.random.default_rng(1), cos_table
        )
        for key in ("m_left", "m_right"):
            assert set(np.unique(columns[key])) == {0, 1}, key

    def test_shard_columns_keep_their_types(self):
        bundle = make_bundle(num_users=4, distance_km=10.0)
        _, cos_table = _tables(bundle)
        args = (bundle.config, bundle.channel, 30011)
        want = oracle.generate_shard(*args, np.random.default_rng(0), cos_table)
        got, n_cand = montecarlo._generate_shard(*args, np.random.default_rng(0), cos_table)
        assert 0 < n_cand < 30011
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype, key

    @pytest.mark.parametrize("num_users", [3, 5])
    def test_run_protocol_equals_per_bin_oracle(self, monkeypatch, num_users):
        bundle = make_bundle(num_users=num_users, distance_km=10.0, dark_count_rate=1e-4)
        n_bins = 600001
        monkeypatch.setattr(montecarlo, "_SHARD_BINS", 1 << 17)  # five shards, the last partial
        got = run_protocol(bundle, n_bins, seed=8)
        # the oracle simulates every bin
        monkeypatch.setattr(
            montecarlo, "_generate_shard", lambda *a: (oracle.generate_shard(*a), a[2])
        )
        want = run_protocol(bundle, n_bins, seed=9)
        assert got.shards == want.shards == 5
        assert want.candidate_bins == n_bins > got.candidate_bins
        counts = lambda summary: [
            table[key]
            for table in (summary.retained_clicks, summary.sifted, summary.adjacent_total)
            for key in sorted(table)
        ]
        z = two_sample_z(counts(got), counts(want))
        assert z.size >= 20
        assert np.abs(z).max() <= 5.0


def ideal_columns(num_users):
    """Every phase-bit / raw-bit pattern of the ports at M = 4, one column each.

    Returns slice_left, slice_right, r_left, r_right and the noiseless
    announcement d, each of shape (ports, 2^(4 ports)); phase bit b sits
    at slice 2b (residue 0).
    """
    ports = num_users - 1
    patterns = np.array(list(itertools.product((0, 1), repeat=4 * ports)), dtype=np.int8).T
    m_left, m_right, r_left, r_right = (patterns[i::4] for i in range(4))
    d = m_left ^ r_left ^ m_right ^ r_right
    return 2 * m_left.astype(np.int16), 2 * m_right.astype(np.int16), r_left, r_right, d


def kernel_bits(slice_left, slice_right, r_left, r_right, d, m_slices):
    """``montecarlo._conference_bits`` on slices instead of phase bits."""
    phase = lambda s: (2 * s // m_slices).astype(np.int8)
    return montecarlo._conference_bits(r_left, r_right, phase(slice_left), phase(slice_right), d)


class TestExtractBits:
    @pytest.mark.parametrize("num_users", [3, 4])
    def test_exhaustive_ghz_agreement(self, num_users):
        # all phase-bit / random-bit patterns with ideal announcements:
        # every user's extracted bit must equal user 1's raw bit
        columns = ideal_columns(num_users)
        bits = kernel_bits(*columns, m_slices=4)
        assert bits.shape == (num_users, 2 ** (4 * (num_users - 1)))
        assert np.array_equal(bits[0], columns[2][0])  # user 1's raw bit, port-1 left slot
        assert (bits == bits[0]).all()

    def test_flipping_announcement_flips_downstream_users(self):
        for num_users in (3, 4):
            ports = num_users - 1
            slice_left, slice_right, r_left, r_right, d = ideal_columns(num_users)
            n = d.shape[1]
            # copy f of the patterns flips port f's announcement (copy 0 flips none)
            tile = lambda a: np.tile(a, ports + 1)
            flipped = tile(d)
            for f in range(1, num_users):
                flipped[f - 1, f * n : (f + 1) * n] ^= 1
            bits = kernel_bits(
                tile(slice_left), tile(slice_right), tile(r_left), tile(r_right), flipped, 4
            ).reshape(num_users, ports + 1, n)
            for f in range(1, num_users):
                changed = bits[:, f] != bits[:, 0]
                downstream = np.arange(num_users) >= f  # users f+1 .. N
                assert (changed == downstream[:, None]).all(), f

    @pytest.mark.parametrize("num_users", [3, 4])
    def test_matches_oracle_on_ideal_patterns(self, num_users):
        columns = ideal_columns(num_users)
        got = kernel_bits(*columns, m_slices=4)
        assert np.array_equal(got, oracle.coincidence_bits(*columns, m_slices=4))

    @pytest.mark.parametrize("num_users", range(3, 9))
    def test_matches_oracle_on_random_inputs(self, num_users):
        # any slices, bits and announcements, ideal or not
        m_slices, n = 16, 2000
        rng = np.random.default_rng(num_users)
        shape = (num_users - 1, n)
        slice_left, slice_right = rng.integers(0, m_slices, size=(2, *shape), dtype=np.int16)
        r_left, r_right, d = rng.integers(0, 2, size=(3, *shape), dtype=np.int8)
        columns = (slice_left, slice_right, r_left, r_right, d)
        got = kernel_bits(*columns, m_slices=m_slices)
        assert np.array_equal(got, oracle.coincidence_bits(*columns, m_slices=m_slices))


class TestRunProtocol:
    def test_ghz_invariant_small(self):
        # acceptance runs the full matrix; keep a quick version in unit tests
        for num_users in (3, 4, 5):
            bundle = make_bundle(num_users=num_users, distance_km=5.0, dark_count_rate=0.0)
            summary = run_protocol(bundle, 10**5, seed=13)
            assert summary.coincidences > 0
            assert summary.conference_errors_all_intensities == 0
            assert all(v == 0 for v in summary.adjacent_wrong.values())

    def test_reproducible_bit_for_bit(self):
        bundle = make_bundle(distance_km=20.0)
        a = run_protocol(bundle, 3 * 10**5, seed=21)
        b = run_protocol(bundle, 3 * 10**5, seed=21)
        assert a.to_dict() == b.to_dict()
        c = run_protocol(bundle, 3 * 10**5, seed=22)
        assert c.to_dict() != a.to_dict()

    def test_summary_to_dict_key_format(self):
        summary = run_protocol(make_bundle(distance_km=10.0), 20000, seed=1)
        d = summary.to_dict()
        assert json.loads(json.dumps(d)) == d
        # a tuple key is its parts' reprs joined by "|"
        assert d["retained_clicks"]["0.05|1|0"] == summary.retained_clicks[(0.05, 1, 0)]
        assert d["slice_totals"]["2|7"] == summary.slice_totals[(2, 7)]
        assert list(d["sifted"]) == ["0.0", "0.01", "0.05", "0.1"]
        assert list(d["adjacent_total"]) == ["1", "2"]
        assert list(d["conference_errors"]) == ["2", "3"]
        assert d["intensities"] == [0.1, 0.05, 0.01, 0.0]
        assert d["coincidences"] == summary.coincidences

    def test_matching_consumes_bins_once(self):
        bundle = make_bundle(distance_km=10.0)
        summary = run_protocol(bundle, 2 * 10**5, seed=31)
        half = bundle.config.phase_slices // 2
        expected_draws = 0
        for m in range(half):
            expected_draws += min(
                summary.slice_totals[(j, m)] for j in range(1, bundle.config.num_users)
            )
        assert summary.matched_draws == expected_draws
        assert summary.coincidences <= summary.matched_draws
        assert sum(summary.sifted.values()) == summary.coincidences

    def test_retained_totals_consistent(self):
        bundle = make_bundle(distance_km=10.0)
        summary = run_protocol(bundle, 2 * 10**5, seed=37)
        for (j, m), total in summary.slice_totals.items():
            parts = sum(
                summary.retained_clicks[(k, j, m)] for k in bundle.config.intensities
            )
            assert parts == total

    def test_candidate_bins_follow_the_thinning_law(self):
        # each shard draws Binomial(n, 1 - (1 - q)^P) candidate bins
        bundle = make_bundle(num_users=4, distance_km=25.0)
        n_bins = 3 * 10**6
        summary = run_protocol(bundle, n_bins, seed=17)
        _, cos_table = _tables(bundle)
        single, _ = montecarlo._port_tables(bundle.config, bundle.channel, cos_table)
        p = 1.0 - (1.0 - single.max()) ** (bundle.config.num_users - 1)
        z = (summary.candidate_bins - n_bins * p) / math.sqrt(n_bins * p * (1.0 - p))
        assert summary.candidate_bins <= n_bins
        assert abs(z) <= 5.0
        assert summary.shards == 3
        assert summary.to_dict()["candidate_bins"] == summary.candidate_bins
        assert summary.to_dict()["shards"] == 3

    def test_degenerate_channels_thin_to_nothing_or_everything(self):
        dark = make_bundle(dark_count_rate=0.0)
        blind = Bundle(
            config=dark.config,
            channel=dataclasses.replace(dark.channel, detector_efficiency=0.0),
            security=dark.security,
        )
        summary = run_protocol(blind, 20000, seed=3)  # max s = 0
        assert summary.candidate_bins == summary.coincidences == 0
        saturated = make_bundle(signal=50.0, distance_km=0.0, dark_count_rate=0.0)  # max s = 1
        summary = run_protocol(saturated, 20000, seed=3)
        assert summary.candidate_bins == 20000
        assert summary.coincidences > 0

    def test_num_bins_validated(self):
        with pytest.raises(ValueError):
            run_protocol(make_bundle(), 0, seed=1)

    def test_oracle_equivalence_short_run(self):
        bundle = make_bundle(distance_km=25.0, data_size=1e7)
        summary = run_protocol(bundle, 10**7, seed=42)
        report = compare_to_analytic(summary, bundle)
        assert len(report.checks) > 30
        assert report.clean, [c for c in report.checks if c.flagged]

    def test_error_statistics_with_inflated_darks(self):
        # realistic dark counts starve the error counters; inflate them so
        # the adjacent-error channel is actually exercised
        bundle = make_bundle(distance_km=25.0, dark_count_rate=1e-3)
        summary = run_protocol(bundle, 10**7, seed=43)
        report = compare_to_analytic(summary, bundle)
        adjacent = [c for c in report.checks if c.name.startswith("adjacent_error")]
        assert adjacent, report.skipped
        assert report.clean, [c for c in report.checks if c.flagged]

    def test_injected_discrepancy_is_flagged(self):
        bundle = make_bundle(distance_km=25.0)
        summary = run_protocol(bundle, 10**7, seed=44)
        skewed = Bundle(
            config=bundle.config,
            channel=type(bundle.channel)(0.70, 3.03e-9, 0.16, 25.0),
            security=bundle.security,
        )
        report = compare_to_analytic(summary, skewed)
        assert not report.clean
