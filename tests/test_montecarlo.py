"""Protocol simulator: click tables, shard oracle, bit extraction, analytic agreement."""

import functools
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import montecarlo_oracles as oracle
from mfqcka import montecarlo
from mfqcka.channel import marginal_errors, total_efficiency
from mfqcka.model import Bundle
from mfqcka.montecarlo import compare_to_analytic, run_protocol
from mfqcka.matching import expected_stats
from mfqcka.model import SecurityParams, validate
from conftest import make_bundle, make_channel, make_geometric_config, make_many_users_bundle
from tail_oracles import chi2_sf, wilson_hilferty_x2


def _tables(bundle):
    m_slices = bundle.config.phase_slices
    cos_table = np.cos(2.0 * np.pi * np.arange(m_slices) / m_slices)
    return montecarlo._click_tables(bundle.config, bundle.channel, cos_table), cos_table


def package_shard(config, channel, n_bins, rng, cos_table):
    """``montecarlo._generate_shard`` called with the oracles' arguments."""
    tables = montecarlo._port_tables(config, channel, cos_table)
    return montecarlo._generate_shard(config, n_bins, rng, *tables)


def geometric_bundle(num_users):
    return validate(make_geometric_config(num_users), make_channel(50.0), SecurityParams(data_size=1e12))


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
        # users 2i and 2i+1 are the (left, right) users of candidate port i:
        # port 1 in the first trials candidates, port 2 in the last
        users = lambda pairs, dtype: np.repeat(np.array(pairs, dtype=dtype), trials, axis=0).ravel()
        hits, d_hit = montecarlo._detect_ports(
            (users([(0, 0), (0, 1)], np.int8), users([(0, 1), (1, 3)], np.int16),
             users([(0, 0), (0, 1)], np.int8)),
            np.arange(1, 4 * trials, 2, dtype=np.int32), single, right_given_single,
            np.random.default_rng(3),
        )
        assert hits.dtype == np.int32 and (np.diff(hits) > 0).all()
        success, d_val = np.zeros(2 * trials, dtype=bool), np.zeros(2 * trials, dtype=bool)
        success[hits], d_val[hits] = True, d_hit
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

    ``shard`` is ``package_shard`` or an oracle; ``n_bins`` run in chunks
    from one generator.
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
        got = retained_cells(package_shard, bundle, ORACLE_BINS[name], seed)
        assert_same_distribution(got, oracle_cells(name))

    def test_shard_equals_per_bin_oracle_with_many_candidate_ports(self):
        bundle = make_bundle(**BRIGHT_BUNDLE)
        n_bins = 1 << 20
        got = retained_cells(package_shard, bundle, n_bins, 0)
        assert_same_distribution(got, retained_cells(oracle.generate_shard, bundle, n_bins, 1))

    def test_phase_bits_at_the_largest_slice_count(self):
        # 2 s in int16 overflows past s = 16383
        bundle = make_bundle(distance_km=0.0, signal=1.0, phase_slices=32766)
        _, cos_table = _tables(bundle)
        columns, _ = package_shard(
            bundle.config, bundle.channel, 1 << 18, np.random.default_rng(1), cos_table
        )
        for key in ("m_left", "m_right"):
            assert set(np.unique(columns[key])) == {0, 1}, key

    def test_shard_columns_keep_their_types(self):
        bundle = make_bundle(num_users=4, distance_km=10.0)
        _, cos_table = _tables(bundle)
        args = (bundle.config, bundle.channel, 30011)
        want = oracle.generate_shard(*args, np.random.default_rng(0), cos_table)
        got, n_cand = package_shard(*args, np.random.default_rng(0), cos_table)
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
        _, cos_table = _tables(bundle)
        monkeypatch.setattr(
            montecarlo,
            "_generate_shard",
            lambda config, n, rng, *tables: (
                oracle.generate_shard(config, bundle.channel, n, rng, cos_table), n
            ),
        )
        want = run_protocol(bundle, n_bins, seed=9)
        assert got.shards == want.shards == 5
        assert want.candidate_bins == n_bins > got.candidate_bins
        counts = lambda summary: np.concatenate(
            [summary.retained_clicks.ravel(), summary.sifted, summary.adjacent_total]
        )
        z = two_sample_z(counts(got), counts(want))
        assert z.size >= 20
        assert np.abs(z).max() <= 5.0


# The shard against the reference of its draw order (montecarlo_oracles.
# reference_shard), bit for bit: N = 3, 5 and 8 at M = 16, N = 3 at the
# largest slice count, and a bright channel whose bins have several
# candidate ports.
DRAW_BUNDLES = {
    "N3-M16": lambda: make_bundle(num_users=3),
    "N5-M16": lambda: make_bundle(num_users=5),
    "N8-M16": lambda: geometric_bundle(8),
    "N3-M32766": lambda: make_bundle(num_users=3, phase_slices=32766),
    "bright": lambda: make_bundle(**BRIGHT_BUNDLE),
}


def assert_same_shard(got, want):
    (got_columns, got_cand), (want_columns, want_cand) = got, want
    assert got_cand == want_cand
    assert got_columns.keys() == want_columns.keys()
    for key, column in want_columns.items():
        assert got_columns[key].dtype == column.dtype, key
        assert np.array_equal(got_columns[key], column), key


class TestShardDrawOrder:
    """The shard draws the reference's numbers in the reference's order.

    Blocked draws, int32 indices and run-wide tables must leave every
    column, its dtype and the candidate count unchanged.
    """

    @pytest.mark.parametrize("n_bins", [1, 30011, 1 << 20])
    @pytest.mark.parametrize("name", DRAW_BUNDLES)
    def test_shard_equals_the_reference_bit_for_bit(self, name, n_bins):
        bundle = DRAW_BUNDLES[name]()
        _, cos_table = _tables(bundle)
        tables = montecarlo._port_tables(bundle.config, bundle.channel, cos_table)
        for seed in (0, 1, 2):
            want = oracle.reference_shard(
                bundle.config, bundle.channel, n_bins, np.random.default_rng(seed), cos_table
            )
            got = montecarlo._generate_shard(
                bundle.config, n_bins, np.random.default_rng(seed), *tables
            )
            assert_same_shard(got, want)

    @pytest.mark.parametrize("name", DRAW_BUNDLES)
    def test_block_size_does_not_move_a_draw(self, monkeypatch, name):
        # blocks of one row put a block boundary between every two rows;
        # almost every bright bin is a candidate, so fewer bins suffice there
        bundle = DRAW_BUNDLES[name]()
        _, cos_table = _tables(bundle)
        args = (bundle.config, bundle.channel, 3001 if name == "bright" else 30011)
        want = oracle.reference_shard(*args, np.random.default_rng(5), cos_table)
        monkeypatch.setattr(montecarlo, "_BLOCK", 1)
        assert_same_shard(package_shard(*args, np.random.default_rng(5), cos_table), want)

    @pytest.mark.parametrize("rows, width", [(0, 3), (1, 1), (10, 1), (7, 4), (100, 7)])
    def test_uniform_blocks_continue_one_stream(self, monkeypatch, rows, width):
        monkeypatch.setattr(montecarlo, "_BLOCK", 9)
        blocks = list(montecarlo._uniform_blocks(np.random.default_rng(4), rows, width))
        want = np.random.default_rng(4).random((rows, width)).ravel()
        assert [stop - start for start, stop, _ in blocks] == [
            u.size // width for _, _, u in blocks
        ]
        got = np.concatenate([np.zeros(0)] + [u for _, _, u in blocks])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "bundle",
        [make_bundle(num_users=3), make_bundle(**BRIGHT_BUNDLE), geometric_bundle(8),
         make_bundle(num_users=3, phase_slices=32766), make_many_users_bundle(20),
         make_bundle(signal=50.0, distance_km=0.0, dark_count_rate=0.0)],
        ids=["N3", "bright", "N8", "N3-M32766", "N20", "saturated"],
    )
    def test_port_tables_equal_the_reference(self, bundle):
        _, cos_table = _tables(bundle)
        got = montecarlo._port_tables(bundle.config, bundle.channel, cos_table)
        want = oracle.reference_port_tables(bundle.config, bundle.channel, cos_table)
        for table, reference in zip(got, want):
            assert np.array_equal(table, reference)

    def test_run_protocol_equals_a_run_on_the_reference_shard(self, monkeypatch):
        bundle = make_bundle(num_users=3, distance_km=10.0, dark_count_rate=1e-4)
        n_bins = 600001
        monkeypatch.setattr(montecarlo, "_SHARD_BINS", 1 << 17)  # five shards, the last partial
        got = run_protocol(bundle, n_bins, seed=8)
        _, cos_table = _tables(bundle)
        monkeypatch.setattr(
            montecarlo,
            "_generate_shard",
            lambda config, n, rng, *tables: oracle.reference_shard(
                config, bundle.channel, n, rng, cos_table
            ),
        )
        want = run_protocol(bundle, n_bins, seed=8)
        assert got.shards == 5 and got.coincidences > 0
        assert got.to_dict() == want.to_dict()


class TestShardWorkingSet:
    def test_run_protocol_builds_the_tables_once_and_keeps_none(self, monkeypatch):
        built = []

        def port_tables(*args):
            tables = port_tables.original(*args)
            built.extend(weakref.ref(table) for table in tables)
            return tables

        port_tables.original = montecarlo._port_tables
        monkeypatch.setattr(montecarlo, "_port_tables", port_tables)
        monkeypatch.setattr(montecarlo, "_SHARD_BINS", 1 << 17)
        summary = run_protocol(make_bundle(num_users=3), 3 << 17, seed=1)
        assert summary.shards == 3
        assert len(built) == 2
        assert all(ref() is None for ref in built)

    def test_an_n8_shard_stays_under_12_mb(self):
        # the stacked-pair shard with a float flag matrix peaked at 22.4 MB
        bundle = geometric_bundle(8)
        _, cos_table = _tables(bundle)
        tables = montecarlo._port_tables(bundle.config, bundle.channel, cos_table)
        tracemalloc.start()
        try:
            montecarlo._generate_shard(bundle.config, 1 << 20, np.random.default_rng(0), *tables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6


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
    """``montecarlo._conference_bits`` on the columns of ``oracle.coincidence_bits``.

    A port announced wrongly where d differs from the XOR of both users'
    phase and raw bits, as ``run_protocol`` counts it.
    """
    phase = lambda s: (2 * s // m_slices).astype(np.int8)
    wrong = (d ^ phase(slice_left) ^ r_left ^ phase(slice_right) ^ r_right).astype(bool)
    return montecarlo._conference_bits(r_left[0], wrong)


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


def counted_summary(bundle, bins):
    """A run of ``bins`` bins in the layout of ``run_protocol``, every retained count distinct."""
    config = bundle.config
    settings, ports, half = len(config.intensities), config.num_users - 1, config.phase_slices // 2
    retained = np.arange(settings * ports * half).reshape(settings, ports, half)
    counts = lambda size: np.arange(size) + 7
    return montecarlo.TrialSummary(
        bins, 0, config.num_users, config.phase_slices, config.intensities, retained, counts(settings),
        counts(ports) * 10**10, counts(ports), counts(ports), 0, 0, 0, 0, 1,
    )


class TestCompareToAnalytic:
    BUNDLE = make_bundle(num_users=4, distance_km=40.0)

    def test_checks_come_in_ladder_order(self):
        # one check per statistic: settings in the ladder order of the arrays, then ports
        config = self.BUNDLE.config
        ports = range(1, config.num_users)
        names = [f"retained[k={k!r},port={j}]" for k, j in itertools.product(config.intensities, ports)]
        names += [f"slice_homogeneity[port={j}]" for j in ports]
        names += [f"sifted[k={k!r}]" for k in config.intensities]
        names += [f"adjacent_error[port={j}]" for j in ports]
        report = compare_to_analytic(counted_summary(self.BUNDLE, 10**13), self.BUNDLE)
        checked = [c.name for c in report.checks]
        assert report.checks and report.skipped
        assert sorted(checked + list(report.skipped), key=names.index) == names
        assert checked == sorted(checked, key=names.index)
        assert list(report.skipped) == sorted(report.skipped, key=names.index)

    def test_each_check_reads_its_own_cell(self):
        config = self.BUNDLE.config
        half = config.phase_slices // 2
        summary = counted_summary(self.BUNDLE, 10**13)
        stats = expected_stats(config, self.BUNDLE.channel, SecurityParams(data_size=1e13))
        report = compare_to_analytic(summary, self.BUNDLE)
        checks = {c.name: c for c in report.checks}
        want = {}
        for (k, j), count in np.ndenumerate(summary.retained_clicks.sum(axis=2)):
            # each (setting, port) count pooled over the M/2 slices, against M/2 per-slice means
            want[f"retained[k={config.intensities[k]!r},port={j + 1}]"] = (count, half * stats.retained_clicks[k, j])
        for k, count in enumerate(summary.sifted):
            want[f"sifted[k={config.intensities[k]!r}]"] = (count, stats.sifted[k])
        for j, count in enumerate(summary.adjacent_wrong):
            want[f"adjacent_error[port={j + 1}]"] = (count, stats.adjacent_error * summary.adjacent_total[j])
        homogeneity = {n: c for n, c in checks.items() if n.startswith("slice_homogeneity")}
        assert len(checks) == 25 and "adjacent_error[port=3]" in checks and len(homogeneity) == 3
        for name, check in checks.items():
            if name in homogeneity:
                continue
            assert (check.observed, check.expected) == want[name], name
            assert type(check.observed) is int and type(check.expected) is float, name
            assert check.z == (check.observed - check.expected) / math.sqrt(check.expected), name
        for j, totals in enumerate(summary.retained_clicks.sum(axis=0).tolist(), 1):
            # Pearson's X^2 given the port's total, against nu = M/2 - 1, and its Wilson-Hilferty z
            check = homogeneity[f"slice_homogeneity[port={j}]"]
            mean = sum(totals) / len(totals)
            x2 = sum((n - mean) ** 2 for n in totals) / mean
            nu, v = half - 1, 2.0 / (9.0 * (half - 1))
            assert check.observed == pytest.approx(x2, rel=1e-13) and check.expected == float(nu)
            assert type(check.observed) is float and type(check.expected) is float
            assert check.z == pytest.approx(((x2 / nu) ** (1 / 3) - (1.0 - v)) / math.sqrt(v), rel=1e-12)

    def test_unequal_slices_flag_their_port_homogeneity_only(self):
        # every count at its analytic mean, each slice total off by its own
        # square root, alternately up and down, so that X^2 is about M/2
        bundle, bins = self.BUNDLE, 10**11
        half = bundle.config.phase_slices // 2
        stats = expected_stats(bundle.config, bundle.channel, SecurityParams(data_size=float(bins)))
        retained = np.rint(np.repeat(stats.retained_clicks[:, :, None], half, axis=2)).astype(np.int64)
        retained[0] += np.rint(np.sqrt(retained.sum(axis=0))).astype(np.int64) * (-1) ** np.arange(half)
        adjacent_total = retained[0].sum(axis=1)

        def flagged():
            summary = montecarlo.TrialSummary(
                bins, 0, bundle.config.num_users, bundle.config.phase_slices, bundle.config.intensities, retained,
                np.rint(stats.sifted).astype(np.int64), adjacent_total,
                np.rint(stats.adjacent_error * adjacent_total).astype(np.int64), np.zeros(3, np.int64), 0, 0, 0, 0, 1,
            )
            report = compare_to_analytic(summary, bundle)
            assert sum(c.name.startswith("slice_homogeneity") for c in report.checks) == 3
            return [c.name for c in report.checks if c.flagged]

        assert flagged() == []
        # port 2's first two slices tilted by 10 standard deviations, at the same port total
        shift = int(10 * math.sqrt(retained[:, 1, 0].sum()))
        retained[0, 1, :2] += (shift, -shift)
        assert flagged() == ["slice_homogeneity[port=2]"]


class TestSliceHomogeneity:
    @pytest.mark.parametrize("nu, rows", [(7, 200_000), (31, 100_000)])
    def test_multinomial_slices_follow_the_chi_square_tail(self, nu, rows):
        # one port's slice totals given their sum, at a mean of 10 per slice,
        # the smallest that is checked; the upper tail at z = 3 as chi-square has it
        slices = nu + 1
        counts = np.random.default_rng(nu).multinomial(10 * slices, [1.0 / slices] * slices, size=rows)
        mean = counts.mean(axis=1, keepdims=True)
        z = montecarlo._wilson_hilferty((np.square(counts - mean) / mean).sum(axis=1), nu)
        p = chi2_sf(wilson_hilferty_x2(3.0, nu), nu)
        seen = np.count_nonzero(z > 3.0)
        assert abs(seen - rows * p) <= 5.0 * math.sqrt(rows * p * (1.0 - p)), (seen, rows * p)


@functools.lru_cache(maxsize=None)
def signal_shares(distances=(0.0, 10.0), bins=4 * 10**6):
    """Per distance: the signal's retained clicks, all retained clicks and the formula's share, per port.

    N = 4 users over M = 4 slices; a signal of 2.0 photons sent with
    probability 0.05, decoys from 0.06 down to the vacuum.
    """
    readings = []
    for seed, distance in enumerate(distances, 60):
        bundle = make_bundle(
            num_users=4, distance_km=distance, signal=2.0, probs=(0.05, 0.5, 0.3, 0.1, 0.05), phase_slices=4
        )
        summary = run_protocol(bundle, bins, seed=seed)
        stats = expected_stats(bundle.config, bundle.channel, SecurityParams(data_size=float(bins)))
        signal = summary.retained_clicks[0].sum(axis=1)
        shares = stats.retained_clicks[0] / stats.retained_clicks.sum(axis=0)
        readings.append((signal, summary.retained_clicks.sum(axis=(0, 2)), shares))
    return readings


class TestSignalShare:
    """The signal's share of a port's retained clicks rises with distance.

    For a bright signal sent rarely, loss removes the clicks of the dim
    decoys faster than those of the signal, and fewer neighbouring ports
    click to compete with the signal for the relay's one announcement.  So
    the formula's share of the signal rises over the first kilometres, and
    with it the sifted signal count, although every coincidence needs a
    photon from every user.  The simulator must show the same shares and
    the same rise.
    """

    def test_each_port_has_the_formula_share(self):
        for signal, total, share in signal_shares():
            assert signal.min() >= 2000
            z = (signal - total * share) / np.sqrt(total * share * (1.0 - share))
            assert np.abs(z).max() <= 5.0, z

    def test_the_share_rises_with_distance_as_the_formula_says(self):
        (signal_near, total_near, share_near), (signal_far, total_far, share_far) = signal_shares()
        assert (share_far > share_near).all()
        seen_near, seen_far = signal_near / total_near, signal_far / total_far
        assert (seen_far > seen_near).all()
        sigma = np.sqrt(share_near * (1.0 - share_near) / total_near + share_far * (1.0 - share_far) / total_far)
        z = ((seen_far - seen_near) - (share_far - share_near)) / sigma
        assert np.abs(z).max() <= 5.0, z


class TestRunProtocol:
    def test_ghz_invariant_small(self):
        # acceptance runs the full matrix; keep a quick version in unit tests
        for num_users in (3, 4, 5):
            bundle = make_bundle(num_users=num_users, distance_km=5.0, dark_count_rate=0.0)
            summary = run_protocol(bundle, 10**5, seed=13)
            assert summary.coincidences > 0
            assert summary.conference_errors_all_intensities == 0
            assert not summary.adjacent_wrong.any()

    def test_reproducible_bit_for_bit(self):
        bundle = make_bundle(distance_km=20.0)
        a = run_protocol(bundle, 3 * 10**5, seed=21)
        b = run_protocol(bundle, 3 * 10**5, seed=21)
        assert a.to_dict() == b.to_dict()
        c = run_protocol(bundle, 3 * 10**5, seed=22)
        assert c.to_dict() != a.to_dict()

    def test_summary_to_dict_layout(self):
        summary = run_protocol(make_bundle(distance_km=10.0), 20000, seed=1)
        d = summary.to_dict()
        assert json.loads(json.dumps(d)) == d
        # every count is nested lists: [setting, port, slice], settings in ladder order
        assert d["intensities"] == [0.1, 0.05, 0.01, 0.0]
        assert np.shape(d["retained_clicks"]) == (4, 2, 8)
        assert d["retained_clicks"][1][0][0] == summary.retained_clicks[1, 0, 0]
        for name, size in [("sifted", 4), ("adjacent_total", 2), ("adjacent_wrong", 2), ("conference_errors", 2)]:
            assert len(d[name]) == size and all(type(v) is int for v in d[name]), name
        assert d["coincidences"] == summary.coincidences == sum(d["sifted"])

    def test_matching_consumes_bins_once(self):
        bundle = make_bundle(distance_km=10.0)
        summary = run_protocol(bundle, 2 * 10**5, seed=31)
        assert summary.matched_draws == summary.retained_clicks.sum(axis=0).min(axis=0).sum()
        assert summary.coincidences <= summary.matched_draws
        assert summary.sifted.sum() == summary.coincidences

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
            channel=dark.channel._replace(detector_efficiency=0.0),
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
        assert len(report.checks) >= 10
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

    @pytest.mark.parametrize(
        "num_users, dark_count_rate", [(3, 1e-3), (5, 1e-3), (4, 1e-4)], ids=["N3-1e-3", "N5-1e-3", "N4-1e-4"]
    )
    def test_conference_errors_follow_the_piling_up_lemma(self, num_users, dark_count_rate):
        # user j's sifted signal bits disagree with user 1's at the rate E_1j
        # that the model charges error correction for, against binomial noise
        bundle = make_bundle(num_users=num_users, distance_km=50.0, dark_count_rate=dark_count_rate)
        summary = run_protocol(bundle, 10**7, seed=1)
        stats = expected_stats(bundle.config, bundle.channel, SecurityParams(data_size=1e7))
        rates = marginal_errors(np.array(stats.adjacent_error), num_users)
        signal = summary.sifted[0]
        z = (summary.conference_errors - signal * rates) / np.sqrt(signal * rates * (1.0 - rates))
        assert summary.conference_errors.shape == (num_users - 1,) and signal >= 300
        assert np.abs(z).max() <= 5.0, z

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
        assert any(c.flagged for c in report.checks if c.name.startswith("retained[")), report.checks
