"""Protocol simulator: click tables, shard oracle, bit extraction, analytic agreement."""

import itertools
import math

import numpy as np
import pytest

import montecarlo_oracles as oracle
from mfqcka import montecarlo
from mfqcka.channel import total_efficiency
from mfqcka.model import Bundle
from mfqcka.montecarlo import TimeBinRecord, compare_to_analytic, extract_bits, run_protocol
from conftest import make_bundle


def _tables(bundle):
    m_slices = bundle.config.phase_slices
    cos_table = np.cos(2.0 * np.pi * np.arange(m_slices) / m_slices)
    return montecarlo._click_tables(bundle.config, bundle.channel, cos_table), cos_table


ORACLE_BUNDLES = {
    f"N{n}-M{m}": dict(num_users=n, phase_slices=m) for n in (3, 4, 5) for m in (4, 16)
}
ORACLE_BUNDLES["N3-darks"] = dict(num_users=3, distance_km=120.0, dark_count_rate=2e-2)


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
        # port 1: both users on the signal, slices 0 and 1, equal bits;
        # port 2: signal against the first decoy, slices 1 and 3, opposite bits
        bundle = make_bundle(distance_km=5.0, dark_count_rate=1e-3)
        (p_left, p_right), _ = _tables(bundle)
        trials = 2 * 10**5
        column = lambda values, dtype: np.repeat(np.array(values, dtype=dtype)[:, None], trials, axis=1)
        success, d_val = montecarlo._detect_ports(
            column([0, 0, 1], np.int8), column([0, 1, 3], np.int16), column([0, 0, 1], np.int8),
            p_left, p_right, np.random.default_rng(3),
        )
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
            checks = [
                (success[j].sum(), click_l * (1 - click_r) + (1 - click_l) * click_r),
                ((success[j] & (d_val[j] == 1)).sum(), (1 - click_l) * click_r),
            ]
            for observed, p in checks:
                z = (observed - trials * p) / math.sqrt(trials * p * (1 - p))
                assert abs(z) <= 5.0


class TestShardOracle:
    @pytest.mark.parametrize("kwargs", ORACLE_BUNDLES.values(), ids=ORACLE_BUNDLES.keys())
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shard_equals_per_bin_oracle(self, kwargs, seed):
        bundle = make_bundle(**kwargs)
        _, cos_table = _tables(bundle)
        n_bins = 30011  # not a power of two
        args = (bundle.config, bundle.channel, n_bins)
        want = oracle.generate_shard(*args, np.random.default_rng(seed), cos_table)
        got = montecarlo._generate_shard(*args, np.random.default_rng(seed), cos_table)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("num_users", [3, 5])
    def test_run_protocol_equals_per_bin_oracle(self, monkeypatch, num_users):
        bundle = make_bundle(num_users=num_users, distance_km=10.0, dark_count_rate=1e-4)
        monkeypatch.setattr(montecarlo, "_SHARD_BINS", 1 << 15)  # five shards, the last partial
        got = run_protocol(bundle, 140001, seed=8).to_dict()
        monkeypatch.setattr(montecarlo, "_generate_shard", oracle.generate_shard)
        want = run_protocol(bundle, 140001, seed=8).to_dict()
        assert got == want


def ideal_record(port, m_slices, k, slice_left, slice_right, r_left, r_right, num_users):
    """Build a retained bin with the noiseless announcement for one port."""
    phase_bit = lambda s: 2 * s // m_slices
    d = (phase_bit(slice_left) ^ r_left ^ phase_bit(slice_right) ^ r_right) & 1
    intensities = [0.0] * num_users
    slices = [0] * num_users
    bits = [0] * num_users
    intensities[port - 1], intensities[port] = k, k
    slices[port - 1], slices[port] = slice_left, slice_right
    bits[port - 1], bits[port] = r_left, r_right
    outcomes = ["none"] * (num_users - 1)
    outcomes[port - 1] = "right" if d else "left"
    return TimeBinRecord(
        intensities=tuple(intensities),
        slice_indices=tuple(slices),
        bits=tuple(bits),
        outcomes=tuple(outcomes),
        selected_port=port,
        announced_d=d,
        phase_slices=m_slices,
    )


def coincidence_from_pattern(num_users, m_slices, values):
    """values[j] = (slice_left, slice_right, r_left, r_right) for port j+1."""
    return [
        ideal_record(j + 1, m_slices, 0.1, *values[j], num_users)
        for j in range(num_users - 1)
    ]


class TestExtractBits:
    @pytest.mark.parametrize("num_users", [3, 4])
    def test_exhaustive_ghz_agreement(self, num_users):
        # all phase-bit / random-bit patterns with ideal announcements:
        # every user's extracted bit must equal user 1's raw bit
        m_slices = 4
        ports = num_users - 1
        slice_of = lambda bit: 0 if bit == 0 else 2  # phase bit 0 / 1, residue 0
        for pattern in itertools.product((0, 1), repeat=4 * ports):
            values = [
                (
                    slice_of(pattern[4 * j]),
                    slice_of(pattern[4 * j + 1]),
                    pattern[4 * j + 2],
                    pattern[4 * j + 3],
                )
                for j in range(ports)
            ]
            coincidence = coincidence_from_pattern(num_users, m_slices, values)
            bits = extract_bits(coincidence)
            assert len(bits) == num_users
            assert all(b == bits[0] for b in bits), pattern
            assert bits[0] == pattern[2]  # user 1's raw bit, port-1 left slot

    def test_flipping_announcement_flips_downstream_users(self):
        num_users, m_slices = 4, 4
        rng = np.random.default_rng(5)
        for _ in range(200):
            values = [tuple(int(rng.integers(2)) * 2 if i < 2 else int(rng.integers(2)) for i in range(4)) for _ in range(num_users - 1)]
            coincidence = coincidence_from_pattern(num_users, m_slices, values)
            base = extract_bits(coincidence)
            for flip_port in range(1, num_users):
                flipped = list(coincidence)
                rec = flipped[flip_port - 1]
                flipped[flip_port - 1] = TimeBinRecord(
                    intensities=rec.intensities,
                    slice_indices=rec.slice_indices,
                    bits=rec.bits,
                    outcomes=rec.outcomes,
                    selected_port=rec.selected_port,
                    announced_d=rec.announced_d ^ 1,
                    phase_slices=rec.phase_slices,
                )
                new = extract_bits(flipped)
                changed = {j + 1 for j in range(num_users) if new[j] != base[j]}
                assert changed == set(range(flip_port + 1, num_users + 1))

    def test_missing_announcement_rejected(self):
        coincidence = coincidence_from_pattern(3, 4, [(0, 0, 0, 0), (0, 0, 0, 0)])
        broken = coincidence[1]
        coincidence[1] = TimeBinRecord(
            intensities=broken.intensities,
            slice_indices=broken.slice_indices,
            bits=broken.bits,
            outcomes=("none", "none"),
            selected_port=2,
            announced_d=None,
            phase_slices=4,
        )
        with pytest.raises(ValueError, match="announcement"):
            extract_bits(coincidence)

    def test_port_order_enforced(self):
        coincidence = coincidence_from_pattern(3, 4, [(0, 0, 0, 0), (0, 0, 0, 0)])
        with pytest.raises(ValueError, match="port"):
            extract_bits(list(reversed(coincidence)))


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
