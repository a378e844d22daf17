"""Numeric kernels against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfqcka.special_math import _entropy, _i0_minus_one_rule, _i0_rule, _sum_along


def i0_series(x: float, terms: int = 80, start: int = 0) -> float:
    """Power-series oracle: sum (x/2)^(2k) / (k!)^2 from k = ``start``, truncated at machine precision."""
    return math.fsum((0.5 * x) ** (2 * k) / math.factorial(k) ** 2 for k in range(start, terms))


def entropy(x: float) -> float:
    return float(_entropy(np.asarray(x)))


def i0(x: float) -> float:
    return float(_i0_rule(np.asarray(x)))


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert entropy(0.5) == 1.0

    @pytest.mark.parametrize("endpoint", [0.0, 1.0])
    def test_endpoint_convention(self, endpoint):
        assert entropy(endpoint) == 0.0

    def test_direct_evaluation(self):
        # frozen from the defining formula at 64-bit precision
        assert entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-14)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, x):
        assert entropy(x) == pytest.approx(entropy(1.0 - x), abs=1e-12)


class TestBesselI0:
    def test_at_zero(self):
        assert i0(0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "x,expected", [(1.0, 1.2660658777520084), (2.0, 2.2795853023360673)]
    )
    def test_series_values(self, x, expected):
        assert i0(x) == pytest.approx(expected, rel=1e-13)

    def test_series_oracle_grid(self):
        xs = np.linspace(0.0, 20.0, 1000)
        values = _i0_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-12 * i0_series(x)

    def test_series_oracle_on_the_whole_domain(self):
        # x = eta_t * sqrt(ka*kb) <= 50 for eta_t <= 1/2 and intensities <= 100
        xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-12.0, math.log10(50.0), 400)])
        values = _i0_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-14 * i0_series(x)

    def test_array_shape(self):
        xs = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert _i0_rule(xs).shape == (2, 2)

    @pytest.mark.parametrize(
        "xs",
        [
            [[1.0, 20.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [3.0, 50.0, 0.0, 0.0]],
            [[0.0, 1.0, 20.0], [0.0, 0.5, 0.0], [0.0, 3.0, 50.0]],
            [[1.0, 0.0, 20.0, 0.0, 7.0], [0.5, 0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 50.0, 0.0, 2.0]],
        ],
        ids=["trailing", "leading", "between"],
    )
    def test_vacuum_columns_skip_the_rule(self, xs):
        # columns that are 0 in every row, as the gain table's vacuum pairs, wherever they sit
        xs = np.array(xs)
        values = _i0_rule(xs)
        assert values.shape == xs.shape
        assert np.array_equal(values, _i0_rule(xs.ravel()).reshape(xs.shape))
        for x, v in zip(xs.ravel(), values.ravel()):
            assert abs(v - i0_series(x)) <= 1e-14 * i0_series(x)
        assert (values[:, ~xs.any(axis=0)] == 1.0).all()
        assert i0(0.0) == 1.0  # the rule's own value there



class TestBesselI0MinusOne:
    def test_series_oracle_on_the_whole_domain(self):
        # I0(x) - 1 falls like x^2 / 4, far below what I0(x) - 1 as written keeps.
        # Measured: at most 5.3e-15 relative, near x = 50.
        xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-12.0, math.log10(50.0), 400)])
        values = _i0_minus_one_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x, start=1)) <= 1e-14 * i0_series(x, start=1)


# (shape with n in place of the summed axis, summed axis): rows first, rows
# last, and the transfer-chain step's (node, setting, setting, row) block
LAYOUTS = [(("rows", "n"), 1), (("n", "rows"), 0), ((3, 4, "n", "rows"), 2)]


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("layout, axis", LAYOUTS, ids=["rows-first", "rows-last", "chain"])
def test_sum_along_adds_in_the_order_of_a_contiguous_last_axis(layout, axis, n):
    """Bit for bit the transposed-and-copied sum, also where fewer than 8 terms are summed in place."""
    rng = np.random.default_rng(n)
    shape = tuple({"rows": 37, "n": n}.get(d, d) for d in layout)
    # signed terms over 16 decades, so the order of the additions shows in the bits
    terms = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    want = np.add.reduce(np.moveaxis(terms, axis, -1).copy(), axis=-1)
    got = _sum_along(terms, axis)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
