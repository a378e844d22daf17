"""Numeric kernels against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfqcka.special_math import _entropy, _i0_minus_one_rule, _sum_along


def i0_series(x: float, terms: int = 80, start: int = 0) -> float:
    """Power-series oracle: sum (x/2)^(2k) / (k!)^2 from k = ``start``, truncated at machine precision."""
    return math.fsum((0.5 * x) ** (2 * k) / math.factorial(k) ** 2 for k in range(start, terms))


def entropy(x: float) -> float:
    return float(_entropy(np.asarray(x)))


def i0_rule(xs: np.ndarray) -> np.ndarray:
    """I0 of an array as the package evaluates it, 1 + (I0 - 1)."""
    return 1.0 + _i0_minus_one_rule(xs)


def i0(x: float) -> float:
    return float(i0_rule(np.asarray(x)))


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
        values = i0_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-12 * i0_series(x)

    def test_series_oracle_on_the_whole_domain(self):
        # x = eta_t * sqrt(ka*kb) <= 50 for eta_t <= 1/2 and intensities <= 100
        xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-12.0, math.log10(50.0), 400)])
        values = i0_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-14 * i0_series(x)

    def test_array_shape(self):
        xs = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert i0_rule(xs).shape == (2, 2)


class TestBesselI0MinusOne:
    def test_series_oracle_on_the_whole_domain(self):
        # I0(x) - 1 falls like x^2 / 4, far below what I0(x) - 1 as written keeps.
        # Measured: at most 5.3e-15 relative, near x = 50.
        xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-12.0, math.log10(50.0), 400)])
        values = _i0_minus_one_rule(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x, start=1)) <= 1e-14 * i0_series(x, start=1)

    @pytest.mark.parametrize(
        "xs",
        [
            [1.0, 20.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 50.0],
            [3.0, 0.0, 0.0, 7.0, 1e-9],
            [[1.0, 20.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [3.0, 50.0, 0.0, 0.0]],
            [[0.0, 1.0, 20.0], [0.0, 0.5, 0.0], [0.0, 3.0, 50.0]],
            [[1.0, 0.0, 20.0, 0.0, 7.0], [0.5, 0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 50.0, 0.0, 2.0]],
            [[0.0, 2.0, 0.0, 0.3], [4.0, 0.0, 1e-6, 0.0], [0.0, 0.0, 0.0, 0.0]],
            [[[0.0, 2.0], [0.3, 0.0]], [[0.0, 0.0], [45.0, 1e-3]], [[8.0, 0.0], [0.0, 0.0]]],
            [[[1.0, 2.0, 0.0]], [[0.0, 0.0, 0.0]], [[0.0, 5.0, 0.0]]],
        ],
        ids=[
            "1d-trailing", "1d-leading", "1d-between", "2d-trailing", "2d-leading", "2d-between",
            "2d-scattered", "3d-scattered", "3d-leading-and-trailing",
        ],
    )
    def test_zero_elements_skip_the_rule(self, xs):
        # exactly +0.0 at every 0 wherever it sits (as the gain table's pairs
        # with the vacuum, where 4 sinh^2(0) = 0 too), and bit for bit the
        # value each other element gets alone
        xs = np.array(xs)
        values = _i0_minus_one_rule(xs)
        assert values.shape == xs.shape
        zero = xs == 0.0
        assert zero.any() and not zero.all()
        assert np.array_equal(values[zero].view(np.int64), np.zeros(zero.sum(), dtype=np.int64))
        alone = np.array([_i0_minus_one_rule(np.asarray(x)) for x in xs[~zero].tolist()])
        assert np.array_equal(values[~zero].view(np.int64), alone.view(np.int64))


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
