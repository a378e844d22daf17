"""Numeric kernels against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfqcka.special_math import bessel_i0, binary_entropy


def i0_series(x: float, terms: int = 80) -> float:
    """Power-series oracle: sum (x/2)^(2k) / (k!)^2, truncated at machine precision."""
    return math.fsum((0.5 * x) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("endpoint", [0.0, 1.0])
    def test_endpoint_convention(self, endpoint):
        assert binary_entropy(endpoint) == 0.0

    def test_direct_evaluation(self):
        # frozen from the defining formula at 64-bit precision
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-14)

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, 2.0])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestBesselI0:
    def test_at_zero(self):
        assert bessel_i0(0.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "x,expected", [(1.0, 1.2660658777520084), (2.0, 2.2795853023360673)]
    )
    def test_series_values(self, x, expected):
        assert bessel_i0(x) == pytest.approx(expected, rel=1e-13)

    def test_series_oracle_grid(self):
        xs = np.linspace(0.0, 20.0, 1000)
        values = bessel_i0(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-12 * i0_series(x)

    def test_series_oracle_on_the_whole_domain(self):
        # x = eta_t * sqrt(ka*kb) <= 50 for eta_t <= 1/2 and intensities <= 100
        xs = np.concatenate([np.linspace(0.0, 50.0, 2001), np.logspace(-12.0, math.log10(50.0), 400)])
        values = bessel_i0(xs)
        for x, v in zip(xs, values):
            assert abs(v - i0_series(x)) <= 1e-14 * i0_series(x)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_i0(-1.0)

    def test_array_shape(self):
        xs = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert bessel_i0(xs).shape == (2, 2)
        assert isinstance(bessel_i0(1.0), float)

