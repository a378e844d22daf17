"""Exact tail probabilities of the Monte Carlo checks, stdlib only.

``poisson_flag`` is the chance that a Poisson count of mean mu lands
more than ``z`` standard deviations from it, summed term by term in
logarithms (``math.lgamma``).  ``chi2_flag`` is the chance that a
chi-square variable with nu degrees of freedom gets a Wilson-Hilferty z
beyond ``z``, from the regularized incomplete gamma function: its power
series below a + 1 and Lentz's continued fraction above (Numerical
Recipes, 3rd ed., section 6.2).
"""

from __future__ import annotations

import math

_EPS = 1e-17
_TINY = 1e-300


def _log_poisson(n: int, mu: float) -> float:
    return n * math.log(mu) - mu - math.lgamma(n + 1.0)


def _sum_terms(start: int, step: int, mu: float) -> float:
    """The Poisson probabilities of start, start + step, ... until they vanish or n < 0."""
    total, n = 0.0, start
    while n >= 0:
        term = math.exp(_log_poisson(n, mu))
        total += term
        if term <= total * _EPS and (n - mu) * step > 0:
            break
        n += step
    return total


def poisson_flag(mu: float, z: float = 5.0) -> float:
    """P(|N - mu| > z sqrt(mu)) for N ~ Poisson(mu)."""
    half_width = z * math.sqrt(mu)
    above = math.floor(mu + half_width) + 1
    below = math.ceil(mu - half_width) - 1
    return _sum_terms(above, 1, mu) + (_sum_terms(below, -1, mu) if below >= 0 else 0.0)


def _gamma_prefactor(a: float, x: float) -> float:
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_gamma(a: float, x: float) -> float:
    """The regularized lower incomplete gamma P(a, x) by its power series (x < a + 1)."""
    term = total = 1.0 / a
    n = 0
    while term > total * _EPS:
        n += 1
        term *= x / (a + n)
        total += term
    return total * _gamma_prefactor(a, x)


def _upper_gamma(a: float, x: float) -> float:
    """The regularized upper incomplete gamma Q(a, x) by Lentz's continued fraction (x >= a + 1)."""
    b = x + 1.0 - a
    c, d = 1.0 / _TINY, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) > _TINY else _TINY
        h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h * _gamma_prefactor(a, x)


def chi2_cdf(x: float, nu: int) -> float:
    """P(X <= x) for X ~ chi-square with nu degrees of freedom."""
    a, half = nu / 2.0, x / 2.0
    if half <= 0.0:
        return 0.0
    return _lower_gamma(a, half) if half < a + 1.0 else 1.0 - _upper_gamma(a, half)


def chi2_sf(x: float, nu: int) -> float:
    """P(X > x) for X ~ chi-square with nu degrees of freedom."""
    a, half = nu / 2.0, x / 2.0
    if half <= 0.0:
        return 1.0
    return 1.0 - _lower_gamma(a, half) if half < a + 1.0 else _upper_gamma(a, half)


def wilson_hilferty_x2(z: float, nu: int) -> float:
    """The chi-square value whose Wilson-Hilferty z is ``z`` (negative where none is)."""
    v = 2.0 / (9.0 * nu)
    root = 1.0 - v + z * math.sqrt(v)
    return nu * root**3


def chi2_flag(nu: int, z: float = 5.0) -> float:
    """P(|Wilson-Hilferty z| > z) for X^2 ~ chi-square with nu degrees of freedom."""
    low = wilson_hilferty_x2(-z, nu)
    return chi2_sf(wilson_hilferty_x2(z, nu), nu) + (chi2_cdf(low, nu) if low > 0.0 else 0.0)
