"""Physical invariants of the rate kernel, checked on whole batches of random ladders.

Each (users, mode) pair that ``keyrate._check_mode`` rates, up to 8 users,
is rated on the first 64 ladders of the optimizer's seeded presample pool
(``_sample_starts`` seeded with the user count), at 0-350 km in 5 km
steps, at three dark-count rates and a data size of 1e13.  A ladder is
rated over all its channels in one kernel pass, one channel per row, as
``keyrate.rate_reports`` rates a scan.
"""

import functools
import random

import numpy as np
import pytest

from mfqcka import keyrate, optimizer
from mfqcka.channel import total_efficiency
from mfqcka.model import ChannelParams, ConfigError, SecurityParams
from conftest import DETECTOR_EFFICIENCY, FIBER_ALPHA, make_geometric_config

LADDERS = 64
DISTANCES = np.arange(0.0, 351.0, 5.0)
DARK_COUNT_RATES = (3.03e-9, 1e-6, 1e-4)
SECURITY = SecurityParams(data_size=1e13)


def _rated(max_users):
    """The (users, mode) pairs that the kernel rates, up to ``max_users`` users."""
    for n in range(3, max_users + 1):
        for mode in keyrate.MODES:
            try:
                keyrate._check_mode(n, mode)
            except ConfigError:
                continue
            yield n, mode


# The pairs whose exact-mode ladders break both invariants: each has a bright
# signal that is rarely sent.  Whether the matcher's port selection or a
# model defect makes the count rise is open.
_RISING = {
    (6, "asymptotic-exact"): "ladders 12, 44 and 56 gain up to 4.7% per 5 km step between 0 and 10 km",
    (8, "asymptotic-exact"): "ladders 23, 37, 39 and 42 gain up to 16.5% per 5 km step between 0 and 20 km",
}


def _cases():
    for n, mode in _rated(8):
        reason = _RISING.get((n, mode))
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(n, mode, marks=marks, id=f"{mode}-n{n}")


@functools.lru_cache(maxsize=None)
def _grid(num_users, mode):
    """Sifted signal, ``key_rate_raw`` and cause, each shaped (ladder, dark-count rate, distance)."""
    points = optimizer._sample_starts(random.Random(num_users), LADDERS, num_users, optimizer.SearchSpec())
    ints, probs = optimizer._ladders(points, num_users)
    channels = [
        ChannelParams(DETECTOR_EFFICIENCY, p_d, FIBER_ALPHA, float(d)) for p_d in DARK_COUNT_RATES for d in DISTANCES
    ]
    eta_t = np.array([total_efficiency(channel) for channel in channels])
    p_d = np.array([channel.dark_count_rate for channel in channels])
    config = make_geometric_config(num_users)  # lends the kernel its user and slice counts
    sifted, raw, cause = [], [], []
    for ladder, ladder_probs in zip(ints, probs):
        layers = keyrate._rate_chunk(
            np.tile(ladder, (len(channels), 1)), np.tile(ladder_probs, (len(channels), 1)),
            config, eta_t, p_d, SECURITY, mode,
        )
        sifted.append(layers.sifted[:, 0])
        raw.append(layers.key_rate_raw)
        cause.append(layers.cause)
    shape = (LADDERS, len(DARK_COUNT_RATES), len(DISTANCES))
    return tuple(np.reshape(values, shape) for values in (sifted, raw, cause))


def _rises(values, cause, counted):
    """(ladder, dark-count rate, from km, to km, relative rise) of each step where ``values`` grows."""
    rated = (cause[..., :-1] == 0) & (cause[..., 1:] == 0)
    rows, darks, steps = np.nonzero(rated & counted & (values[..., 1:] > values[..., :-1]))
    return [
        (int(r), DARK_COUNT_RATES[k], float(DISTANCES[i]), float(DISTANCES[i + 1]),
         float(values[r, k, i + 1] / values[r, k, i] - 1.0))
        for r, k, i in zip(rows, darks, steps)
    ]


@pytest.mark.parametrize("num_users,mode", _cases())
def test_sifted_signal_does_not_rise_with_distance(num_users, mode):
    """Every arm's transmittance falls as its fiber lengthens, and a sifted
    coincidence needs a photon from every user to reach the relay, so the
    sifted signal count should never grow with the distance."""
    sifted, _, cause = _grid(num_users, mode)
    assert _rises(sifted, cause, True) == []


@pytest.mark.parametrize("num_users,mode", _cases())
def test_a_positive_rate_does_not_rise_with_distance(num_users, mode):
    """Loss only removes signal and dark counts only add errors, so where a
    key rate survives, a longer fiber should never raise it."""
    _, raw, cause = _grid(num_users, mode)
    assert _rises(raw, cause, raw[..., 1:] > 0.0) == []
