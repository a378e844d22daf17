"""Shared builders for the standard simulation parameter sets."""

import pytest

from mfqcka.model import Bundle, ChannelParams, SecurityParams, SourceConfig, validate

# Methods-section hardware values used throughout the tests.
DETECTOR_EFFICIENCY = 0.77
DARK_COUNT_RATE = 3.03e-9
FIBER_ALPHA = 0.16
EC_EFFICIENCY = 1.1
PHASE_SLICES = 16

DECOYS = {
    3: (0.05, 0.01, 0.0),
    4: (0.06, 0.02, 0.008, 0.0),
    5: (0.07, 0.03, 0.012, 0.005, 0.0),
}
PROBS = {
    3: (0.4, 0.3, 0.2, 0.1),
    4: (0.35, 0.25, 0.18, 0.12, 0.10),
    5: (0.30, 0.22, 0.17, 0.13, 0.10, 0.08),
}


def make_channel(distance_km: float, dark_count_rate: float = DARK_COUNT_RATE) -> ChannelParams:
    return ChannelParams(
        detector_efficiency=DETECTOR_EFFICIENCY,
        dark_count_rate=dark_count_rate,
        fiber_alpha=FIBER_ALPHA,
        distance_km=distance_km,
    )


def make_config(
    num_users: int = 3,
    signal: float = 0.1,
    decoys: tuple | None = None,
    probs: tuple | None = None,
    phase_slices: int = PHASE_SLICES,
) -> SourceConfig:
    return SourceConfig(
        num_users=num_users,
        signal_intensity=signal,
        decoy_intensities=decoys if decoys is not None else DECOYS[num_users],
        send_probabilities=probs if probs is not None else PROBS[num_users],
        phase_slices=phase_slices,
    )


def make_geometric_config(num_users: int) -> SourceConfig:
    """Any user count: decoys halve from 0.1 down to the vacuum, signal 0.2."""
    decoys = tuple(0.1 * 0.5**i for i in range(num_users - 1)) + (0.0,)
    probs = (0.5,) + (0.5 / num_users,) * num_users
    return make_config(num_users, signal=0.2, decoys=decoys, probs=probs)


def make_bundle(
    num_users: int = 3,
    distance_km: float = 50.0,
    data_size: float = 1e12,
    dark_count_rate: float = DARK_COUNT_RATE,
    **config_kwargs,
) -> Bundle:
    return validate(
        make_config(num_users, **config_kwargs),
        make_channel(distance_km, dark_count_rate),
        SecurityParams(data_size=data_size, ec_efficiency=EC_EFFICIENCY),
    )


def make_many_users_bundle(num_users: int, phase_slices: int = PHASE_SLICES) -> Bundle:
    """Any user count at 5 km and 1e6 pulses: decoys fall by 3% a step from 0.1, then the vacuum."""
    decoys = tuple(0.1 * 0.97**i for i in range(num_users - 1)) + (0.0,)
    probs = (0.5,) + (0.5 / num_users,) * num_users
    return make_bundle(
        num_users=num_users, distance_km=5.0, data_size=1e6, signal=0.2, decoys=decoys,
        probs=probs, phase_slices=phase_slices,
    )


@pytest.fixture
def paper_channel_50km() -> ChannelParams:
    return make_channel(50.0)
