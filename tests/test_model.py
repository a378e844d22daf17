"""Validation and serialization of the parameter bundle."""

import json

import pytest

from mfqcka.model import (
    ChannelParams,
    ConfigError,
    SecurityParams,
    SourceConfig,
    bundle_from_dict,
    validate,
)
from conftest import make_bundle, make_channel, make_config


def test_paper_parameters_accepted():
    channel = ChannelParams(0.77, 3.03e-9, 0.16, 50.0)
    config = make_config()
    sec = SecurityParams(data_size=1e14, ec_efficiency=1.1)
    bundle = validate(config, channel, sec)
    assert bundle.channel is channel
    assert bundle.config.intensities == (0.1, 0.05, 0.01, 0.0)


def test_nonmonotone_intensities_rejected():
    config = make_config(signal=0.2, decoys=(0.05, 0.1, 0.0), probs=(0.4, 0.3, 0.2, 0.1))
    with pytest.raises(ConfigError, match="strictly decreasing"):
        validate(config, make_channel(10.0), SecurityParams(1e10))


def test_probability_normalization_rejected():
    config = make_config(probs=(0.4, 0.3, 0.1, 0.1))  # sums to 0.9
    with pytest.raises(ConfigError, match="sum to 1"):
        validate(config, make_channel(10.0), SecurityParams(1e10))


def test_vacuum_must_be_last_and_unique():
    with pytest.raises(ConfigError, match="vacuum"):
        validate(
            make_config(decoys=(0.05, 0.01, 0.001)),
            make_channel(10.0),
            SecurityParams(1e10),
        )
    with pytest.raises(ConfigError, match="second zero"):
        validate(
            make_config(decoys=(0.05, 0.0, 0.0)),
            make_channel(10.0),
            SecurityParams(1e10),
        )


def test_decoy_count_must_match_users():
    with pytest.raises(ConfigError, match="decoy_intensities"):
        validate(
            SourceConfig(3, 0.1, (0.05, 0.0), (0.5, 0.3, 0.2), 16),
            make_channel(10.0),
            SecurityParams(1e10),
        )


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("detector_efficiency", 1.2, "detector_efficiency"),
        ("dark_count_rate", 1.0, "dark_count_rate"),
        ("fiber_alpha", 0.0, "fiber_alpha"),
        ("distance_km", -1.0, "distance_km"),
    ],
)
def test_channel_invariants(field, value, message):
    kwargs = dict(detector_efficiency=0.77, dark_count_rate=3e-9, fiber_alpha=0.16, distance_km=10.0)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=message):
        validate(make_config(), ChannelParams(**kwargs), SecurityParams(1e10))


def test_security_invariants():
    with pytest.raises(ConfigError, match="eps_pa"):
        validate(make_config(), make_channel(10.0), SecurityParams(1e10, eps_pa=0.0))
    with pytest.raises(ConfigError, match="ec_efficiency"):
        validate(make_config(), make_channel(10.0), SecurityParams(1e10, ec_efficiency=0.9))
    with pytest.raises(ConfigError, match="data_size"):
        validate(make_config(), make_channel(10.0), SecurityParams(0.5))


def test_phase_slices_even():
    with pytest.raises(ConfigError, match="phase_slices"):
        validate(make_config(phase_slices=7), make_channel(10.0), SecurityParams(1e10))


def test_serialization_round_trip_bit_exact():
    bundle = make_bundle(num_users=4, distance_km=123.456, data_size=3.03e13)
    doc = json.loads(json.dumps(bundle.to_dict()))
    again = bundle_from_dict(doc)
    assert again.config == bundle.config
    assert again.channel == bundle.channel
    assert again.security == bundle.security
    # awkward float survives the round trip exactly
    assert again.channel.dark_count_rate == 3.03e-9


def test_bundle_from_dict_reports_missing_field():
    doc = make_bundle().to_dict()
    del doc["source"]["signal_intensity"]
    with pytest.raises(ConfigError, match="source.signal_intensity"):
        bundle_from_dict(doc)


def test_rate_report_to_dict_is_plain_json():
    from mfqcka.keyrate import rate_report

    bundle = make_bundle(distance_km=10.0)
    report = rate_report(bundle.config, bundle.channel, bundle.security, "finite")
    d = report.to_dict()
    assert json.loads(json.dumps(d)) == d
    assert d["params_used"] == bundle.to_dict()["source"]
    assert set(d["sifted"]) == {repr(k) for k in report.sifted} == {"0.1", "0.05", "0.01", "0.0"}
    assert set(d["s_mu_n_lower"]) == {str(n) for n in report.s_mu_n_lower} == {"0", "2"}
    assert d["sifted"]["0.05"] == report.sifted[0.05]
    assert d["key_rate"] == report.key_rate and d["mode"] == "finite"
