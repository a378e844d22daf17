"""The package's records: what importing them costs, and the contracts they keep."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfqcka
from mfqcka import matching, optimizer
from mfqcka.decoy import ObservedCounts
from mfqcka.model import (
    Bundle,
    ChannelParams,
    CoincidenceStats,
    DecoyBounds,
    RateReport,
    SecurityParams,
    SourceConfig,
    jsonable,
)
from mfqcka.montecarlo import ComparisonReport, StatCheck, TrialSummary
from mfqcka.optimizer import SearchSpec
from conftest import make_bundle, make_channel, make_config

# Run in a fresh interpreter with the collector on or off: the collections
# that importing the package starts, the collector's state and the growth of
# the permanent generation afterwards, and whether the CLI loads dataclasses.
_IMPORT_PROBE = """
import gc, json, sys
gc.enable() if sys.argv[1] == "on" else gc.disable()
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
frozen = gc.get_freeze_count()
import mfqcka
readings = {"collections": len(starts), "enabled": gc.isenabled(), "frozen": gc.get_freeze_count() - frozen}
import mfqcka.cli
readings["dataclasses"] = "dataclasses" in sys.modules
print(json.dumps(readings))
"""


@pytest.fixture(scope="module", params=["on", "off"])
def import_readings(request):
    env = {**os.environ, "PYTHONPATH": str(Path(mfqcka.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, request.param], capture_output=True, text=True, env=env
    )
    assert run.returncode == 0, run.stderr
    return request.param == "on", json.loads(run.stdout.splitlines()[-1])


def test_importing_the_package_runs_no_collection(import_readings):
    _, readings = import_readings
    assert readings["collections"] == 0


def test_importing_the_package_leaves_the_collector_as_it_found_it(import_readings):
    enabled, readings = import_readings
    assert readings["enabled"] is enabled


def test_importing_the_package_freezes_what_it_built(import_readings):
    _, readings = import_readings
    assert readings["frozen"] > 10_000  # numpy and the package: some 30,000 objects


def test_the_cli_does_not_load_dataclasses(import_readings):
    _, readings = import_readings
    assert readings["dataclasses"] is False


_CONFIG = SourceConfig(3, 0.4, [0.1, 0.01, 0], (0.5, 0.3, 0.15, 0.05), 16)
_CHANNEL = ChannelParams(0.77, 3.03e-9, 0.16, 50.0)
_SECURITY = SecurityParams(1e12)
# [setting, port, slice] of N = 3 users over M = 4 slices
_RETAINED = np.array([[[2, 0], [1, 0]], [[0, 0], [0, 1]]])
_CHECK = StatCheck("sifted[k=0.4]", 12, 10.0, 0.6324555320336759, False)

# One record of every type, and its repr: ``Name(field=value, ...)``.
RECORDS = {
    "ChannelParams": (
        _CHANNEL,
        "ChannelParams(detector_efficiency=0.77, dark_count_rate=3.03e-09, fiber_alpha=0.16, distance_km=50.0)",
    ),
    "SourceConfig": (
        _CONFIG,
        "SourceConfig(num_users=3, signal_intensity=0.4, decoy_intensities=(0.1, 0.01, 0.0), "
        "send_probabilities=(0.5, 0.3, 0.15, 0.05), phase_slices=16)",
    ),
    "SecurityParams": (
        _SECURITY,
        "SecurityParams(data_size=1000000000000.0, eps_ec=1e-15, eps_pa=1e-10, eps_chernoff=1e-10, "
        "ec_efficiency=1.1)",
    ),
    "Bundle": (
        Bundle(_CONFIG, _CHANNEL, _SECURITY),
        "Bundle(config=SourceConfig(num_users=3, signal_intensity=0.4, decoy_intensities=(0.1, 0.01, 0.0), "
        "send_probabilities=(0.5, 0.3, 0.15, 0.05), phase_slices=16), channel=ChannelParams("
        "detector_efficiency=0.77, dark_count_rate=3.03e-09, fiber_alpha=0.16, distance_km=50.0), "
        "security=SecurityParams(data_size=1000000000000.0, eps_ec=1e-15, eps_pa=1e-10, "
        "eps_chernoff=1e-10, ec_efficiency=1.1))",
    ),
    "CoincidenceStats": (
        CoincidenceStats(np.array([[2.5, 2.5], [0.5, 0.5]]), np.array([1.5, 0.0]), 0.25),
        "CoincidenceStats(retained_clicks=array([[2.5, 2.5],\n       [0.5, 0.5]]), "
        "sifted=array([1.5, 0. ]), adjacent_error=0.25)",
    ),
    "DecoyBounds": (
        DecoyBounds({0: 1.0, 2: 0.5}, 0.3, (2,), 7),
        "DecoyBounds(s_mu_n_lower={0: 1.0, 2: 0.5}, phase_error_upper=0.3, clamped=(2,), "
        "chernoff_applications=7)",
    ),
    "RateReport": (
        RateReport(1e-5, 1e-5, 2e-4, 0.3, 0.01, 0.02, 5.0, _CONFIG, 50.0, 1e12, "finite", (0.02, 0.01),
                   {0.4: 5.0}, {0: 1.0, 2: 0.5}, 3.5, 7, 3e-10),
        "RateReport(key_rate=1e-05, key_rate_raw=1e-05, multicast_bound=0.0002, phase_error_upper=0.3, "
        "adjacent_error=0.01, worst_marginal_error=0.02, sifted_signal=5.0, params_used=SourceConfig("
        "num_users=3, signal_intensity=0.4, decoy_intensities=(0.1, 0.01, 0.0), send_probabilities=(0.5, "
        "0.3, 0.15, 0.05), phase_slices=16), distance_km=50.0, data_size=1000000000000.0, mode='finite', "
        "marginal_errors=(0.02, 0.01), sifted={0.4: 5.0}, s_mu_n_lower={0: 1.0, 2: 0.5}, "
        "correction_bits=3.5, chernoff_applications=7, failure_budget=3e-10)",
    ),
    "ObservedCounts": (
        ObservedCounts({0.4: 10.0, 0.0: 1.0}, {0.4: 0.5, 0.0: 0.5}),
        "ObservedCounts(sifted={0.4: 10.0, 0.0: 1.0}, probabilities={0.4: 0.5, 0.0: 0.5})",
    ),
    "SearchSpec": (
        SearchSpec(restarts=2, seed=7),
        "SearchSpec(intensity_bounds=(0.0001, 1.0), prob_bounds=(0.001, 0.99), restarts=2, "
        "max_evals=2000, tolerance=1e-09, seed=7)",
    ),
    "TrialSummary": (
        TrialSummary(100, 1, 3, 4, (0.4, 0.0), _RETAINED, np.array([1, 0]),
                     np.array([2, 1]), np.array([0, 0]), np.array([1, 0]), 1, 1, 2, 5, 1),
        "TrialSummary(bins=100, seed=1, num_users=3, phase_slices=4, intensities=(0.4, 0.0), "
        "retained_clicks=array([[[2, 0],\n        [1, 0]],\n\n       [[0, 0],\n        [0, 1]]]), "
        "sifted=array([1, 0]), adjacent_total=array([2, 1]), "
        "adjacent_wrong=array([0, 0]), conference_errors=array([1, 0]), "
        "conference_errors_all_intensities=1, coincidences=1, matched_draws=2, candidate_bins=5, shards=1)",
    ),
    "StatCheck": (
        _CHECK,
        "StatCheck(name='sifted[k=0.4]', observed=12, expected=10.0, z=0.6324555320336759, flagged=False)",
    ),
    "ComparisonReport": (
        ComparisonReport((_CHECK,), ("slice_homogeneity[port=1]",)),
        "ComparisonReport(checks=(StatCheck(name='sifted[k=0.4]', observed=12, expected=10.0, "
        "z=0.6324555320336759, flagged=False),), skipped=('slice_homogeneity[port=1]',))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_changed(name):
    record, _ = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record.__match_args__[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_repr(name):
    record, text = RECORDS[name]
    assert repr(record) == text


def test_config_records_hash_and_compare_by_value():
    bundle, twin = make_bundle(), make_bundle()
    pairs = [
        (bundle, twin), (bundle.config, twin.config), (bundle.channel, twin.channel),
        (bundle.security, twin.security), (SearchSpec(seed=5), SearchSpec(seed=5)),
    ]
    for record, same in pairs:
        assert record is not same
        assert record == same and hash(record) == hash(same)
    assert bundle.channel != make_channel(51.0)
    # They key the count-matrix, search-box and presample-pool caches.
    matching._count_matrix(bundle.config, bundle.channel, 1e12)
    hits = matching._count_matrix.cache_info().hits
    matching._count_matrix(twin.config, twin.channel, 1e12)
    assert matching._count_matrix.cache_info().hits == hits + 1
    assert optimizer._box(3, SearchSpec(seed=5)) is optimizer._box(3, SearchSpec(seed=5))
    assert optimizer._presample_pool(SearchSpec(seed=5), 3) is optimizer._presample_pool(SearchSpec(seed=5), 3)


def _float_tuples(config):
    return all(
        type(values) is tuple and all(type(x) is float for x in values)
        for values in (config.decoy_intensities, config.send_probabilities)
    )


def test_source_config_holds_float_tuples():
    config = SourceConfig(
        num_users=3, signal_intensity=0.4, decoy_intensities=[1, 0.5, 0],
        send_probabilities=[0.5, 0.25, 0.125, 0.125], phase_slices=16,
    )
    assert config.decoy_intensities == (1.0, 0.5, 0.0) and _float_tuples(config)
    assert _float_tuples(optimizer._to_config(optimizer._from_config(make_config()), make_config()))


def test_rate_report_default_mappings_are_immutable():
    report = RateReport(0.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, _CONFIG, 50.0, 1e12, "finite")
    for mapping in (report.sifted, report.s_mu_n_lower):
        with pytest.raises(TypeError):
            mapping[0] = 1.0
        assert mapping == {}


@pytest.mark.parametrize("name", ["TrialSummary", "ComparisonReport", "RateReport"])
def test_jsonable_makes_a_record_an_object(name):
    record, _ = RECORDS[name]
    data = jsonable(record)
    assert list(data) == list(record.__match_args__)
    assert json.loads(json.dumps(data)) == data
    if name == "ComparisonReport":
        assert data["checks"] == [jsonable(_CHECK)] and data["checks"][0]["name"] == "sifted[k=0.4]"
    if name == "TrialSummary":
        assert data["retained_clicks"] == [[[2, 0], [1, 0]], [[0, 0], [0, 1]]]
        assert data["conference_errors"] == [1, 0]
    if name == "RateReport":
        assert data["params_used"]["decoy_intensities"] == [0.1, 0.01, 0.0]
