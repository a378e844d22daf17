"""Tests of the benchmark itself: span arithmetic, output checks, metric names.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Outcome, Workload  # noqa: E402


def _tree(rows):
    """Span arrays from rows of (name, layer, parent, start, end, status, flag)."""
    names = sorted({(r[0], r[1]) for r in rows})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": np.asarray([n for n, _ in names]),
        "layers": np.asarray([layer for _, layer in names]),
        "name_id": np.asarray([index[(r[0], r[1])] for r in rows], dtype=np.int32),
        "parent": np.asarray([r[2] for r in rows], dtype=np.int32),
        "start": np.asarray([r[3] for r in rows], dtype=float),
        "end": np.asarray([r[4] for r in rows], dtype=float),
        "status": np.asarray([r[5] for r in rows], dtype=np.int8),
        "flag": np.asarray([r[6] for r in rows], dtype=np.int8),
    }


# cli.main [0, 10]
#   optimizer.scan_distances [1, 9]
#     optimizer.optimize_at_distance [1.5, 8.5]
#       keyrate.finite_rate [2, 5]            -> returns
#         matching.sifted_coincidences [2.5, 4]
#           matching._count_matrix [3, 3.5]
#         decoy.bounds_3user_finite [4, 4.5]  -> clamped
#       keyrate.finite_rate [6, 7]            -> infeasible
#   keyrate.asymptotic_rate [9.2, 9.7]        (not under the optimizer)
SYNTHETIC = [
    ("cli.main", "cli", -1, 0.0, 10.0, 0, 0),
    ("optimizer.scan_distances", "optimizer", 0, 1.0, 9.0, 0, 0),
    ("optimizer.optimize_at_distance", "optimizer", 1, 1.5, 8.5, 0, 0),
    ("keyrate.finite_rate", "keyrate", 2, 2.0, 5.0, 0, 0),
    ("matching.sifted_coincidences", "matching", 3, 2.5, 4.0, 0, 0),
    ("matching._count_matrix", "matching", 4, 3.0, 3.5, 0, 0),
    ("decoy.bounds_3user_finite", "decoy", 3, 4.0, 4.5, 0, 1),
    ("keyrate.finite_rate", "keyrate", 2, 6.0, 7.0, spans.INFEASIBLE, 0),
    ("keyrate.asymptotic_rate", "keyrate", 0, 9.2, 9.7, 0, 0),
]


def test_self_time_subtracts_direct_children_only():
    t = _tree(SYNTHETIC)
    own = spans.self_times(t["parent"], t["start"], t["end"])
    expected = [10 - 8 - 0.5, 8 - 7, 7 - 3 - 1, 3 - 1.5 - 0.5, 1.5 - 0.5, 0.5, 0.5, 1.0, 0.5]
    assert own == pytest.approx(expected)
    # Self times partition the root span.
    assert own.sum() == pytest.approx(10.0)


def test_layer_metrics_on_synthetic_tree():
    m = spans.layer_metrics(_tree(SYNTHETIC), bins=1000, span_cost_s=0.01)
    assert set(m) == set(run.PER_LAYER_UNITS) - {
        "setup.import_s", "matching.cache_hit_frac", "photonstats.weight_cache_misses",
        "montecarlo.sift_frac"}
    assert m["cli.self_s"] == pytest.approx(1.5)
    # Nested optimizer spans count once in busy time.
    assert m["optimizer.busy_s"] == pytest.approx(8.0)
    assert m["optimizer.self_s"] == pytest.approx(1.0 + 3.0)
    # Nested matching spans count once in calls and busy time.
    assert m["matching.calls"] == 1
    assert m["matching.busy_s"] == pytest.approx(1.5)
    assert m["keyrate.busy_s"] == pytest.approx(4.5)
    assert m["keyrate.self_s"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert m["keyrate.evals_per_s"] == pytest.approx(3 / 4.5)
    # Only the two rate calls under the optimizer are evaluations.
    assert m["optimizer.evals"] == 2
    assert m["optimizer.infeasible_frac"] == pytest.approx(0.5)
    assert m["decoy.calls"] == 1 and m["decoy.clamped_frac"] == 1.0
    assert m["photonstats.calls"] == 0 and m["montecarlo.shard_ns_per_bin"] == 0.0
    # Nine spans at 10 ms each over the 10 s root span.
    assert m["trace.overhead_frac"] == pytest.approx(9 * 0.01 / 10.0)


def test_shard_time_per_bin():
    rows = [
        ("montecarlo.run_protocol", "montecarlo", -1, 0.0, 4.0, 0, 0),
        ("montecarlo._generate_shard", "montecarlo", 0, 0.5, 1.5, 0, 0),
        ("montecarlo._generate_shard", "montecarlo", 0, 1.5, 3.5, 0, 0),
    ]
    m = spans.layer_metrics(_tree(rows), bins=3_000_000)
    assert m["montecarlo.shard_ns_per_bin"] == pytest.approx(1e9 * 3.0 / 3_000_000)
    assert m["montecarlo.match_pass_s"] == pytest.approx(1.0)
    assert m["montecarlo.busy_s"] == pytest.approx(4.0)


def test_span_cost_is_small_and_positive():
    assert 0.0 <= spans.span_cost_s(calls=2000, repeats=2) < 1e-4


def test_tracer_wraps_and_restores_every_boundary():
    from mfqcka import keyrate, matching, photonstats
    from mfqcka.model import ChannelParams, SourceConfig

    originals = {
        (mod, attr): getattr(__import__(mod, fromlist=["x"]), attr)
        for mod, attr, _ in spans.BOUNDARIES
    }
    decoy_originals = dict(keyrate._DECOY_ASYMPTOTIC)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert photonstats._count_matrix is not originals[("mfqcka.photonstats", "_count_matrix")]
        assert keyrate._DECOY_ASYMPTOTIC[3] is not decoy_originals[3]
        config = SourceConfig(3, 0.1, (0.05, 0.01, 0.0), (0.4, 0.3, 0.2, 0.1), 16)
        channel = ChannelParams(0.77, 3.03e-9, 0.16, 37.0)
        keyrate.asymptotic_rate(config, channel, mode="exact")
        keyrate.asymptotic_rate(config, channel, mode="decoy")
    finally:
        tracer.restore()
    for (mod, attr), fn in originals.items():
        assert getattr(__import__(mod, fromlist=["x"]), attr) is fn
    assert keyrate._DECOY_ASYMPTOTIC == decoy_originals
    assert matching._count_matrix is originals[("mfqcka.matching", "_count_matrix")]

    called = {tracer.names[i] for i in tracer.name_id}
    assert {"keyrate.asymptotic_rate", "photonstats.phase_error_exact",
            "matching.sifted_coincidences", "matching._count_matrix",
            "decoy.bounds_3user_asymptotic"} <= called
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


# -- output checks ---------------------------------------------------------------

REFERENCE = (BENCH / "reference" / "scan-n4-exact.csv").read_text()


def test_exact_scan_check_accepts_reference_and_rejects_corruption():
    good = workloads.check_scan_n4(REFERENCE, REFERENCE)
    assert good.ok and good.rate > 0.0
    lines = REFERENCE.splitlines()
    cells = lines[100].split(",")
    cells[3] = format(float(cells[3]) * 1.001, ".9e")  # key_rate off by 0.1%
    corrupted = "\n".join(lines[:100] + [",".join(cells)] + lines[101:]) + "\n"
    assert not workloads.check_scan_n4(corrupted, REFERENCE).ok
    assert not workloads.check_scan_n4("\n".join(lines[:-1]) + "\n", REFERENCE).ok
    assert not workloads.check_scan_n4("", REFERENCE).ok


def _scan_n3_csv(rates):
    rows = ["distance_km,key_rate"] + [f"{d:.9e},{r:.9e}" for d, r in zip((50, 150, 250), rates)]
    return "\n".join(rows) + "\n"


def test_finite_scan_check():
    assert workloads.check_scan_n3(_scan_n3_csv([1.447e-4, 2.2e-6, 1.7e-8])).ok
    assert not workloads.check_scan_n3(_scan_n3_csv([1.2e-4, 2.2e-6, 1.7e-8])).ok
    assert not workloads.check_scan_n3(_scan_n3_csv([1.447e-4, 2.2e-6, 0.0])).ok
    assert not workloads.check_scan_n3("distance_km,key_rate\n50,oops\n").ok


def test_optimize_check():
    report = "distance_km = 2.800000000e+02\nkey_rate = {}\nmulticast_bound = 1.58e-09\n"
    assert workloads.check_optimize_n5(report.format("9.46e-09")).ok
    assert not workloads.check_optimize_n5(report.format("1.00e-09")).ok
    assert not workloads.check_optimize_n5("key_rate = 1\n").ok


def _simulate_report(zs):
    checks = [{"name": f"c{i}", "z": z, "flagged": abs(z) > 5} for i, z in enumerate(zs)]
    summary = {"bins": 1000, "coincidences": 30, "matched_draws": 50}
    return json.dumps({"summary": summary, "comparison": {"checks": checks}})


def test_simulate_check_rejects_flagged_report():
    good = workloads.check_simulate(_simulate_report([0.3, -2.0]))
    assert good.ok and good.rate == 0.03 and good.extra["sift_frac"] == 0.6
    assert not workloads.check_simulate(_simulate_report([0.3, 6.1])).ok
    assert not workloads.check_simulate(_simulate_report([])).ok
    assert not workloads.check_simulate("{}").ok


def test_workload_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.document(7) == w.document(7)
        assert w.argv("c.json", 7) == w.argv("c.json", 7)
    assert workloads.WORKLOADS["simulate-n3"].argv("c.json", 7) != workloads.WORKLOADS[
        "simulate-n3"].argv("c.json", 8)
    assert workloads.WORKLOADS["scan-n3-finite"].document(7)["optimizer"]["seed"] == 7


# -- names -------------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_units_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, unit in {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert NAME.fullmatch(w["name"])
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200


# -- end-to-end metrics ------------------------------------------------------------


def _sample(wall, setup, cal, ok=True):
    return run.Sample(seed=0, traced=False, exit_code=0, wall_s=wall, setup_s=setup,
                      peak_rss_mb=40.0, ok=ok, rate=1e-8, detail="", cal_s=cal)


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_CAL_S
    # The same work measured while the machine ran at full, half and two-thirds speed.
    samples = [_sample(2.0, 0.2, ref), _sample(4.0, 0.4, 2 * ref), _sample(3.0, 0.3, 1.5 * ref),
               _sample(9.0, 9.0, ref, ok=False)]
    m = run.end_to_end(samples)
    assert m["wall_s"] == pytest.approx(2.0)
    assert m["setup_s"] == pytest.approx(0.2)
    assert m["ok_frac"] == pytest.approx(0.75)
    assert m["rate_per_bin"] == 1e-8 and m["peak_rss_mb"] == 40.0


def test_calibrator_answers_each_request():
    calibrator = run.Calibrator()
    try:
        times = [calibrator.measure() for _ in range(2)]
    finally:
        calibrator.close()
    assert all(0.0 < t < 10.0 for t in times)
    assert calibrator.proc.returncode == 0


# -- one real process ------------------------------------------------------------

def _rate_check(work, stdout):
    rate = float(workloads.parse_report(stdout)["key_rate"])
    return Outcome(ok=rate > 0.0, rate=rate)


TINY = Workload(
    name="tiny",
    why="a single asymptotic rate point",
    items=1,
    document=lambda seed: workloads.WORKLOADS["simulate-n3"].document(seed),
    argv=lambda cfg, seed: ["rate", cfg, "--objective", "asymptotic"],
    check=_rate_check,
)


@pytest.mark.parametrize("traced", [False, True])
def test_run_process_measures_one_cli_call(tmp_path, traced):
    sample = run.run_process(TINY, 1, traced, tmp_path / "p")
    assert sample.ok, sample.detail
    assert 0.0 < sample.setup_s < sample.wall_s
    assert sample.peak_rss_mb > 0.0
    if traced:
        assert sample.layers["decoy.calls"] == 1
        assert sample.layers["keyrate.busy_s"] > 0.0
        assert 0.0 < sample.layers["trace.overhead_frac"] < 0.5
        assert set(sample.layers) == set(run.PER_LAYER_UNITS)
    else:
        assert not math.isnan(sample.rate) and not sample.layers
