"""Command-line behaviour: exit codes, CSV shape, determinism."""

import contextlib
import copy
import csv
import gc
import io
import json
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from mfqcka.cli import EXIT_CONFIG, EXIT_CONSISTENCY, EXIT_OK, _scan_distances, main
from mfqcka.channel import error_terms
from mfqcka.model import ConfigError, DegenerateChannelError
from conftest import make_bundle, make_geometric_config, make_many_users_bundle


@pytest.fixture
def config_path(tmp_path):
    doc = make_bundle(distance_km=50.0, data_size=1e12).to_dict()
    doc["optimizer"] = {"restarts": 2, "max_evals": 200, "seed": 5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_rate_prints_intermediates(config_path, capsys):
    assert main(["rate", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    for key in (
        "key_rate =",
        "key_rate_raw =",
        "multicast_bound =",
        "phase_error_upper =",
        "sifted[",
        "s_mu_0_lower =",
    ):
        assert key in out


class Node:
    """A tracked object that can refer to itself."""


def test_main_freezes_only_the_heap_it_starts_with(config_path, capsys):
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["rate", config_path, "--bound-only"]) == EXIT_OK  # its argv list, at least, is frozen
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() > frozen
    cycle = Node()
    cycle.self = cycle
    collected = weakref.ref(cycle)
    del cycle
    gc.collect()
    assert collected() is None


def test_rate_asymptotic_modes(config_path, capsys):
    assert main(["rate", config_path, "--objective", "asymptotic", "--mode", "exact"]) == EXIT_OK
    assert "mode = asymptotic-exact" in capsys.readouterr().out


def test_optimize_exact_mode_optimizes_exact_rate(config_path, capsys):
    argv = ["optimize", config_path, "--objective", "asymptotic", "--mode", "exact",
            "--restarts", "1", "--max-evals", "10"]
    assert main(argv) == EXIT_OK
    assert "mode = asymptotic-exact" in capsys.readouterr().out


def test_scan_optimize_exact_mode_evaluates_exact_rates(config_path, tmp_path, monkeypatch):
    from mfqcka import keyrate

    modes = []
    rate = keyrate.asymptotic_rate

    def spy(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return rate(*args, **kwargs)

    monkeypatch.setattr(keyrate, "asymptotic_rate", spy)
    argv = ["scan", config_path, "--from", "50", "--to", "50", "--step", "10", "--optimize",
            "--objective", "asymptotic", "--mode", "exact", "--restarts", "1",
            "--max-evals", "10", "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == EXIT_OK
    assert modes and set(modes) == {"exact"}


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "{cfg}"],
        ["scan", "{cfg}", "--from", "50", "--to", "50", "--step", "10"],
        ["scan", "{cfg}", "--from", "50", "--to", "50", "--step", "10", "--optimize"],
        ["optimize", "{cfg}"],
    ],
    ids=["rate", "scan", "scan-optimize", "optimize"],
)
def test_finite_objective_rejects_exact_mode(config_path, capsys, argv):
    argv = [a.format(cfg=config_path) for a in argv] + ["--objective", "finite", "--mode", "exact"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "--mode exact" in err


def test_bound_only(config_path, capsys):
    assert main(["rate", config_path, "--bound-only", "--distance", "100"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "multicast_bound = 9.105663264e-04"


def test_bound_only_writes_no_csv_so_out_is_rejected(config_path, tmp_path, capsys):
    out = tmp_path / "bound.csv"
    assert main(["rate", config_path, "--bound-only", "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--bound-only" in captured.err and "--out" in captured.err
    assert not out.exists()


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"channel": {",')
    assert main(["rate", str(bad)]) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [(b'{"channel": "\xe9"}', "not UTF-8: byte 13 is 0xe9"), (b"[" * 200000, "nested too deeply")],
    ids=["latin-1", "deep-nesting"],
)
def test_unreadable_config_exit_code(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["rate", str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_validation_error_names_field(tmp_path, capsys):
    doc = make_bundle().to_dict()
    doc["source"]["send_probabilities"] = [0.4, 0.3, 0.1, 0.1]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    assert main(["rate", str(path)]) == EXIT_CONFIG
    assert "sum to 1" in capsys.readouterr().err


# Values that a validation error echoes; "NESTED" stands for a list nested 900 deep.
_LONG_VALUES = {
    "long-string": ("channel", "dark_count_rate", "9" * 100_000),
    "long-bounds": ("optimizer", "intensity_bounds", [0.1] * 100_000),
    "deep-nesting": ("source", "signal_intensity", "NESTED"),
    "long-key": ("source", "x" * 100_000, 1),
}


@pytest.mark.parametrize("section,key,value", _LONG_VALUES.values(), ids=_LONG_VALUES)
def test_validation_error_cuts_a_long_value(tmp_path, capsys, section, key, value):
    doc = dict(make_bundle().to_dict(), optimizer={})
    doc[section][key] = value
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc).replace('"NESTED"', "[" * 900 + "]" * 900))
    assert main(["rate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 200


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "{cfg}", "--distance", "-50"],
        ["scan", "{cfg}", "--from", "-20", "--to", "0", "--step", "10"],
        ["scan", "{cfg}", "--optimize", "--from", "-20", "--to", "0", "--step", "10"],
        ["scan", "{cfg}", "--from", "0", "--to", "inf", "--step", "10"],
        ["simulate", "{cfg}", "--bins", "1000", "--dark-counts", "1.5"],
        ["simulate", "{cfg}", "--bins", "0"],
        ["simulate", "{cfg}", "--bins", "1000", "--seed", "-1"],
        ["rate", "{cfg}", "--distance", "inf"],
        ["optimize", "{cfg}", "--distance", "inf"],
        ["simulate", "{cfg}", "--bins", "1000", "--distance", "inf"],
        ["rate", "{cfg}", "--distance", "nan"],
        ["optimize", "{cfg}", "--distance", "nan"],
        ["simulate", "{cfg}", "--bins", "1000", "--distance", "nan"],
    ],
    ids=["negative-distance", "negative-scan", "negative-optimized-scan", "infinite-scan",
         "dark-counts", "zero-bins", "negative-seed", "infinite-distance-rate",
         "infinite-distance-optimize", "infinite-distance-simulate", "nan-distance-rate",
         "nan-distance-optimize", "nan-distance-simulate"],
)
def test_invalid_overrides_exit_config(config_path, capsys, argv):
    assert main([a.format(cfg=config_path) for a in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    if {"inf", "nan"} & set(argv):  # a value that is not a number of km is named as such
        assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "{cfg}", "--out", "{bad}"],
        ["scan", "{cfg}", "--from", "50", "--to", "50", "--step", "10", "--out", "{bad}"],
        ["optimize", "{cfg}", "--restarts", "1", "--max-evals", "10", "--save-config", "{bad}"],
        ["simulate", "{cfg}", "--bins", "1000", "--out", "{bad}"],
        ["simulate", "{cfg}", "--bins", "1000", "--dump-coincidences", "{bad}"],
    ],
    ids=["rate-out", "scan-out", "optimize-save-config", "simulate-out", "simulate-dump"],
)
def test_unwritable_output_exits_config(config_path, tmp_path, capsys, monkeypatch, argv):
    from mfqcka import keyrate, montecarlo, optimizer

    def never(*args, **kwargs):
        raise AssertionError("computed before checking the output paths")

    for module, name in [
        (keyrate, "rate_report"),
        (keyrate, "rate_reports"),
        (optimizer, "optimize_at_distance"),
        (optimizer, "scan_distances"),
        (montecarlo, "run_protocol"),
    ]:
        monkeypatch.setattr(module, name, never)
    bad = tmp_path / "missing-dir" / "output"
    assert main([a.format(cfg=config_path, bad=str(bad)) for a in argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "missing-dir" in captured.err
    assert not bad.parent.exists()


def test_scan_takes_no_distance(config_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", config_path, "--distance", "50", "--from", "0", "--to", "10", "--step", "10"])
    assert exc.value.code == EXIT_CONFIG
    assert "--distance" in capsys.readouterr().err


def test_simulate_overrides_are_validated_together(config_path, capsys, monkeypatch):
    from mfqcka import cli as cli_module

    validate, channels = cli_module.validate, []

    def spy(config, channel, security):
        channels.append(channel)
        return validate(config, channel, security)

    def stop(bundle, *args, **kwargs):
        raise ConfigError("stopped before the run")

    monkeypatch.setattr(cli_module, "validate", spy)
    monkeypatch.setattr(cli_module.montecarlo, "run_protocol", stop)
    argv = ["simulate", config_path, "--bins", "1000", "--distance", "20", "--dark-counts", "1e-7"]
    assert main(argv) == EXIT_CONFIG
    assert "stopped before the run" in capsys.readouterr().err
    assert [(c.distance_km, c.dark_count_rate) for c in channels] == [(20.0, 1e-7)]
    # With both overrides out of range, the one validation reports the
    # channel's first check, the dark-count rate.
    argv = ["simulate", config_path, "--bins", "1000", "--distance", "-5", "--dark-counts", "2"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: dark_count_rate must lie in [0, 1)\n"


def _set(doc, section, key, value):
    doc[section][key] = value
    return doc


def _no_clicks(doc):
    return _set(_set(doc, "channel", "detector_efficiency", 0.0), "channel", "dark_count_rate", 0.0)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: _set(d, "source", "phase_slices", 16.7),
        lambda d: _set(d, "source", "users", "three"),
        lambda d: _set(d, "source", "users", True),
        lambda d: _set(d, "security", "data_size", float("inf")),
        lambda d: _set(d, "channel", "fiber_alpha_db_per_km", float("nan")),
        lambda d: _set(d, "channel", "detector_efficiency", "high"),
        lambda d: _set(d, "source", "decoy_intensities", [0.05, False, 0.0]),
        lambda d: _set(d, "source", "send_probabilities", 0.5),
        lambda d: _set(d, "security", "eps_pa", None),
        lambda d: _set(d, "channel", "distance_km", [50]),
        lambda d: dict(d, channel=[1, 2]),
        lambda d: _set(d, "source", "signal_intensity", 1e16),
        lambda d: _set(d, "security", "eps_chernoff", 1e-320),
        lambda d: _set(d, "source", "phase_slices", 40000),
        lambda d: _set(d, "source", "decoy_intensities", [1e-200, 1e-250, 0.0]),
        _no_clicks,
        lambda d: _set(d, "security", "data_size", 1e308),
    ],
    ids=[
        "fractional-phase-slices", "string-users", "bool-users", "infinite-data-size",
        "nan-alpha", "string-efficiency", "bool-decoy", "scalar-probabilities",
        "null-eps", "list-distance", "list-section", "huge-signal", "subnormal-eps",
        "huge-phase-slices", "underflowing-decoys", "no-clicks", "overflowing-data-size",
    ],
)
def test_bad_config_types_exit_config(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(make_bundle().to_dict())))
    assert main(["rate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "probs", [[0.6, 0.3, 0.1, 1e-80], [0.6, 0.3, 1e-80, 0.1]], ids=["vanishing-vacuum", "vanishing-decoy"]
)
def test_vanishing_send_probability_exits_config_under_decoy_bounds(tmp_path, capsys, probs):
    path = tmp_path / "vanishing.json"
    path.write_text(json.dumps(_set(make_bundle().to_dict(), "source", "send_probabilities", probs)))
    for objective in ([], ["--objective", "asymptotic"]):
        assert main(["rate", str(path), "--distance", "200", *objective]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert "key_rate" not in out
        assert err.startswith("error:") and "overflows" in err
    assert main(["rate", str(path), "--distance", "200", "--objective", "asymptotic", "--mode", "exact"]) == EXIT_OK
    assert "key_rate = " in capsys.readouterr().out


def _set_optimizer(key, value):
    return lambda d: dict(d, optimizer={"restarts": 2, "max_evals": 200, "seed": 5, key: value})


@pytest.mark.parametrize(
    "edit",
    [
        _set_optimizer("max_evals", "abc"),
        _set_optimizer("intensity_bounds", 5),
        _set_optimizer("prob_bounds", ["a", "b"]),
        _set_optimizer("intensity_bounds", [1e-4, 0.5, 1.0]),
        _set_optimizer("restarts", True),
        _set_optimizer("seed", 1.7),
        _set_optimizer("tolerance", float("nan")),
        _set_optimizer("max_evals", -3),
        lambda d: dict(d, optimizer=[1, 2]),
    ],
    ids=[
        "string-max-evals", "scalar-bounds", "string-bounds", "three-bounds",
        "bool-restarts", "fractional-seed", "nan-tolerance", "negative-max-evals",
        "list-section",
    ],
)
def test_bad_optimizer_section_exit_config(tmp_path, capsys, edit):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(edit(make_bundle().to_dict())))
    assert main(["optimize", str(path), "--objective", "asymptotic"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key,bounds,expected",
    [
        ("intensity_bounds", [0.5, 1.0], EXIT_OK),
        ("intensity_bounds", [1e-4, 4e-3], EXIT_OK),
        ("intensity_bounds", [0.5, 0.5000001], EXIT_CONFIG),
        ("prob_bounds", [0.98, 0.99], EXIT_CONFIG),
        ("prob_bounds", [1e-300, 2e-300], EXIT_CONFIG),
    ],
    ids=["high-intensities", "low-intensities", "narrow-intensities", "crowded-probabilities",
         "no-signal-probabilities"],
)
def test_optimizer_box_corners(tmp_path, capsys, key, bounds, expected):
    # random starts outside the log-uniform range, boxes without a feasible
    # ladder or vacuum slack, and boxes where no point has a rate
    path = tmp_path / "box.json"
    path.write_text(json.dumps(dict(make_bundle().to_dict(), optimizer={key: bounds})))
    assert main(["optimize", str(path), "--restarts", "1", "--max-evals", "10"]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == EXIT_CONFIG:
        assert err.startswith("error:")


def beyond_the_estimates(tmp_path):
    """Documents past each asymptotic estimate's user counts, with the mode that rejects them.

    Six users have no decoy-state bounds; 21 users are past the 3-20
    users the exact phase error is offered for (``keyrate._check_mode``).
    """
    six = make_bundle(
        num_users=6,
        decoys=(0.07, 0.03, 0.012, 0.005, 0.002, 0.0),
        probs=(0.3, 0.2, 0.15, 0.13, 0.1, 0.07, 0.05),
    )
    many = six._replace(config=make_geometric_config(21))
    cases = []
    for bundle, mode, message in ((six, "decoy", "3-5 users, not 6"), (many, "exact", "3-20 users, not 21")):
        path = tmp_path / f"users{bundle.config.num_users}.json"
        path.write_text(json.dumps(bundle.to_dict()))
        cases.append((path, ["--objective", "asymptotic", "--mode", mode], message))
    return cases


def test_decoy_rate_beyond_five_users_exit_config(tmp_path, capsys):
    for path, objective, message in beyond_the_estimates(tmp_path):
        for argv in (["rate", str(path)], ["scan", str(path), "--from", "0", "--to", "10", "--step", "5"]):
            assert main(argv + objective) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error:") and message in err
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["optimize", "{cfg}"], ["scan", "{cfg}", "--from", "50", "--to", "60", "--step", "10", "--optimize"]],
    ids=["optimize", "scan-optimize"],
)
def test_decoy_optimize_beyond_five_users_fails_before_search(tmp_path, capsys, monkeypatch, argv):
    from mfqcka import optimizer

    monkeypatch.setattr(optimizer, "_simplex_search", None)  # any search would fail on it
    for path, objective, message in beyond_the_estimates(tmp_path):
        assert main([a.format(cfg=path) for a in argv] + objective) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "edit,key",
    [
        (lambda d: dict(d, optimiser={"seed": 3}), "optimiser"),
        (lambda d: _set(d, "channel", "distance", 80.0), "channel.distance"),
        (lambda d: _set(d, "source", "comment", "tuned"), "source.comment"),
        (lambda d: _set(d, "security", "eps_chernof", 1e-9), "security.eps_chernof"),
        (_set_optimizer("max_eval", 50), "optimizer.max_eval"),
        (_set_optimizer("presamples", 8), "optimizer.presamples"),
        (_set_optimizer("ordering_gap", 1e-3), "optimizer.ordering_gap"),
    ],
    ids=["top-level", "channel", "source", "security", "optimizer-typo", "optimizer-presamples",
         "optimizer-constant"],
)
def test_unknown_config_keys_exit_config(tmp_path, capsys, edit, key):
    doc = edit(dict(make_bundle().to_dict(), optimizer={"restarts": 1, "max_evals": 10}))
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and key in err


@pytest.mark.parametrize(
    "edit,message",
    [
        (_set_optimizer("max_eval", 50), "unknown field optimizer.max_eval"),
        (_set_optimizer("restarts", 0), "restarts must be at least 1"),
        (_set_optimizer("tolerance", "tight"), "optimizer.tolerance"),
    ],
    ids=["typo", "zero-restarts", "string-tolerance"],
)
@pytest.mark.parametrize(
    "argv",
    [["rate"], ["rate", "--bound-only"], ["simulate", "--bins", "1000", "--seed", "3"]],
    ids=["rate", "rate-bound-only", "simulate"],
)
def test_commands_that_never_optimize_validate_the_optimizer_section(
    tmp_path, capsys, monkeypatch, edit, message, argv
):
    from mfqcka import cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("simulate ran before validating its configuration")

    monkeypatch.setattr(cli_module.montecarlo, "run_protocol", never)
    path = tmp_path / "bad-optimizer.json"
    path.write_text(json.dumps(edit(make_bundle().to_dict())))
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_simulate_seed_is_not_the_optimizer_seed(config_path, monkeypatch):
    from mfqcka import cli as cli_module

    seen = []

    def spec(**kwargs):
        seen.append(kwargs)
        raise ConfigError("stop after parsing")

    monkeypatch.setattr(cli_module.optimizer, "SearchSpec", spec)
    assert main(["simulate", config_path, "--bins", "1000", "--seed", "9"]) == EXIT_CONFIG
    assert seen == [{"restarts": 2, "max_evals": 200, "seed": 5}]


@pytest.mark.parametrize(
    "argv,distances,chunks",
    [
        (["rate", "{cfg}"], [[50.0]], 0),
        (["rate", "{cfg}", "--objective", "asymptotic", "--mode", "exact"], [[50.0]], 0),
        (["scan", "{cfg}", "--from", "50", "--to", "70", "--step", "10"], [[50.0, 60.0, 70.0]], 1),
    ],
    ids=["rate", "rate-exact", "scan"],
)
def test_commands_evaluate_through_the_evaluate_hook(config_path, capsys, monkeypatch, argv, distances, chunks):
    # The benchmark marks the end of set-up by hooking cli._evaluate.  A scan
    # rates all its distances in one call, in ceil(rows / _chunk_rows) kernel
    # chunks; rate takes the one-row path that the benchmark's tracer wraps.
    from mfqcka import cli, keyrate

    seen = []
    evaluate = cli._evaluate

    def spy(bundles, objective):
        seen.append([bundle.channel.distance_km for bundle in bundles])
        return evaluate(bundles, objective)

    chunk_calls = []
    rate_chunk = keyrate._rate_chunk

    def chunk_spy(ks, *args):
        chunk_calls.append(len(ks))
        return rate_chunk(ks, *args)

    monkeypatch.setattr(cli, "_evaluate", spy)
    monkeypatch.setattr(keyrate, "_rate_chunk", chunk_spy)
    assert main([a.format(cfg=config_path) for a in argv]) == EXIT_OK
    assert seen == distances
    assert len(chunk_calls) == chunks
    if argv[0] == "scan":
        assert chunks == math.ceil(len(distances[0]) / keyrate._chunk_rows(4))
        assert chunk_calls == [3]


def test_plain_scan_keeps_the_rows_before_a_distance_without_signal(tmp_path, capsys):
    # Without dark counts the signal dies out with distance.  The scan writes
    # every row rated before the first distance without signal, to --out or
    # to stdout, then exits 2 with that distance's error.
    doc = make_bundle(num_users=4, data_size=1e14).to_dict()
    doc["channel"]["dark_count_rate"] = 0.0
    path = tmp_path / "dark.json"
    path.write_text(json.dumps(doc))
    common = ["scan", str(path), "--objective", "asymptotic", "--mode", "exact", "--step", "100"]
    rated, cut = tmp_path / "rated.csv", tmp_path / "cut.csv"
    assert main([*common, "--from", "0", "--to", "900", "--out", str(rated)]) == EXIT_OK
    assert len(rated.read_text().splitlines()) == 11
    capsys.readouterr()
    assert main([*common, "--from", "0", "--to", "3000", "--out", str(cut)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: no sifted signal coincidences; phase error undefined\n"
    assert cut.read_text() == rated.read_text()
    assert main([*common, "--from", "0", "--to", "3000"]) == EXIT_CONFIG
    assert capsys.readouterr().out == rated.read_text()
    # no row before the first distance without signal: no file
    none = tmp_path / "none.csv"
    assert main([*common, "--from", "1000", "--to", "3000", "--out", str(none)]) == EXIT_CONFIG
    assert not none.exists()


def test_exact_scan_rows_equal_one_rate_per_distance(tmp_path):
    doc = make_bundle(num_users=4, data_size=1e14).to_dict()
    doc["optimizer"] = {"seed": 0}  # the seed column of a rate CSV
    path = tmp_path / "n4.json"
    path.write_text(json.dumps(doc))
    common = [str(path), "--objective", "asymptotic", "--mode", "exact"]
    scan_csv = tmp_path / "scan.csv"
    argv = ["scan", *common, "--from", "0", "--to", "330", "--step", "30", "--out", str(scan_csv)]
    assert main(argv) == EXIT_OK
    header, *rows = scan_csv.read_text().splitlines(keepends=True)
    assert len(rows) == 12
    for i, row in enumerate(rows):
        rate_csv = tmp_path / f"rate{i}.csv"
        argv = ["rate", *common, "--distance", str(30 * i), "--out", str(rate_csv)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        assert rate_csv.read_text() == header + row


_VALID_DOC = make_bundle(distance_km=50.0, data_size=1e12).to_dict()
_FIELDS = [(section, key) for section, fields in _VALID_DOC.items() for key in fields]
_BAD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["nan", "inf", "-1", "1e400", "0.5"]),
    st.just([]),
    st.lists(st.floats(), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.floats(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-320, max_value=1e-100),
    st.integers(min_value=-(10**6), max_value=10**6),
)
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_FIELDS), _BAD_VALUES),
    st.tuples(st.just("delete"), st.sampled_from(_FIELDS), st.none()),
    st.tuples(st.just("section"), st.sampled_from(sorted(_VALID_DOC)), st.one_of(st.none(), _BAD_VALUES)),
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(mutation=_MUTATIONS)
def test_fuzzed_config_exits_cleanly(tmp_path_factory, mutation):
    action, where, value = mutation
    doc = copy.deepcopy(_VALID_DOC)
    if action == "set":
        doc[where[0]][where[1]] = value
    elif action == "delete":
        del doc[where[0]][where[1]]
    elif value is None:
        del doc[where]
    else:
        doc[where] = value
    path = tmp_path_factory.getbasetemp() / "fuzzed-config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["rate", str(path)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("error:")


_OPTIMIZER_MUTATIONS = st.one_of(
    st.tuples(
        st.just("set"),
        st.sampled_from(["intensity_bounds", "prob_bounds"]),
        st.one_of(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2).map(sorted),
            _BAD_VALUES,
        ),
    ),
    st.tuples(
        st.just("set"),
        st.sampled_from(["restarts", "max_evals", "seed", "tolerance"]),
        st.one_of(st.integers(min_value=0, max_value=2**70), _BAD_VALUES),
    ),
    st.tuples(st.just("section"), st.none(), st.one_of(st.none(), _BAD_VALUES)),
)
_OPTIMIZE_COMMANDS = [
    ["optimize", "{cfg}"],
    ["scan", "{cfg}", "--from", "50", "--to", "60", "--step", "10", "--optimize", "--out", "{csv}"],
]


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(mutation=_OPTIMIZER_MUTATIONS, command=st.sampled_from(_OPTIMIZE_COMMANDS))
def test_fuzzed_optimizer_section_exits_cleanly(tmp_path_factory, mutation, command):
    action, key, value = mutation
    doc = copy.deepcopy(_VALID_DOC)
    doc["optimizer"] = {"restarts": 2, "max_evals": 200, "seed": 5}
    if action == "set":
        doc["optimizer"][key] = value
    elif value is None:
        del doc["optimizer"]
    else:
        doc["optimizer"] = value
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed-optimizer.json"
    path.write_text(json.dumps(doc))
    argv = [a.format(cfg=path, csv=base / "fuzzed-scan.csv") for a in command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv + ["--restarts", "1", "--max-evals", "10"])
    assert code in (EXIT_OK, EXIT_CONFIG)
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("error:")


def test_integral_float_and_numeric_string_accepted(tmp_path, capsys):
    doc = make_bundle().to_dict()
    doc["source"]["phase_slices"] = 16.0
    doc["source"]["users"] = "3"
    path = tmp_path / "lenient.json"
    path.write_text(json.dumps(doc))
    assert main(["rate", str(path)]) == EXIT_OK


def test_scan_distances_do_not_accumulate_rounding():
    distances = _scan_distances(0.0, 330.0, 0.001)
    assert len(distances) == 330_001
    assert distances == [i / 1000 for i in range(330_001)]


def test_scan_distances_stop_at_the_last_step_before_stop():
    assert _scan_distances(0.0, 5e-9, 2e-9) == [0.0, 2e-9, 4e-9]
    assert _scan_distances(0.0, 330.0, 2.0)[-1] == 330.0
    assert _scan_distances(7.5, 7.5, 1.0) == [7.5]


@pytest.mark.parametrize(
    "start,stop,step,message",
    [
        (0.0, 5e-9, 1e-10, "at least 1e-09 km"),
        (0.0, 1e6, 1e-9, "more than 1000000 points"),
        (0.0, 1e6, 1.0, "more than 1000000 points"),
        (-1e308, 1e308, 1.0, "more than 1000000 points"),
        (1e308, -1e308, 1.0, "range is empty"),
        (1e8, 1e8 + 1e-6, 1e-9, "distances repeat"),
        (1e7, 1e7 + 1e-6, 1e-9, "distances repeat"),
    ],
)
def test_scan_distances_reject_repeats_and_huge_scans(start, stop, step, message):
    with pytest.raises(ConfigError, match=message):
        _scan_distances(start, stop, step)


def test_scan_distances_allow_a_million_points():
    assert len(_scan_distances(0.0, 999_999.0, 1.0)) == 1_000_000


@pytest.mark.parametrize("to,step", [("5e-9", "1e-10"), ("1e6", "1e-9")])
def test_scan_rejects_tiny_steps_and_huge_scans(config_path, capsys, to, step):
    assert main(["scan", config_path, "--from", "0", "--to", to, "--step", step]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: scan ")


def test_scan_csv_columns_and_determinism(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["scan", config_path, "--from", "40", "--to", "60", "--step", "10", "--out"]
    assert main(args + [str(out1)]) == EXIT_OK
    assert main(args + [str(out2)]) == EXIT_OK
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "distance_km", "users", "data_size", "key_rate", "key_rate_raw",
        "multicast_bound", "phase_error_upper", "adjacent_error",
        "worst_marginal_error", "s_mu", "mu",
        "decoy_1", "decoy_2", "decoy_3",
        "p_mu", "p_decoy_1", "p_decoy_2", "p_decoy_3", "seed",
    ]
    assert len(lines) == 4  # header + three distances
    first = lines[1].split(",")
    assert first[0] == "4.000000000e+01"
    assert first[1] == "3"
    # scientific notation with ten significant digits, no locale surprises
    mantissa = first[3].split("e")[0].lstrip("-")
    assert len(mantissa.replace(".", "")) == 10
    assert "." in mantissa


def test_scan_optimized_runs(config_path, tmp_path):
    out = tmp_path / "opt.csv"
    assert (
        main(
            ["scan", config_path, "--from", "50", "--to", "50", "--step", "10",
             "--optimize", "--out", str(out)]
        )
        == EXIT_OK
    )
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "5"  # optimizer seed column


def test_scan_step_validation(config_path, capsys):
    assert main(["scan", config_path, "--from", "10", "--to", "20", "--step", "0"]) == EXIT_CONFIG
    assert "step" in capsys.readouterr().err
    assert main(["scan", config_path, "--from", "30", "--to", "20", "--step", "5"]) == EXIT_CONFIG


def test_optimize_saves_config(config_path, tmp_path, capsys):
    saved = tmp_path / "tuned.json"
    assert (
        main(["optimize", config_path, "--max-evals", "150", "--restarts", "1",
              "--save-config", str(saved)])
        == EXIT_OK
    )
    tuned = json.loads(saved.read_text())
    assert set(tuned) >= {"channel", "source", "security"}
    assert len(tuned["source"]["decoy_intensities"]) == 3
    assert tuned["source"]["decoy_intensities"][-1] == 0.0


def test_optimize_then_rate_hits_anchor(tmp_path, capsys):
    # end-to-end flow from the docs: tune at 50 km / 1e14, reload the
    # saved config, and re-evaluate the quoted operating point
    doc = make_bundle(distance_km=50.0, data_size=1e14).to_dict()
    doc["optimizer"] = {"restarts": 4, "max_evals": 800, "seed": 2024}
    source = tmp_path / "anchor.json"
    source.write_text(json.dumps(doc))
    tuned = tmp_path / "tuned.json"
    assert main(["optimize", str(source), "--save-config", str(tuned)]) == EXIT_OK
    capsys.readouterr()
    assert main(["rate", str(tuned)]) == EXIT_OK
    out = capsys.readouterr().out
    rate = float(next(l for l in out.splitlines() if l.startswith("key_rate =")).split("=")[1])
    assert rate == pytest.approx(1.44e-4, rel=0.15)


def test_simulate_coincidence_dump(config_path, tmp_path):
    dump = tmp_path / "coincidences.csv"
    assert (
        main(["simulate", config_path, "--distance", "10", "--bins", "100000",
              "--seed", "2", "--dump-coincidences", str(dump)])
        == EXIT_OK
    )
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "slice,intensity,d_1,d_2,bit_user_1,bit_user_2,bit_user_3"
    assert len(lines) > 1


def test_simulate_dump_rows_match_summary(config_path, tmp_path):
    # dark counts make conference errors, on the signal and on decoys
    dump, out = tmp_path / "coincidences.csv", tmp_path / "sim.json"
    argv = ["simulate", config_path, "--distance", "10", "--bins", "1000000", "--seed", "5",
            "--dark-counts", "1e-3", "--out", str(out), "--dump-coincidences", str(dump)]
    assert main(argv) == EXIT_OK
    summary = json.loads(out.read_text())["summary"]
    with dump.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    users = range(2, summary["num_users"] + 1)
    wrong = lambda row, j: row[f"bit_user_{j}"] != row["bit_user_1"]
    signal = [row for row in rows if float(row["intensity"]) == summary["intensities"][0]]

    assert len(rows) == summary["coincidences"]
    errors_all = summary["conference_errors_all_intensities"]
    assert errors_all > sum(summary["conference_errors"]) > 0
    assert sum(wrong(row, j) for row in rows for j in users) == errors_all
    for j in users:
        assert sum(wrong(row, j) for row in signal) == summary["conference_errors"][j - 2]


def test_simulate_one_bin_dumps_the_header_only(config_path, tmp_path):
    # no coincidence: the sifted columns are empty and so is every count
    dump, out = tmp_path / "coincidences.csv", tmp_path / "sim.json"
    argv = ["simulate", config_path, "--bins", "1", "--seed", "4", "--out", str(out), "--dump-coincidences", str(dump)]
    assert main(argv) == EXIT_OK
    assert dump.read_text() == "slice,intensity,d_1,d_2,bit_user_1,bit_user_2,bit_user_3\n"
    summary = json.loads(out.read_text())["summary"]
    assert summary["sifted"] == [0, 0, 0, 0] and summary["conference_errors"] == [0, 0]
    assert summary["coincidences"] == summary["matched_draws"] == summary["conference_errors_all_intensities"] == 0


def test_simulate_writes_summary_and_is_deterministic(config_path, tmp_path):
    out1 = tmp_path / "sim1.json"
    out2 = tmp_path / "sim2.json"
    base = ["simulate", config_path, "--distance", "15", "--bins", "200000", "--seed", "9"]
    assert main(base + ["--out", str(out1)]) == EXIT_OK
    assert main(base + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["comparison"]["clean"] is True
    assert doc["summary"]["bins"] == 200000


def test_simulate_zero_darks_ghz(config_path, capsys):
    rc = main(
        ["simulate", config_path, "--distance", "5", "--bins", "100000",
         "--seed", "3", "--dark-counts", "0"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "conference_errors_all_intensities = 0" in out
    candidates = int(out.split("candidate_bins = ")[1].split()[0])
    assert 0 < candidates < 100000


@pytest.mark.parametrize(
    "document, expected",
    [
        (lambda: _no_clicks(make_bundle().to_dict()), EXIT_CONFIG),
        # the signal saturates the constructive detector: max s rounds to 1
        (lambda: make_bundle(signal=50.0, distance_km=0.0, dark_count_rate=0.0).to_dict(),
         EXIT_OK),
        # valid documents whose click tables or transfer chain would take
        # gigabytes; simulate rejects them before allocating anything
        (lambda: make_many_users_bundle(130, phase_slices=32766).to_dict(), EXIT_CONFIG),
        (lambda: make_many_users_bundle(3000).to_dict(), EXIT_CONFIG),
    ],
    ids=["no-clicks", "saturated", "click-tables-too-large", "too-many-users"],
)
def test_simulate_degenerate_channels(tmp_path, capsys, document, expected):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(document()))
    assert main(["simulate", str(path), "--bins", "20000"]) == expected
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if expected == EXIT_CONFIG:
        assert err.startswith("error:")
    else:
        assert "clean = True" in out


def test_simulate_many_users_exits_cleanly(tmp_path, capfd):
    # setting and port indices past the int8 range (131 settings, 129 ports)
    path = tmp_path / "many.json"
    path.write_text(json.dumps(make_many_users_bundle(130).to_dict()))
    assert main(["simulate", str(path), "--bins", "3000", "--seed", "1"]) in (EXIT_OK, EXIT_CONFIG)
    assert "Traceback" not in capfd.readouterr().err


def test_simulate_bounds_its_bins_before_any_shard_runs(config_path, capsys, monkeypatch):
    from mfqcka import cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(cli_module.montecarlo, "_generate_shard", never)
    bound = cli_module._MAX_SIMULATE_BINS
    assert bound >= 10**9  # the many-user runs of 1e9 bins stay possible
    assert main(["simulate", config_path, "--bins", str(bound + 1)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: --bins must be between 1 and {bound}")
    # the bound itself passes validation and reaches the run
    with pytest.raises(AssertionError, match="a shard ran"):
        main(["simulate", config_path, "--bins", str(bound)])


def test_simulate_without_a_possible_click_fails_before_any_shard_runs(tmp_path, capsys, monkeypatch):
    # a blind detector without dark counts: 2 eta_t mu = 0 and p_d = 0, so
    # no bin can click and the comparison has no error terms
    from mfqcka import cli as cli_module

    def never(*args, **kwargs):
        raise AssertionError("a shard ran")

    monkeypatch.setattr(cli_module.montecarlo, "_generate_shard", never)
    doc = make_bundle(dark_count_rate=0.0).to_dict()
    doc["channel"]["detector_efficiency"] = 0.0
    path = tmp_path / "blind.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DegenerateChannelError) as exc:
        error_terms(doc["source"]["signal_intensity"], 3, 0.0, 0.0)
    assert main(["simulate", str(path), "--bins", "1000000000000"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_simulate_flags_mismatch(config_path, capsys, monkeypatch):
    # the --dark-counts override feeds both the simulation and the
    # comparison, so a real CLI run cannot disagree with itself; stub a
    # flagged comparison to exercise the exit-code contract
    from mfqcka import cli as cli_module
    from mfqcka.montecarlo import ComparisonReport, StatCheck

    flagged = ComparisonReport(
        checks=(StatCheck("sifted[k=0.1]", 90.0, 200.0, -7.8, True),),
        skipped=(),
    )
    monkeypatch.setattr(cli_module.montecarlo, "compare_to_analytic", lambda *a: flagged)
    rc = main(["simulate", config_path, "--distance", "15", "--bins", "50000", "--seed", "4"])
    assert rc == EXIT_CONSISTENCY
    assert "FLAG sifted[k=0.1]" in capsys.readouterr().out


# Every document below differs from a valid one by a single fault; `rate`
# must answer each with exactly this exit code and error line (None: the
# field has a default, so the document is valid).
_NUMBER_FIELDS = [
    ("channel", "detector_efficiency"), ("channel", "dark_count_rate"),
    ("channel", "fiber_alpha_db_per_km"), ("channel", "distance_km"),
    ("source", "users"), ("source", "signal_intensity"), ("source", "phase_slices"),
    ("security", "data_size"), ("security", "eps_ec"), ("security", "eps_pa"),
    ("security", "eps_chernoff"), ("security", "ec_efficiency"),
]
_LIST_FIELDS = [("source", "decoy_intensities"), ("source", "send_probabilities")]
_DEFAULTED = {"channel.distance_km", "security.eps_ec", "security.eps_pa",
              "security.eps_chernoff", "security.ec_efficiency"}
_ONE_ITEM_LIST = {
    "source.decoy_intensities":
        "decoy_intensities must list 3 settings for 3 users (the nonzero decoys followed by the vacuum)",
    "source.send_probabilities": "send_probabilities must have one entry per intensity setting (4)",
}
_BAD = [None, "x", True, [1]]


def _field_faults():
    for section, key in _NUMBER_FIELDS + _LIST_FIELDS:
        where = f"{section}.{key}"
        kind = "a list of numbers" if (section, key) in _LIST_FIELDS else "a finite number"
        yield where, ("delete", section, key), None if where in _DEFAULTED else f"missing field {where}"
        for value in _BAD:
            if value == [1] and where in _ONE_ITEM_LIST:
                message = _ONE_ITEM_LIST[where]
            else:
                message = f"{where} must be {kind}, got {value!r}"
            yield f"{where}={json.dumps(value)}", ("set", section, key, value), message


def _optimizer_faults():
    for key in ("intensity_bounds", "prob_bounds"):
        where = f"optimizer.{key}"
        yield f"{where}=null", ("set", "optimizer", key, None), None
        yield f'{where}="x"', ("set", "optimizer", key, "x"), f"{where} must be a list of numbers, got 'x'"
        yield f"{where}=true", ("set", "optimizer", key, True), f"{where} must be a list of numbers, got True"
        yield (f"{where}=[1]", ("set", "optimizer", key, [1]),
               f"{where} must list exactly two numbers (lower, upper), got [1]")
    for key in ("restarts", "max_evals", "seed", "tolerance"):
        where = f"optimizer.{key}"
        yield f"{where}=null", ("set", "optimizer", key, None), None
        for value in _BAD[1:]:
            yield (f"{where}={json.dumps(value)}", ("set", "optimizer", key, value),
                   f"{where} must be a finite number, got {value!r}")


def _section_faults():
    for section in ("channel", "source", "security"):
        yield f"no-{section}", ("drop", section), f"missing top-level section: {section!r}"
    for section in ("channel", "source", "security", "optimizer"):
        yield f"{section}-string", ("section", section, "x"), f"section {section} must be an object"
        yield (f"{section}.bogus", ("set", section, "bogus", 1), f"unknown field {section}.bogus")
    yield "extra-section", ("section", "extra", {}), "unknown top-level section: 'extra'"
    # Only a missing or null optimizer section means "no settings".
    yield "optimizer=null", ("section", "optimizer", None), None
    for value in (0, False, "", []):
        yield (f"optimizer={json.dumps(value)}", ("section", "optimizer", value),
               "section optimizer must be an object")
    for value in ([1, 2], "x", None):
        yield (f"document={json.dumps(value)}", ("document", value),
               "configuration document must be a JSON object")


_SINGLE_FAULTS = [*_field_faults(), *_optimizer_faults(), *_section_faults()]


def _apply_fault(doc, fault):
    action, section, *rest = fault
    if action == "document":
        return section
    if action == "drop":
        del doc[section]
    elif action == "section":
        doc[section] = rest[0]
    elif action == "delete":
        del doc[section][rest[0]]
    else:
        doc[section][rest[0]] = rest[1]
    return doc


@pytest.mark.parametrize(
    "fault,message", [case[1:] for case in _SINGLE_FAULTS], ids=[case[0] for case in _SINGLE_FAULTS]
)
def test_single_fault_documents_exit_code_and_error_line(tmp_path, capsys, fault, message):
    doc = dict(make_bundle().to_dict(), optimizer={"restarts": 2, "max_evals": 200, "seed": 5})
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(_apply_fault(doc, fault)))
    code = main(["rate", str(path)])
    err = capsys.readouterr().err
    if message is None:
        assert (code, err) == (EXIT_OK, "")
    else:
        assert (code, err) == (EXIT_CONFIG, f"error: {message}\n")


def test_null_means_default_in_optimizer_only(tmp_path, capsys):
    from mfqcka import optimizer
    from mfqcka.cli import _search_spec

    keys = ("intensity_bounds", "prob_bounds", "restarts", "max_evals", "seed", "tolerance")
    assert _search_spec({"optimizer": dict.fromkeys(keys)}) == optimizer.SearchSpec()
    assert _search_spec({"optimizer": {"seed": None}}).seed == optimizer.SearchSpec().seed

    path = tmp_path / "null.json"
    path.write_text(json.dumps(dict(make_bundle().to_dict(), optimizer={"seed": None})))
    assert main(["rate", str(path)]) == EXIT_OK
    doc = make_bundle().to_dict()
    doc["channel"]["distance_km"] = None
    path.write_text(json.dumps(doc))
    assert main(["rate", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: channel.distance_km must be a finite number, got None\n"


def test_signed_zeros_enter_as_zero(tmp_path, capsys):
    doc = make_bundle().to_dict()
    doc["channel"]["distance_km"] = -0.0
    doc["source"]["decoy_intensities"][-1] = -0.0
    doc["optimizer"] = {"restarts": 1, "max_evals": 20, "seed": 5}
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(doc))
    assert main(["rate", str(path), "--distance", "-0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "distance_km = 0.000000000e+00" in out and "sifted[0.0] =" in out
    assert "= -0.000000000e+00" not in out and "[-0.0]" not in out
    saved = tmp_path / "tuned.json"
    assert main(["optimize", str(path), "--objective", "asymptotic", "--save-config", str(saved)]) == EXIT_OK
    tuned = json.loads(saved.read_text())
    for value in (tuned["channel"]["distance_km"], tuned["source"]["decoy_intensities"][-1]):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
    assert main(["simulate", str(path), "--bins", "20000", "--dark-counts", "-0"]) == EXIT_OK
