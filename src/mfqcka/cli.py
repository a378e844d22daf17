"""Command-line front end: rate points, distance scans, optimization, simulation.

Configuration is a JSON document with four top-level sections::

    {
      "channel":  {"detector_efficiency": 0.77, "dark_count_rate": 3.03e-9,
                   "fiber_alpha_db_per_km": 0.16, "distance_km": 50.0},
      "source":   {"users": 3, "signal_intensity": 0.4,
                   "decoy_intensities": [0.1, 0.01, 0.0],
                   "send_probabilities": [0.5, 0.3, 0.15, 0.05],
                   "phase_slices": 16},
      "security": {"data_size": 1e14, "eps_ec": 1e-15, "eps_pa": 1e-10,
                   "eps_chernoff": 1e-10, "ec_efficiency": 1.1},
      "optimizer": {"intensity_bounds": [1e-4, 1.0], "prob_bounds": [1e-3, 0.99],
                    "restarts": 8, "max_evals": 2000, "seed": 2024}
    }

`decoy_intensities` lists one entry per user, ending with the vacuum (0);
`send_probabilities` is aligned with (signal, *decoys) and sums to 1.
The ``optimizer`` section is optional; an unknown section or field is an
error, not a default.  Exit codes: 0 success, 2 parse or validation
failure, an output file that cannot be written or a working point with
no signal to evaluate, 3 simulation-consistency failure.

CSV output uses a fixed column set, scientific notation with 10
significant digits, and no locale-dependent formatting, so files from
different machines are directly comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Mapping

from . import keyrate, montecarlo, optimizer
from .model import (
    Bundle,
    ConfigError,
    DegenerateChannelError,
    EstimationError,
    RateReport,
    _integer,
    _number,
    _numbers,
    _write_text,
    bundle_from_dict,
    validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".9e")
    return str(value)


def _load_bundle(path: str, distance: float | None) -> tuple[Bundle, dict[str, Any]]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    bundle = bundle_from_dict(doc)
    if distance is not None:
        bundle = _override(bundle, distance_km=distance)
    return bundle, doc


def _override(bundle: Bundle, **channel_fields: float) -> Bundle:
    """The bundle with command-line channel overrides, validated like the file."""
    channel = dataclasses.replace(bundle.channel, **channel_fields)
    return validate(bundle.config, channel, bundle.security)


def _bounds(value: Any, name: str) -> tuple[float, float]:
    bounds = _numbers(value, name)
    if len(bounds) != 2:
        raise ConfigError(f"{name} must list exactly two numbers (lower, upper), got {value!r}")
    return bounds


def _search_spec(doc: dict[str, Any], args: argparse.Namespace | None = None) -> optimizer.SearchSpec:
    """The document's ``optimizer`` section, with the --restarts, --max-evals and --seed of ``args``."""
    opt = doc.get("optimizer") or {}
    if not isinstance(opt, Mapping):
        raise ConfigError("section optimizer must be an object")
    parsers = {
        "intensity_bounds": _bounds,
        "prob_bounds": _bounds,
        "restarts": _integer,
        "max_evals": _integer,
        "seed": _integer,
        "tolerance": _number,
    }
    for name in opt:
        if name not in parsers:
            raise ConfigError(f"unknown field optimizer.{name}")
    kwargs: dict[str, Any] = {
        name: parse(opt[name], f"optimizer.{name}")
        for name, parse in parsers.items()
        if opt.get(name) is not None
    }
    for name in ("restarts", "max_evals", "seed"):
        if getattr(args, name, None) is not None:
            kwargs[name] = getattr(args, name)
    return optimizer.SearchSpec(**kwargs)


def _objective(args: argparse.Namespace) -> str:
    """The optimizer objective that --objective and --mode select together."""
    if args.objective == "finite":
        if args.mode == "exact":
            raise ConfigError(
                "--mode exact needs --objective asymptotic; the finite rate uses decoy bounds"
            )
        return "finite"
    return f"asymptotic-{args.mode}"


def _evaluate(bundle: Bundle, objective: str) -> RateReport:
    return keyrate.rate_report(bundle.config, bundle.channel, bundle.security, objective)


def _print_report(report: RateReport) -> None:
    lines = [
        ("mode", report.mode),
        ("distance_km", report.distance_km),
        ("users", report.params_used.num_users),
        ("data_size", report.data_size),
        ("key_rate", report.key_rate),
        ("key_rate_raw", report.key_rate_raw),
        ("multicast_bound", report.multicast_bound),
        ("phase_error_upper", report.phase_error_upper),
        ("adjacent_error", report.adjacent_error),
        ("worst_marginal_error", report.worst_marginal_error),
        ("sifted_signal", report.sifted_signal),
        ("correction_bits", report.correction_bits),
        ("chernoff_applications", report.chernoff_applications),
        ("failure_budget", report.failure_budget),
        ("signal_intensity", report.params_used.signal_intensity),
        ("decoy_intensities", ",".join(_fmt(x) for x in report.params_used.decoy_intensities)),
        ("send_probabilities", ",".join(_fmt(x) for x in report.params_used.send_probabilities)),
    ]
    for key, value in lines:
        print(f"{key} = {_fmt(value)}")
    for k, v in sorted(report.sifted.items(), reverse=True):
        print(f"sifted[{k!r}] = {_fmt(v)}")
    for n, v in sorted(report.s_mu_n_lower.items()):
        print(f"s_mu_{n}_lower = {_fmt(v)}")


def _csv_header(num_decoys: int) -> list[str]:
    cols = [
        "distance_km",
        "users",
        "data_size",
        "key_rate",
        "key_rate_raw",
        "multicast_bound",
        "phase_error_upper",
        "adjacent_error",
        "worst_marginal_error",
        "s_mu",
        "mu",
    ]
    cols += [f"decoy_{i + 1}" for i in range(num_decoys)]
    cols += ["p_mu"] + [f"p_decoy_{i + 1}" for i in range(num_decoys)]
    cols += ["seed"]
    return cols


def _csv_row(report: RateReport, seed: int) -> list[str]:
    cfg = report.params_used
    cells = [
        _fmt(report.distance_km),
        str(cfg.num_users),
        _fmt(report.data_size),
        _fmt(report.key_rate),
        _fmt(report.key_rate_raw),
        _fmt(report.multicast_bound),
        _fmt(report.phase_error_upper),
        _fmt(report.adjacent_error),
        _fmt(report.worst_marginal_error),
        _fmt(report.sifted_signal),
        _fmt(cfg.signal_intensity),
    ]
    cells += [_fmt(x) for x in cfg.decoy_intensities]
    cells += [_fmt(p) for p in cfg.send_probabilities]
    cells += [str(seed)]
    return cells


def cmd_rate(args: argparse.Namespace) -> int:
    objective = _objective(args)
    bundle, doc = _load_bundle(args.config, args.distance)
    _search_spec(doc)  # validated although rate never optimizes
    if args.bound_only:
        print(f"multicast_bound = {_fmt(keyrate.multicast_bound(bundle.channel))}")
        return EXIT_OK
    report = _evaluate(bundle, objective)
    _print_report(report)
    if args.out:
        header = _csv_header(len(bundle.config.decoy_intensities))
        row = _csv_row(report, seed=0)
        _write_text(args.out, ",".join(header) + "\n" + ",".join(row) + "\n")
    return EXIT_OK


def _scan_distances(start: float, stop: float, step: float) -> list[float]:
    """start + i*step up to stop; indexing keeps rounding from accumulating."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("scan range and step must be finite")
    if step <= 0:
        raise ConfigError("scan step must be positive")
    count = math.floor((stop - start + 1e-9) / step) + 1
    distances = [round(start + i * step, 9) for i in range(count)]
    if not distances:
        raise ConfigError("scan range is empty")
    return distances


def cmd_scan(args: argparse.Namespace) -> int:
    objective = _objective(args)
    bundle, doc = _load_bundle(args.config, None)
    distances = _scan_distances(args.start, args.stop, args.step)
    steps = [_override(bundle, distance_km=d) for d in distances]

    spec = _search_spec(doc, args)
    rows: list[list[str]] = []
    if args.optimize:
        records = optimizer.scan_distances(distances, spec, objective, bundle)
        for rec in records:
            rows.append(_csv_row(rec.report, spec.seed))
    else:
        for step in steps:
            rows.append(_csv_row(_evaluate(step, objective), spec.seed))

    header = _csv_header(len(bundle.config.decoy_intensities))
    text = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    objective = _objective(args)
    bundle, doc = _load_bundle(args.config, args.distance)
    spec = _search_spec(doc, args)
    config, report = optimizer.optimize_at_distance(spec, objective, bundle)
    _print_report(report)
    if args.save_config:
        tuned = Bundle(config=config, channel=bundle.channel, security=bundle.security)
        out = tuned.to_dict()
        out["optimizer"] = doc.get("optimizer", {})
        _write_text(args.save_config, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Raise ConfigError unless ``path`` could be written; the file is left untouched.

    Lets a long run fail before it starts; ``_write_text`` still turns a
    failed write into a ConfigError afterwards.
    """
    target = Path(path)
    parent = target.parent
    if not parent.is_dir() or not os.access(parent, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {path}: {parent} is not a writable directory")
    if target.is_dir() or (target.exists() and not os.access(target, os.W_OK)):
        raise ConfigError(f"cannot write {path}: not a writable file")


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle, doc = _load_bundle(args.config, args.distance)
    # Validated although simulate never optimizes; its --seed seeds the
    # Monte Carlo run, not the optimizer.
    _search_spec(doc)
    if args.dark_counts is not None:
        bundle = _override(bundle, dark_count_rate=args.dark_counts)
    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    for path in (args.out, args.dump):
        if path:
            _check_writable(path)
    summary = montecarlo.run_protocol(bundle, args.bins, args.seed, coincidence_dump=args.dump)
    report = montecarlo.compare_to_analytic(summary, bundle)
    doc = {"summary": summary.to_dict(), "comparison": report.to_dict()}
    if args.out:
        _write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"bins = {summary.bins}")
    print(f"candidate_bins = {summary.candidate_bins}")
    print(f"coincidences = {summary.coincidences}")
    print(f"conference_errors_all_intensities = {summary.conference_errors_all_intensities}")
    print(f"checks = {len(report.checks)} skipped = {len(report.skipped)}")
    print(f"max_abs_z = {_fmt(report.max_abs_z)}")
    print(f"clean = {report.clean}")
    if not report.clean:
        for check in report.checks:
            if check.flagged:
                print(
                    f"FLAG {check.name}: observed={_fmt(check.observed)} "
                    f"expected={_fmt(check.expected)} z={_fmt(check.z)}"
                )
        return EXIT_CONSISTENCY
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfqcka",
        description="Multi-field conference key agreement: rates, scans, simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, objective_default: str = "finite") -> None:
        p.add_argument("config", help="path to the JSON configuration document")
        p.add_argument("--distance", type=float, default=None, help="override distance_km")
        p.add_argument(
            "--objective",
            choices=["finite", "asymptotic"],
            default=objective_default,
            help="rate to evaluate or optimize",
        )
        p.add_argument(
            "--mode",
            choices=["decoy", "exact"],
            default="decoy",
            help="phase-error estimator for the asymptotic rate (evaluated or optimized); "
            "the finite rate takes decoy only",
        )

    p_rate = sub.add_parser("rate", help="single-point key-rate evaluation")
    common(p_rate)
    p_rate.add_argument("--bound-only", action="store_true", help="print the multicast bound only")
    p_rate.add_argument("--out", default=None, help="also write a one-row CSV")
    p_rate.set_defaults(func=cmd_rate)

    p_scan = sub.add_parser("scan", help="key rate versus distance, optionally optimized")
    common(p_scan)
    p_scan.add_argument("--from", dest="start", type=float, required=True, help="first distance (km)")
    p_scan.add_argument("--to", dest="stop", type=float, required=True, help="last distance (km)")
    p_scan.add_argument("--step", type=float, required=True, help="distance step (km)")
    p_scan.add_argument("--optimize", action="store_true", help="optimize parameters per distance")
    p_scan.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p_scan.add_argument("--restarts", type=int, default=None)
    p_scan.add_argument("--max-evals", dest="max_evals", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_opt = sub.add_parser("optimize", help="optimize source parameters at one distance")
    common(p_opt)
    p_opt.add_argument("--save-config", default=None, help="write the optimized bundle as JSON")
    p_opt.add_argument("--restarts", type=int, default=None)
    p_opt.add_argument("--max-evals", dest="max_evals", type=int, default=None)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run plus consistency report")
    p_sim.add_argument("config", help="path to the JSON configuration document")
    p_sim.add_argument("--distance", type=float, default=None, help="override distance_km")
    p_sim.add_argument("--bins", type=int, required=True, help="number of simulated time bins")
    p_sim.add_argument("--seed", type=int, default=1, help="master RNG seed")
    p_sim.add_argument("--out", default=None, help="write summary+report JSON here")
    p_sim.add_argument("--dark-counts", dest="dark_counts", type=float, default=None)
    p_sim.add_argument("--dump-coincidences", dest="dump", default=None,
                       help="write one CSV row per sifted coincidence")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DegenerateChannelError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
