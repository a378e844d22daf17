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
                    "restarts": 8, "max_evals": 2000, "seed": 2024,
                    "tolerance": 1e-9}
    }

`decoy_intensities` lists one entry per user, ending with the vacuum (0);
`send_probabilities` is aligned with (signal, *decoys) and sums to 1.
The ``optimizer`` section is optional; an unknown section or field is an
error, not a default.  Exit codes: 0 success, 2 parse or validation
failure, an output file that cannot be written or a working point with
no signal to evaluate, 3 simulation-consistency failure.  A plain scan
that reaches a distance without a rate first writes the rows before it.

CSV output uses a fixed column set, scientific notation with 10
significant digits, and no locale-dependent formatting, so files from
different machines are directly comparable.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from . import keyrate, montecarlo, optimizer
from .channel import error_terms, total_efficiency
from .model import (
    Bundle,
    ConfigError,
    DegenerateChannelError,
    EstimationError,
    RateReport,
    SCHEMA,
    _write_text,
    bundle_from_dict,
    read_section,
    validate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".9e")
    return str(value)


def _prepare(
    args: argparse.Namespace, *outputs: str | None
) -> tuple[Bundle, dict[str, Any], optimizer.SearchSpec]:
    """The bundle, document and search spec of ``args``, checked before anything computes.

    Reads and validates the document, applies the command's --distance and
    --dark-counts in one validation, builds the search spec with its
    --restarts, --max-evals and --seed, and checks that every given output
    path could be written.
    """
    try:
        raw = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: byte {exc.start} is {exc.object[exc.start]:#04x}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError("malformed JSON: nested too deeply") from None
    bundle = bundle_from_dict(doc)
    names = ("distance_km", "dark_count_rate")  # --distance, --dark-counts; + 0.0 turns -0.0 into 0.0
    overrides = {name: getattr(args, name) + 0.0 for name in names if getattr(args, name, None) is not None}
    if overrides:
        bundle = _override(bundle, **overrides)
    spec = _search_spec(doc, args)
    for path in outputs:
        if path:
            _check_writable(path)
    return bundle, doc, spec


def _override(bundle: Bundle, **channel_fields: float) -> Bundle:
    """The bundle with command-line channel overrides, validated like the file."""
    channel = bundle.channel._replace(**channel_fields)
    return validate(bundle.config, channel, bundle.security)


def _search_spec(doc: dict[str, Any], args: argparse.Namespace | None = None) -> optimizer.SearchSpec:
    """The document's ``optimizer`` section, with the --restarts, --max-evals and --seed of ``args``."""
    opt = doc.get("optimizer")
    if opt is not None and not isinstance(opt, Mapping):
        raise ConfigError("section optimizer must be an object")
    fields = read_section("optimizer", opt or {}, SCHEMA["optimizer"], required=())
    kwargs = {name: value for name, value in fields.items() if value is not None}
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


def _evaluate(bundles: list[Bundle], objective: str) -> Iterator[RateReport]:
    """The rate reports of ``bundles``, in order; the first call into the computation.

    The bundles are the steps of one scan, which differ in their channel
    only, so they are rated in one kernel pass by ``keyrate.rate_reports``,
    whose reports arrive one by one: those before the first bundle without
    a rate, then that bundle's error.  A lone bundle is rated by
    ``keyrate.rate_report``, whose one-row layer calls are the boundaries
    that ``perfbench/spans.py`` traces.
    """
    first = bundles[0]
    if len(bundles) == 1:
        return iter([keyrate.rate_report(first.config, first.channel, first.security, objective)])
    channels = [bundle.channel for bundle in bundles]
    return keyrate.rate_reports(first.config, channels, first.security, objective)


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


def _csv_columns(report: RateReport, seed: int) -> list[tuple[str, Any]]:
    """The CSV columns of one report, as (header, value) in file order."""
    cfg = report.params_used
    decoys = range(1, len(cfg.decoy_intensities) + 1)
    return [
        ("distance_km", report.distance_km),
        ("users", cfg.num_users),
        ("data_size", report.data_size),
        ("key_rate", report.key_rate),
        ("key_rate_raw", report.key_rate_raw),
        ("multicast_bound", report.multicast_bound),
        ("phase_error_upper", report.phase_error_upper),
        ("adjacent_error", report.adjacent_error),
        ("worst_marginal_error", report.worst_marginal_error),
        ("s_mu", report.sifted_signal),
        ("mu", cfg.signal_intensity),
        *zip((f"decoy_{i}" for i in decoys), cfg.decoy_intensities),
        ("p_mu", cfg.send_probabilities[0]),
        *zip((f"p_decoy_{i}" for i in decoys), cfg.send_probabilities[1:]),
        ("seed", seed),
    ]


def _csv_text(reports: Iterable[RateReport], seed: int) -> str:
    """The header line, then one row per report."""
    lines = []
    for report in reports:
        columns = _csv_columns(report, seed)
        if not lines:
            lines.append(",".join(name for name, _ in columns))
        lines.append(",".join(_fmt(value) for _, value in columns))
    return "".join(line + "\n" for line in lines)


def cmd_rate(args: argparse.Namespace) -> int:
    objective = _objective(args)
    if args.bound_only and args.out:
        raise ConfigError("--bound-only prints the bound only; it writes no --out file")
    bundle, _, _ = _prepare(args, args.out)
    if args.bound_only:
        print(f"multicast_bound = {_fmt(keyrate.multicast_bound(bundle.channel))}")
        return EXIT_OK
    (report,) = _evaluate([bundle], objective)
    _print_report(report)
    if args.out:
        _write_text(args.out, _csv_text([report], seed=0))
    return EXIT_OK


# Scan distances are rounded to this grid (km); a smaller step would repeat them.
_SCAN_GRID_KM = 1e-9
_MAX_SCAN_POINTS = 1_000_000


def _scan_distances(start: float, stop: float, step: float) -> list[float]:
    """start + i*step up to stop; indexing keeps rounding from accumulating.

    The slack that admits a stop reached up to rounding is a fraction of
    a step, so small steps do not run past ``stop``.  The step and the
    point count are checked before any distance is built, and a step too
    fine for the float spacing of the distances, which would repeat them,
    after.
    """
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("scan range and step must be finite")
    if step <= 0:
        raise ConfigError("scan step must be positive")
    if step < _SCAN_GRID_KM:
        raise ConfigError(f"scan step must be at least {_SCAN_GRID_KM:g} km, the distance grid")
    points = (stop - start) / step + 1e-9  # steps to the last point; +-inf where the span overflows
    if points < 0.0:
        raise ConfigError("scan range is empty")
    if points >= _MAX_SCAN_POINTS:
        raise ConfigError(f"scan has more than {_MAX_SCAN_POINTS} points")
    distances = [round(start + i * step, 9) for i in range(math.floor(points) + 1)]
    if any(a == b for a, b in zip(distances, distances[1:])):  # they never decrease
        raise ConfigError(f"scan distances repeat: a step of {step:g} km is below their float spacing")
    return distances


def cmd_scan(args: argparse.Namespace) -> int:
    objective = _objective(args)
    bundle, _, spec = _prepare(args, args.out)
    distances = _scan_distances(args.start, args.stop, args.step)
    steps = [_override(bundle, distance_km=d) for d in distances]
    if args.optimize:
        _write_scan(args.out, optimizer.scan_distances(steps, spec, objective), spec.seed)
        return EXIT_OK
    reports: list[RateReport] = []
    try:
        for report in _evaluate(steps, objective):
            reports.append(report)
    except (ConfigError, DegenerateChannelError, EstimationError):
        # The rows before the first distance without a rate are kept; the
        # command then fails with that distance's error.
        if reports:
            _write_scan(args.out, reports, spec.seed)
        raise
    _write_scan(args.out, reports, spec.seed)
    return EXIT_OK


def _write_scan(out: str | None, reports: list[RateReport], seed: int) -> None:
    """The scan's CSV to ``out``, or to stdout without one."""
    text = _csv_text(reports, seed)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_optimize(args: argparse.Namespace) -> int:
    objective = _objective(args)
    bundle, doc, spec = _prepare(args, args.save_config)
    report = optimizer.optimize_at_distance(spec, objective, bundle)
    _print_report(report)
    if args.save_config:
        tuned = Bundle(config=report.params_used, channel=bundle.channel, security=bundle.security)
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


# The simulator's port tables grow with (users + 1)^2 * phase_slices, and
# each step of its analytic comparison's transfer chain holds a
# (users // 2, users + 1, users + 1) product and its transposed copy, about
# users^3 doubles (135 MB at 256 users); past these bounds they no longer fit
# in a few GB of memory.  A run takes about 5 ns (3 users) to 40 ns (8 users)
# per bin on one core and keeps every retained bin (about 6e-4 of the bins at
# 3 users and 50 km) until matching, so 1e12 bins already take hours and tens
# of GB; the bound admits 1e9-bin runs and rejects a count whose shards could
# never all run before any of them does.
_MAX_SIMULATE_TABLE = 1 << 22
_MAX_SIMULATE_USERS = 256
_MAX_SIMULATE_BINS = 10**12


def cmd_simulate(args: argparse.Namespace) -> int:
    bundle, _, _ = _prepare(args, args.out, args.dump)
    if not 1 <= args.bins <= _MAX_SIMULATE_BINS:
        raise ConfigError(f"--bins must be between 1 and {_MAX_SIMULATE_BINS}, not {args.bins}")
    n, m_slices = bundle.config.num_users, bundle.config.phase_slices
    if n > _MAX_SIMULATE_USERS or (n + 1) ** 2 * m_slices > _MAX_SIMULATE_TABLE:
        raise ConfigError(
            f"simulate handles at most {_MAX_SIMULATE_USERS} users and (users + 1)^2 * phase_slices "
            f"<= {_MAX_SIMULATE_TABLE}, not {n} users with {m_slices} phase slices"
        )
    if args.mc_seed < 0:
        raise ConfigError("--seed must be non-negative")
    # a channel that cannot click fails here rather than after its shards
    error_terms(bundle.config.signal_intensity, n, total_efficiency(bundle.channel), bundle.channel.dark_count_rate)
    summary = montecarlo.run_protocol(bundle, args.bins, args.mc_seed, coincidence_dump=args.dump)
    report = montecarlo.compare_to_analytic(summary, bundle)
    if args.out:
        # written piece by piece: the largest documents' text would take hundreds of MB
        doc = {"summary": summary.to_dict(), "comparison": report.to_dict()}
        _write_text(args.out, itertools.chain(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc), "\n"))
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="path to the JSON configuration document")
        p.add_argument(
            "--objective",
            choices=["finite", "asymptotic"],
            default="finite",
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
    p_rate.add_argument("--distance", dest="distance_km", type=float, help="override distance_km")
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
    p_opt.add_argument("--distance", dest="distance_km", type=float, help="override distance_km")
    p_opt.add_argument("--save-config", default=None, help="write the optimized bundle as JSON")
    p_opt.add_argument("--restarts", type=int, default=None)
    p_opt.add_argument("--max-evals", dest="max_evals", type=int, default=None)
    p_opt.add_argument("--seed", type=int, default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run plus consistency report")
    p_sim.add_argument("config", help="path to the JSON configuration document")
    p_sim.add_argument("--distance", dest="distance_km", type=float, help="override distance_km")
    p_sim.add_argument("--bins", type=int, required=True, help="number of simulated time bins")
    p_sim.add_argument("--seed", dest="mc_seed", type=int, default=1, help="master RNG seed")
    p_sim.add_argument("--out", default=None, help="write summary+report JSON here")
    p_sim.add_argument("--dark-counts", dest="dark_count_rate", type=float)
    p_sim.add_argument("--dump-coincidences", dest="dump", default=None,
                       help="write one CSV row per sifted coincidence")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand on ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    Before anything else ``main`` calls ``gc.freeze()``.  Importing
    ``mfqcka`` has already frozen numpy and the package (see the package
    docstring), so this freeze covers what was made after that: this
    module's own imports (argparse, json) and whatever the caller built.
    It moves them to the collector's permanent generation.  In a CLI
    process all of them live until exit, so neither the run's own
    collections nor those at interpreter shutdown walk them again (README
    gives the measured shutdown times).  A caller that runs ``main`` inside a
    longer-lived process keeps its objects freed by reference counting
    as before, and the collector still reclaims every cycle made after
    the call; only cyclic garbage that already existed at the call stays
    alive, until ``gc.unfreeze()``.
    """
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DegenerateChannelError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
