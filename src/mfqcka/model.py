"""Domain types shared by every module, plus validation of raw parameters.

All physical and protocol parameters live in three immutable records
(:class:`ChannelParams`, :class:`SourceConfig`, :class:`SecurityParams`).
`validate` checks every invariant in a fixed order and returns an immutable
:class:`Bundle`; everything downstream may assume a validated bundle and
share it freely across workers.

The JSON configuration document is described once, by ``SCHEMA``:
``read_section`` parses a section of it and ``write_section`` writes one.
``jsonable`` is the one rule by which every report becomes JSON data.

Conventions used throughout the package:

* the star network is symmetric: every user sits ``distance_km`` from the
  untrusted relay and uses the same intensity set,
* the intensity set has ``num_users + 1`` members: the signal ``mu``
  followed by the decoys, of which the last is always the vacuum (0),
* send probabilities are stored per intensity *including* the vacuum and
  sum to 1.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Collection, Iterable, Mapping
from types import MappingProxyType
from typing import Any, NamedTuple


class ConfigError(ValueError):
    """A user-supplied parameter violates one of the documented invariants."""


class DegenerateChannelError(ArithmeticError):
    """Click probabilities underflowed; the working point has no signal.

    Raised instead of silently returning 0/0 so that optimizer sweeps and
    scans fail loudly on unphysical corners of the search box.
    """


class EstimationError(ArithmeticError):
    """A statistical estimate is undefined (e.g. no sifted signal events)."""


# A batch of rate evaluations reports, per row, the error that evaluating
# the row alone raises: code c > 0 stands for INFEASIBLE[c], 0 for none.
INFEASIBLE = (None, ConfigError, EstimationError, DegenerateChannelError)


class ChannelParams(NamedTuple):
    """Physical layer: detectors, dark counts, and fiber.

    Attributes:
        detector_efficiency: single-photon detector efficiency, in [0, 1].
        dark_count_rate: dark-count probability per detector per time bin.
        fiber_alpha: fiber attenuation in dB/km.
        distance_km: length of each user-to-relay arm in km.
    """

    detector_efficiency: float
    dark_count_rate: float
    fiber_alpha: float
    distance_km: float = 0.0


class _SourceFields(NamedTuple):
    num_users: int
    signal_intensity: float
    decoy_intensities: tuple[float, ...]
    send_probabilities: tuple[float, ...]
    phase_slices: int


class SourceConfig(_SourceFields):
    """Source side of the protocol: intensities, probabilities, phase grid.

    ``decoy_intensities`` holds the full decoy list including the vacuum as
    its final element, so an N-user setup carries N decoys and N+1 intensity
    settings overall.  ``send_probabilities`` is aligned with
    ``(signal_intensity, *decoy_intensities)``.  Both are stored as tuples
    of floats whatever sequence they are built from; ``_replace`` skips
    that conversion, so it must be given float tuples.
    """

    __slots__ = ()

    def __new__(
        cls,
        num_users: int,
        signal_intensity: float,
        decoy_intensities: tuple[float, ...],
        send_probabilities: tuple[float, ...],
        phase_slices: int,
    ) -> SourceConfig:
        return super().__new__(
            cls,
            num_users,
            signal_intensity,
            tuple(float(x) for x in decoy_intensities),
            tuple(float(x) for x in send_probabilities),
            phase_slices,
        )

    @property
    def intensities(self) -> tuple[float, ...]:
        """All intensity settings, signal first, vacuum last."""
        return (self.signal_intensity,) + self.decoy_intensities

    @property
    def num_ports(self) -> int:
        return self.num_users - 1


class SecurityParams(NamedTuple):
    """Data size and failure-probability budget of one protocol run.

    ``eps_chernoff`` is consumed once per concentration-bound application;
    the total failure budget reported alongside a finite-size rate is the
    plain sum of the epsilons used.
    """

    data_size: float
    eps_ec: float = 1e-15
    eps_pa: float = 1e-10
    eps_chernoff: float = 1e-10
    ec_efficiency: float = 1.1


class Bundle(NamedTuple):
    """A validated (source, channel, security) triple."""

    config: SourceConfig
    channel: ChannelParams
    security: SecurityParams

    def to_dict(self) -> dict[str, Any]:
        return {
            "channel": write_section("channel", self.channel),
            "source": write_section("source", self.config),
            "security": write_section("security", self.security),
        }


def _shown(text: str) -> str:
    """``text`` cut to 40 characters: an error message shows no more of an offending value."""
    return text if len(text) <= 40 else text[:37] + "..."


def _number(value: Any, name: str) -> float:
    """A finite float from a JSON number or numeric string, -0.0 as 0.0; bools are rejected."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number + 0.0  # a signed zero enters as 0.0
    raise ConfigError(f"{name} must be a finite number, got {_shown(repr(value))}")


def _integer(value: Any, name: str) -> int:
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {_shown(repr(value))}")
    return int(number)


def _numbers(value: Any, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {_shown(repr(value))}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(value))


def _write_text(path: str, text: str | Iterable[str]) -> None:
    """Write an output file, a string or its pieces; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def _bounds(value: Any, name: str) -> tuple[float, float]:
    bounds = _numbers(value, name)
    if len(bounds) != 2:
        raise ConfigError(f"{name} must list exactly two numbers (lower, upper), got {_shown(repr(value))}")
    return bounds


_Parser = Callable[[Any, str], Any]


def _or_default(parse: _Parser) -> _Parser:
    """``parse``, except that a null parses to None: the field keeps its default."""
    return lambda value, name: None if value is None else parse(value, name)


# The configuration document: for each section, in document order, the
# (JSON key, record field, parser) of every field it may hold.  The
# optimizer section fills ``optimizer.SearchSpec``.
SCHEMA: dict[str, tuple[tuple[str, str, _Parser], ...]] = {
    "channel": (
        ("detector_efficiency", "detector_efficiency", _number),
        ("dark_count_rate", "dark_count_rate", _number),
        ("fiber_alpha_db_per_km", "fiber_alpha", _number),
        ("distance_km", "distance_km", _number),
    ),
    "source": (
        ("users", "num_users", _integer),
        ("signal_intensity", "signal_intensity", _number),
        ("decoy_intensities", "decoy_intensities", _numbers),
        ("send_probabilities", "send_probabilities", _numbers),
        ("phase_slices", "phase_slices", _integer),
    ),
    "security": (
        ("data_size", "data_size", _number),
        ("eps_ec", "eps_ec", _number),
        ("eps_pa", "eps_pa", _number),
        ("eps_chernoff", "eps_chernoff", _number),
        ("ec_efficiency", "ec_efficiency", _number),
    ),
    "optimizer": (
        ("intensity_bounds", "intensity_bounds", _or_default(_bounds)),
        ("prob_bounds", "prob_bounds", _or_default(_bounds)),
        ("restarts", "restarts", _or_default(_integer)),
        ("max_evals", "max_evals", _or_default(_integer)),
        ("seed", "seed", _or_default(_integer)),
        ("tolerance", "tolerance", _or_default(_number)),
    ),
}
# The sections that hold the bundle's parameters, and their classes.
_PARAMETER_SECTIONS = {"channel": ChannelParams, "source": SourceConfig, "security": SecurityParams}


def read_section(
    name: str,
    section: Mapping[str, Any],
    fields: tuple[tuple[str, str, _Parser], ...],
    required: Collection[str],
) -> dict[str, Any]:
    """Parse one document section into ``{record field: value}``.

    ``fields`` are the section's (JSON key, record field, parser)
    triples.  An absent key is left out, so its field keeps its default,
    unless its field is in ``required``; a key that ``fields`` does not
    list is an error.  Keys are parsed in ``fields`` order, before the
    unknown-key check.
    """
    values = {}
    for key, attr, parse in fields:
        if key in section:
            values[attr] = parse(section[key], f"{name}.{key}")
        elif attr in required:
            raise ConfigError(f"missing field {name}.{key}")
    listed = {key for key, _, _ in fields}
    for key in section:
        if key not in listed:
            raise ConfigError(f"unknown field {name}.{_shown(key)}")
    return values


def write_section(name: str, params: Any) -> dict[str, Any]:
    """The document section ``name`` that ``read_section`` reads back into ``params``."""
    return {key: jsonable(getattr(params, attr)) for key, attr, _ in SCHEMA[name]}


def jsonable(value: Any) -> Any:
    """Plain JSON data from a report: the one rule every ``to_dict`` follows.

    A record (a tuple with ``_fields``) becomes an object of its fields,
    any other tuple or list a list, an array (anything with ``tolist``)
    nested lists, and a mapping an object sorted by key whose keys are the
    keys' ``repr``; a tuple key becomes its parts' ``repr`` joined by ``|``.
    """
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: jsonable(v) for name, v in zip(value._fields, value)}
    if isinstance(value, Mapping):
        return {
            "|".join(map(repr, k)) if isinstance(k, tuple) else repr(k): jsonable(v)
            for k, v in sorted(value.items())
        }
    if isinstance(value, (tuple, list)):
        return [jsonable(v) for v in value]
    return value


def bundle_from_dict(doc: Mapping[str, Any]) -> Bundle:
    """Build and validate a bundle from a parsed JSON configuration document.

    Raises ConfigError naming the missing/invalid field on malformed input:
    a document or section that is not an object, a missing section or
    required field, a value that is not a finite number (bools included),
    a non-integral ``users``/``phase_slices``, or a top-level section or
    section field that ``SCHEMA`` does not list (the ``optimizer``
    section is the caller's).  An omitted optional field takes its
    record default.
    """
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration document must be a JSON object")
    sections = {}
    for name in _PARAMETER_SECTIONS:
        if name not in doc:
            raise ConfigError(f"missing top-level section: {name!r}")
        section = doc[name]
        if not isinstance(section, Mapping):
            raise ConfigError(f"section {name} must be an object")
        sections[name] = section
    for name in doc:
        if name not in SCHEMA:
            raise ConfigError(f"unknown top-level section: {_shown(repr(name))}")
    channel, config, security = (
        cls(**read_section(name, sections[name], SCHEMA[name], _required(cls)))
        for name, cls in _PARAMETER_SECTIONS.items()
    )
    return validate(config, channel, security)


def _required(cls: type) -> set[str]:
    """The fields of a parameter class that have no default."""
    return set(cls._fields).difference(cls._field_defaults)


_PROB_SUM_TOL = 1e-9
# Mean photon number cap: the model is one of weak coherent pulses, and
# well above this exp(eta_t * k) in the click formulas overflows a double.
_MAX_INTENSITY = 100.0
# Largest even slice count whose index arithmetic fits the simulator's int16.
_MAX_PHASE_SLICES = 2**15 - 2
# Data size cap: below it the count matrix (4 N p^2 q / M^2) and the Chernoff
# terms (2 ln(1/eps) s, with ln(1/eps) < 709) of a finite-size rate stay finite.
_MAX_DATA_SIZE = 1e300


def validate(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> Bundle:
    """Check every type invariant and return the immutable bundle.

    The first violated invariant is reported by name in the ConfigError
    message; checks run in a fixed, documented order (channel, source,
    security) so error messages are deterministic.
    """
    # -- channel ----------------------------------------------------------
    if not 0.0 <= channel.detector_efficiency <= 1.0:
        raise ConfigError("detector_efficiency must lie in [0, 1]")
    if not 0.0 <= channel.dark_count_rate < 1.0:
        raise ConfigError("dark_count_rate must lie in [0, 1)")
    if not channel.fiber_alpha > 0.0:
        raise ConfigError("fiber_alpha must be positive")
    if not math.isfinite(channel.distance_km):
        raise ConfigError("distance_km must be finite")
    if not channel.distance_km >= 0.0:
        raise ConfigError("distance_km must be nonnegative")

    # -- source -----------------------------------------------------------
    n = config.num_users
    if n < 3:
        raise ConfigError("num_users must be at least 3")
    decoys = config.decoy_intensities
    if len(decoys) != n:
        raise ConfigError(
            f"decoy_intensities must list {n} settings for {n} users "
            "(the nonzero decoys followed by the vacuum)"
        )
    if decoys[-1] != 0.0:
        raise ConfigError("the last decoy intensity must be the vacuum (0)")
    if any(x == 0.0 for x in decoys[:-1]):
        raise ConfigError("only the final decoy may be the vacuum; found a second zero")
    ordered = (config.signal_intensity,) + decoys
    for a, b in zip(ordered, ordered[1:]):
        if not a > b:
            raise ConfigError("intensities not strictly decreasing (signal must be largest)")
    if not config.signal_intensity <= _MAX_INTENSITY:
        raise ConfigError(f"signal_intensity must be at most {_MAX_INTENSITY:g} photons per pulse")
    probs = config.send_probabilities
    if len(probs) != len(ordered):
        raise ConfigError(
            f"send_probabilities must have one entry per intensity setting ({len(ordered)})"
        )
    if any(not 0.0 < p < 1.0 for p in probs):
        raise ConfigError("send probabilities must lie strictly inside (0, 1)")
    if abs(math.fsum(probs) - 1.0) > _PROB_SUM_TOL:
        raise ConfigError(f"send probabilities must sum to 1 (got {math.fsum(probs)!r})")
    if not 4 <= config.phase_slices <= _MAX_PHASE_SLICES or config.phase_slices % 2 != 0:
        raise ConfigError(f"phase_slices must be an even integer in [4, {_MAX_PHASE_SLICES}]")

    # -- security ---------------------------------------------------------
    if not sec.data_size >= 1.0:
        raise ConfigError("data_size must be at least 1")
    if not sec.data_size <= _MAX_DATA_SIZE:
        raise ConfigError(f"data_size must be at most {_MAX_DATA_SIZE:g}")
    for name in ("eps_ec", "eps_pa", "eps_chernoff"):
        eps = getattr(sec, name)
        # ln(1/eps) must stay finite: subnormal eps would overflow 1/eps
        if not sys.float_info.min <= eps < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1) and be at least {sys.float_info.min!r}")
    if not sec.ec_efficiency >= 1.0:
        raise ConfigError("ec_efficiency must be >= 1")

    return Bundle(config=config, channel=channel, security=sec)


class CoincidenceStats(NamedTuple):
    """Analytic means of the matching statistics: float arrays, settings in ladder order."""

    retained_clicks: Any  # [setting, port - 1], in each phase slice
    sifted: Any  # [setting], over all slices
    adjacent_error: float


class DecoyBounds(NamedTuple):
    """Lower bounds on photon-number contributions and the phase-error cap.

    ``clamped`` lists the photon numbers whose raw bound came out negative
    under statistical fluctuation and was clamped to zero;
    ``chernoff_applications`` counts the concentration bounds a finite-size
    estimate consumed (0 for asymptotic bounds).
    """

    s_mu_n_lower: Mapping[int, float]
    phase_error_upper: float
    clamped: tuple[int, ...] = ()
    chernoff_applications: int = 0


# The default of RateReport's mapping fields: empty and immutable, so one object serves every report.
_EMPTY: Mapping[Any, Any] = MappingProxyType({})


class RateReport(NamedTuple):
    """One key-rate evaluation with every intermediate retained.

    ``key_rate`` is clamped at zero for presentation; ``key_rate_raw`` keeps
    the possibly negative value so optimizers see a gradient.
    """

    key_rate: float
    key_rate_raw: float
    multicast_bound: float
    phase_error_upper: float
    adjacent_error: float
    worst_marginal_error: float
    sifted_signal: float
    params_used: SourceConfig
    distance_km: float
    data_size: float
    mode: str
    marginal_errors: tuple[float, ...] = ()
    sifted: Mapping[float, float] = _EMPTY
    s_mu_n_lower: Mapping[int, float] = _EMPTY
    correction_bits: float = 0.0
    chernoff_applications: int = 0
    failure_budget: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return dict(jsonable(self), params_used=write_section("source", self.params_used))
