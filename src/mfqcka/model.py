"""Domain types shared by every module, plus validation of raw parameters.

All physical and protocol parameters live in three frozen dataclasses
(:class:`ChannelParams`, :class:`SourceConfig`, :class:`SecurityParams`).
`validate` checks every invariant in a fixed order and returns an immutable
:class:`Bundle`; everything downstream may assume a validated bundle and
share it freely across workers.

Conventions used throughout the package:

* the star network is symmetric: every user sits ``distance_km`` from the
  untrusted relay and uses the same intensity set,
* the intensity set has ``num_users + 1`` members: the signal ``mu``
  followed by the decoys, of which the last is always the vacuum (0),
* send probabilities are stored per intensity *including* the vacuum and
  sum to 1.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Mapping


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


@dataclass(frozen=True)
class ChannelParams:
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
    distance_km: float

    def with_distance(self, distance_km: float) -> "ChannelParams":
        return dataclasses.replace(self, distance_km=float(distance_km))


@dataclass(frozen=True)
class SourceConfig:
    """Source side of the protocol: intensities, probabilities, phase grid.

    ``decoy_intensities`` holds the full decoy list including the vacuum as
    its final element, so an N-user setup carries N decoys and N+1 intensity
    settings overall.  ``send_probabilities`` is aligned with
    ``(signal_intensity, *decoy_intensities)``.
    """

    num_users: int
    signal_intensity: float
    decoy_intensities: tuple[float, ...]
    send_probabilities: tuple[float, ...]
    phase_slices: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "decoy_intensities", tuple(float(x) for x in self.decoy_intensities))
        object.__setattr__(self, "send_probabilities", tuple(float(x) for x in self.send_probabilities))

    @property
    def intensities(self) -> tuple[float, ...]:
        """All intensity settings, signal first, vacuum last."""
        return (self.signal_intensity,) + self.decoy_intensities

    @property
    def num_ports(self) -> int:
        return self.num_users - 1


@dataclass(frozen=True)
class SecurityParams:
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


@dataclass(frozen=True)
class Bundle:
    """A validated (source, channel, security) triple."""

    config: SourceConfig
    channel: ChannelParams
    security: SecurityParams

    def to_dict(self) -> dict[str, Any]:
        return {
            "channel": {
                "detector_efficiency": self.channel.detector_efficiency,
                "dark_count_rate": self.channel.dark_count_rate,
                "fiber_alpha_db_per_km": self.channel.fiber_alpha,
                "distance_km": self.channel.distance_km,
            },
            "source": {
                "users": self.config.num_users,
                "signal_intensity": self.config.signal_intensity,
                "decoy_intensities": list(self.config.decoy_intensities),
                "send_probabilities": list(self.config.send_probabilities),
                "phase_slices": self.config.phase_slices,
            },
            "security": {
                "data_size": self.security.data_size,
                "eps_ec": self.security.eps_ec,
                "eps_pa": self.security.eps_pa,
                "eps_chernoff": self.security.eps_chernoff,
                "ec_efficiency": self.security.ec_efficiency,
            },
        }


def _number(value: Any, name: str) -> float:
    """A finite float from a JSON number or numeric string; bools are rejected."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _integer(value: Any, name: str) -> int:
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _numbers(value: Any, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(value))


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None


def bundle_from_dict(doc: Mapping[str, Any]) -> Bundle:
    """Build and validate a bundle from a parsed JSON configuration document.

    Raises ConfigError naming the missing/invalid field on malformed input:
    a missing section or field, a section that is not an object, a value
    that is not a finite number (bools included), a non-integral
    ``users``/``phase_slices``, or a top-level section or section field
    that no parameter reads (the ``optimizer`` section is the caller's).
    """
    sections = {}
    for name in ("channel", "source", "security"):
        try:
            section = doc[name]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"missing top-level section: {exc}") from None
        if not isinstance(section, Mapping):
            raise ConfigError(f"section {name} must be an object")
        sections[name] = section
    for name in doc:
        if name not in sections and name != "optimizer":
            raise ConfigError(f"unknown top-level section: {name!r}")
    read = set()

    def _get(name: str, key: str, parse=_number, default: Any = None) -> Any:
        read.add((name, key))
        section = sections[name]
        if key in section:
            return parse(section[key], f"{name}.{key}")
        if default is not None:
            return default
        raise ConfigError(f"missing field {name}.{key}")

    channel = ChannelParams(
        detector_efficiency=_get("channel", "detector_efficiency"),
        dark_count_rate=_get("channel", "dark_count_rate"),
        fiber_alpha=_get("channel", "fiber_alpha_db_per_km"),
        distance_km=_get("channel", "distance_km", default=0.0),
    )
    config = SourceConfig(
        num_users=_get("source", "users", _integer),
        signal_intensity=_get("source", "signal_intensity"),
        decoy_intensities=_get("source", "decoy_intensities", _numbers),
        send_probabilities=_get("source", "send_probabilities", _numbers),
        phase_slices=_get("source", "phase_slices", _integer),
    )
    security = SecurityParams(
        data_size=_get("security", "data_size"),
        eps_ec=_get("security", "eps_ec", default=1e-15),
        eps_pa=_get("security", "eps_pa", default=1e-10),
        eps_chernoff=_get("security", "eps_chernoff", default=1e-10),
        ec_efficiency=_get("security", "ec_efficiency", default=1.1),
    )
    for name, section in sections.items():
        for key in section:
            if (name, key) not in read:
                raise ConfigError(f"unknown field {name}.{key}")
    return validate(config, channel, security)


_PROB_SUM_TOL = 1e-9
# Mean photon number cap: the model is one of weak coherent pulses, and
# well above this exp(eta_t * k) in the click formulas overflows a double.
_MAX_INTENSITY = 100.0
# Largest even slice count whose index arithmetic fits the simulator's int16.
_MAX_PHASE_SLICES = 2**15 - 2


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
    for name in ("eps_ec", "eps_pa", "eps_chernoff"):
        eps = getattr(sec, name)
        # ln(1/eps) must stay finite: subnormal eps would overflow 1/eps
        if not sys.float_info.min <= eps < 1.0:
            raise ConfigError(f"{name} must lie in (0, 1) and be at least {sys.float_info.min!r}")
    if not sec.ec_efficiency >= 1.0:
        raise ConfigError("ec_efficiency must be >= 1")

    return Bundle(config=config, channel=channel, security=sec)


@dataclass(frozen=True)
class CoincidenceStats:
    """Post-measurement matching statistics, analytic or simulated.

    ``retained_clicks`` maps (intensity, port, slice) -> count of retained
    successful time bins, ``slice_totals`` maps (port, slice) -> count,
    ``sifted`` maps intensity -> coincidence count.  Counts are real-valued
    because the analytic formulas produce means of the counting process.
    """

    retained_clicks: Mapping[tuple[float, int, int], float]
    slice_totals: Mapping[tuple[int, int], float]
    sifted: Mapping[float, float]
    adjacent_error: float
    marginal_errors: tuple[float, ...]


@dataclass(frozen=True)
class DecoyBounds:
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


@dataclass(frozen=True)
class RateReport:
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
    sifted: Mapping[float, float] = field(default_factory=dict)
    s_mu_n_lower: Mapping[int, float] = field(default_factory=dict)
    correction_bits: float = 0.0
    chernoff_applications: int = 0
    failure_budget: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["params_used"] = {
            "users": self.params_used.num_users,
            "signal_intensity": self.params_used.signal_intensity,
            "decoy_intensities": list(self.params_used.decoy_intensities),
            "send_probabilities": list(self.params_used.send_probabilities),
            "phase_slices": self.params_used.phase_slices,
        }
        d["sifted"] = {repr(k): v for k, v in self.sifted.items()}
        d["s_mu_n_lower"] = {str(k): v for k, v in self.s_mu_n_lower.items()}
        return d
