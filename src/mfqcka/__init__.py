"""Numerical laboratory for multi-field quantum conference key agreement.

An analytic key-rate engine (channel model, coincidence-matching
statistics, multiparty decoy-state bounds, finite-size corrections,
parameter optimization) cross-validated by an event-level Monte Carlo
simulator of the full protocol including bit extraction.
"""

from .model import (
    Bundle,
    ChannelParams,
    CoincidenceStats,
    ConfigError,
    DecoyBounds,
    DegenerateChannelError,
    EstimationError,
    RateReport,
    SecurityParams,
    SourceConfig,
    bundle_from_dict,
    validate,
)
from .channel import arm_transmittance, total_efficiency
from .matching import expected_stats, sifted_coincidences
from .photonstats import phase_error_exact
from .decoy import (
    ObservedCounts,
    bounds_3user_asymptotic,
    bounds_3user_finite,
    bounds_4user_asymptotic,
    bounds_5user_asymptotic,
)
from .keyrate import asymptotic_rate, finite_rate, multicast_bound
from .optimizer import SearchSpec, optimize_at_distance, scan_distances
from .montecarlo import (
    ComparisonReport,
    TrialSummary,
    compare_to_analytic,
    run_protocol,
)

__version__ = "0.1.0"
