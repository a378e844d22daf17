"""Numerical laboratory for multi-field quantum conference key agreement.

An analytic key-rate engine (channel model, coincidence-matching
statistics, multiparty decoy-state bounds, finite-size corrections,
parameter optimization) cross-validated by an event-level Monte Carlo
simulator of the full protocol including bit extraction.

Importing the package leaves the importer's heap changed in one way.
The collector is switched off while the package and numpy load: they
build some 30,000 objects that live as long as the process, and the
30-odd collections that would otherwise run during the import would
walk them all.  Once the last module has loaded, ``gc.freeze()`` moves
every object alive in the process (the importer's as well as the
import's) to the collector's permanent generation, so later collections
skip them too; cyclic garbage that exists at that point stays alive
until ``gc.unfreeze()``.  The collector is then left enabled or
disabled, as the importer had it, whether or not the import succeeds.
"""

import gc as _gc

_collecting = _gc.isenabled()
_gc.disable()
try:
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
    _gc.freeze()
finally:
    if _collecting:
        _gc.enable()

__version__ = "0.1.0"
