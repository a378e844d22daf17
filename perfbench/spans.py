"""Spans around the calls that cross a layer boundary of the mfqcka package.

``Tracer.install`` replaces each boundary function (a module attribute, or
a value of a module-level dict) by a wrapper that records one span per
call: name, parent span, start and end time, whether the call raised, and
an optional flag computed from its result.  ``Tracer.restore`` puts the
originals back.  Spans live in flat arrays in memory and are written out
once, when the traced process ends; ``layer_metrics`` turns them into the
per-layer numbers.

Only calls between layers are wrapped.  Calls inside one module (for
example ``photonstats.pair_yield`` inside its cached weight sequence)
count in the self time of the enclosing span, as do ``channel`` and
``special_math``, whose functions the callers import by name.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from typing import Any, Callable

import numpy as np

LAYERS = ("cli", "model", "optimizer", "keyrate", "decoy", "matching", "photonstats", "montecarlo")

# (module holding the reference, attribute, layer of the called function).
# Names imported with ``from .x import f`` are separate references and are
# listed for every importing module; a dict attribute has its values wrapped.
BOUNDARIES = (
    ("mfqcka.cli", "bundle_from_dict", "model"),
    ("mfqcka.optimizer", "scan_distances", "optimizer"),
    ("mfqcka.optimizer", "optimize_at_distance", "optimizer"),
    ("mfqcka.keyrate", "finite_rate", "keyrate"),
    ("mfqcka.keyrate", "asymptotic_rate", "keyrate"),
    ("mfqcka.decoy", "bounds_3user_finite", "decoy"),
    ("mfqcka.keyrate", "_DECOY_ASYMPTOTIC", "decoy"),
    ("mfqcka.matching", "sifted_coincidences", "matching"),
    ("mfqcka.matching", "expected_stats", "matching"),
    ("mfqcka.matching", "_count_matrix", "matching"),
    ("mfqcka.photonstats", "sifted_coincidences", "matching"),
    ("mfqcka.photonstats", "_count_matrix", "matching"),
    ("mfqcka.photonstats", "phase_error_exact", "photonstats"),
    ("mfqcka.montecarlo", "run_protocol", "montecarlo"),
    ("mfqcka.montecarlo", "_generate_shard", "montecarlo"),
    ("mfqcka.montecarlo", "compare_to_analytic", "montecarlo"),
)

# Span status codes.
RETURNED, INFEASIBLE, RAISED = 0, 1, 2


def _clamped(result: Any) -> bool:
    return bool(result.clamped)


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.status = array("b")
        self.flag = array("b")
        self._stack = [-1]
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def _name(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layers.append(layer)
        return self.names.index(name)

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        infeasible: tuple[type[BaseException], ...] = (),
        flag: Callable[[Any], bool] | None = None,
    ) -> Callable:
        """Wrapper recording one span per call of ``fn``."""
        nid = self._name(name, layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        status, flags, stack, clock = self.status, self.flag, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            status.append(RETURNED)
            flags.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            except infeasible:
                status[i] = INFEASIBLE
                raise
            except BaseException:
                status[i] = RAISED
                raise
            finally:
                end[i] = clock()
                stack.pop()
            if flag is not None and flag(result):
                flags[i] = 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary reference listed in BOUNDARIES."""
        from mfqcka.model import ConfigError, DegenerateChannelError, EstimationError

        infeasible = (DegenerateChannelError, EstimationError, ConfigError)
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            target = getattr(module, attr)
            if isinstance(target, dict):
                for key, fn in list(target.items()):
                    name = f"{layer}.{fn.__name__}"
                    self._replace(target, key, self.wrap(fn, name, layer, flag=_clamped), True)
                continue
            name = f"{layer}.{attr}"
            flag = _clamped if layer == "decoy" else None
            errors = infeasible if layer == "keyrate" else ()
            self._replace(module, attr, self.wrap(target, name, layer, errors, flag), False)

    def _replace(self, container: Any, key: Any, value: Any, item: bool) -> None:
        if item:
            self._saved.append((container, key, container[key], True))
            container[key] = value
        else:
            self._saved.append((container, key, getattr(container, key), False))
            setattr(container, key, value)

    def restore(self) -> None:
        """Put back every original the tracer replaced, newest first."""
        while self._saved:
            container, key, original, item = self._saved.pop()
            if item:
                container[key] = original
            else:
                setattr(container, key, original)

    def save(self, path: str) -> None:
        """Write the spans to ``path`` (numpy .npz)."""
        np.savez(
            path,
            names=np.asarray(self.names),
            layers=np.asarray(self.layers),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            status=np.frombuffer(self.status, dtype=np.int8),
            flag=np.frombuffer(self.flag, dtype=np.int8),
        )


# -- analysis --------------------------------------------------------------------


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so the children of a span run one after
    another inside it and never overlap: the covered part is the sum of
    their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


def ancestor_layers(parent: np.ndarray, layer: np.ndarray) -> np.ndarray:
    """Bit mask per span of the layers among its ancestors (parents precede children)."""
    mask = np.zeros(len(parent), dtype=np.int64)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            mask[i] = mask[p] | (1 << int(layer[p]))
    return mask


def layer_metrics(spans: dict[str, np.ndarray], bins: int = 0, span_cost_s: float = 0.0) -> dict[str, float]:
    """The per-layer metrics that come from the spans of one traced process.

    A layer's calls are its outermost spans (no ancestor in the same
    layer), and its busy time is their summed duration.  ``bins`` is the
    number of time bins the process simulated, and ``span_cost_s`` what
    one wrapped call costs more than a bare one (see ``span_cost_s``).
    """
    layer_index = {name: i for i, name in enumerate(LAYERS)}
    layer = np.asarray([layer_index[spans["layers"][n]] for n in spans["name_id"]], dtype=np.int64)
    names = np.asarray(spans["names"])[spans["name_id"]]
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    dur = end - start
    own = self_times(parent, start, end)
    mask = ancestor_layers(parent, layer)
    outer = ((mask >> layer) & 1) == 0

    def mine(name: str) -> np.ndarray:
        return layer == layer_index[name]

    def busy(name: str) -> float:
        return float(dur[mine(name) & outer].sum())

    def self_s(name: str) -> float:
        return float(own[mine(name)].sum())

    def calls(name: str) -> float:
        return float(np.count_nonzero(mine(name) & outer))

    rate_calls = np.isin(names, ["keyrate.finite_rate", "keyrate.asymptotic_rate"])
    evals = rate_calls & ((mask >> layer_index["optimizer"]) & 1 == 1)
    decoy = mine("decoy") & outer
    keyrate_busy = busy("keyrate")
    shard_s = float(dur[names == "montecarlo._generate_shard"].sum())
    root_s = float(dur[parent < 0].sum())
    return {
        "cli.self_s": self_s("cli"),
        "model.busy_s": busy("model"),
        "optimizer.busy_s": busy("optimizer"),
        "optimizer.self_s": self_s("optimizer"),
        "optimizer.evals": float(np.count_nonzero(evals)),
        "optimizer.infeasible_frac": _frac(np.count_nonzero(evals & (spans["status"] == INFEASIBLE)), evals.sum()),
        "keyrate.busy_s": keyrate_busy,
        "keyrate.self_s": self_s("keyrate"),
        "keyrate.evals_per_s": calls("keyrate") / keyrate_busy if keyrate_busy > 0 else 0.0,
        "decoy.busy_s": busy("decoy"),
        "decoy.calls": calls("decoy"),
        "decoy.clamped_frac": _frac(np.count_nonzero(decoy & (spans["flag"] == 1)), decoy.sum()),
        "matching.busy_s": busy("matching"),
        "matching.calls": calls("matching"),
        "photonstats.busy_s": busy("photonstats"),
        "photonstats.self_s": self_s("photonstats"),
        "photonstats.calls": calls("photonstats"),
        "montecarlo.busy_s": busy("montecarlo"),
        "montecarlo.shard_ns_per_bin": 1e9 * shard_s / bins if bins and shard_s > 0 else 0.0,
        "montecarlo.match_pass_s": float(own[names == "montecarlo.run_protocol"].sum()),
        "montecarlo.compare_s": float(dur[names == "montecarlo.compare_to_analytic"].sum()),
        "trace.overhead_frac": len(dur) * span_cost_s / root_s if root_s > 0 else 0.0,
    }


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapped call costs more than a bare call, in this process.

    The best of ``repeats`` timings of ``calls`` calls each, so that a
    slow stretch of the machine does not inflate it.
    """
    def noop() -> None:
        return None

    wrapped = Tracer().wrap(noop, "noop", "cli")

    def best(fn: Callable) -> float:
        times = []
        for _ in range(repeats):
            t = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t)
        return min(times)

    return max(0.0, (best(wrapped) - best(noop)) / calls)


def _frac(part: float, whole: float) -> float:
    return float(part) / float(whole) if whole else 0.0
