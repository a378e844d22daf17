"""Benchmark of the mfqcka command line: end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a closed loop of one client: it starts one fresh CLI process
at a time (``perfbench/child.py`` calling ``mfqcka.cli.main``), waits for
it to exit, checks its output, and starts the next until ``--seconds``
are used up, with at least MIN_PROCESSES processes.  Metrics are medians
over the processes of the run.  Before each process the runner times a
fixed calibration kernel (``calibrate.py``), and the end-to-end times
are scaled to the machine speed at which that kernel takes
REFERENCE_CAL_S.  With ``--trace 1`` every process is traced (spans at the
layer boundaries) and the run reports the per-layer metrics only;
end-to-end metrics are only measured untraced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the provenance and every raw per-process sample.  Exit code 2
means the run could not start (for example, no ``src/mfqcka`` next to
this directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Outcome, Workload  # noqa: E402

MIN_PROCESSES = 3
PROCESS_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 120.0  # with the timeout, keeps every run well inside 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "rate_per_bin": "1/bin",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "setup.import_s": "s",
    "model.busy_s": "s",
    "optimizer.busy_s": "s",
    "optimizer.self_s": "s",
    "optimizer.evals": "count",
    "optimizer.infeasible_frac": "frac",
    "keyrate.busy_s": "s",
    "keyrate.self_s": "s",
    "keyrate.evals_per_s": "1/s",
    "decoy.busy_s": "s",
    "decoy.calls": "count",
    "decoy.clamped_frac": "frac",
    "matching.busy_s": "s",
    "matching.calls": "count",
    "matching.cache_hit_frac": "frac",
    "photonstats.busy_s": "s",
    "photonstats.self_s": "s",
    "photonstats.calls": "count",
    "photonstats.weight_cache_misses": "count",
    "montecarlo.busy_s": "s",
    "montecarlo.shard_ns_per_bin": "ns/bin",
    "montecarlo.match_pass_s": "s",
    "montecarlo.compare_s": "s",
    "montecarlo.sift_frac": "frac",
    "trace.overhead_frac": "frac",
}

# Time of the calibration kernel the end-to-end times are scaled to (about
# its median on the 2-vCPU machine the benchmark was built on).
REFERENCE_CAL_S = 0.2


@dataclass
class Sample:
    """One CLI process: what the parent measured and what the check found."""

    seed: int
    traced: bool
    exit_code: int
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    ok: bool
    rate: float
    detail: str
    items_per_s: float = 0.0  # work items / (wall_s - setup_s); provenance only
    cal_s: float = math.nan  # time of the calibration kernel just before the process
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(workload: Workload, seed: int, traced: bool, workdir: Path) -> Sample:
    workdir.mkdir(parents=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(workload.document(seed), indent=2))
    record_path = workdir / "record.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(record_path), "1" if traced else "0",
           str(SRC), "--", *workload.argv(config.name, seed)]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err, env=child_env())
        killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = ended - started
    sample = Sample(seed=seed, traced=traced, exit_code=proc.returncode, wall_s=wall, setup_s=wall,
                    peak_rss_mb=usage.ru_maxrss / 1024.0, ok=False, rate=float("nan"), detail="")
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        sample.detail = f"exit code {proc.returncode}, no record: " + _tail(workdir / "stderr.txt")
        return sample
    if record["setup_end"] is not None:
        sample.setup_s = record["setup_end"] - started
    if proc.returncode != 0:
        sample.detail = f"exit code {proc.returncode}: " + _tail(workdir / "stderr.txt")
        return sample
    try:
        outcome = workload.check(workdir, (workdir / "stdout.txt").read_text())
    except OSError as exc:
        outcome = Outcome(ok=False, rate=float("nan"), detail=f"missing output: {exc}")
    sample.ok, sample.rate, sample.detail = outcome.ok, outcome.rate, outcome.detail
    if sample.setup_s < wall:
        sample.items_per_s = workload.items / (wall - sample.setup_s)
    if traced:
        sample.layers = traced_layers(workload, record, record_path.with_suffix(".npz"), outcome)
    return sample


def traced_layers(workload: Workload, record: dict, spans_path: Path, outcome: Outcome) -> dict[str, float]:
    import numpy as np
    from spans import layer_metrics

    with np.load(spans_path) as data:
        layers = layer_metrics({key: data[key] for key in data.files}, bins=workload.items,
                               span_cost_s=record["span_cost_s"])
    cache = record["count_matrix_cache"]
    lookups = cache["hits"] + cache["misses"]
    layers["matching.cache_hit_frac"] = cache["hits"] / lookups if lookups else 0.0
    layers["photonstats.weight_cache_misses"] = float(record["port_weight_cache"]["misses"])
    layers["setup.import_s"] = record["import_s"]
    layers["montecarlo.sift_frac"] = outcome.extra.get("sift_frac", 0.0)
    return layers


def _tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace").strip().splitlines()[-1][:300]
    except (OSError, IndexError):
        return ""


def warm_up() -> str | None:
    """Compile the package once so no measured process pays for byte-compiling."""
    probe = "import mfqcka.cli, sys; sys.stdout.write(mfqcka.__file__)"
    try:
        done = subprocess.run([sys.executable, "-c", probe], cwd=WORK, env=child_env(),
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "importing mfqcka timed out"
    if done.returncode != 0:
        return "cannot import mfqcka: " + (done.stderr.strip().splitlines() or [""])[-1]
    if SRC.resolve() not in Path(done.stdout).resolve().parents:
        return f"mfqcka resolves to {done.stdout}, not to {SRC}"
    return None


class Calibrator:
    """The ``calibrate.py`` process of a run: one kernel timing per ``measure``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=PROCESS_TIMEOUT_S)


def process_seed(seed: int, index: int) -> int:
    """Seed handed to the run's index-th process: distinct per process, fixed by the run seed."""
    return (seed * 1000 + index) % 2**32


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> list[Sample]:
    samples: list[Sample] = []
    calibrator = Calibrator()
    try:
        begun = time.monotonic()
        while True:
            i = len(samples)
            cal_s = calibrator.measure()
            sample = run_process(workload, process_seed(seed, i), trace, WORK / f"p{i:03d}")
            sample.cal_s = cal_s
            samples.append(sample)
            elapsed = time.monotonic() - begun
            typical = statistics.median(s.wall_s + s.cal_s for s in samples)
            if elapsed + typical > RUN_DEADLINE_S:
                break
            if len(samples) >= MIN_PROCESSES and elapsed + typical > seconds:
                break
    finally:
        calibrator.close()
    return samples


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    """Medians over the processes whose output passed its check.

    Each process's times are scaled by REFERENCE_CAL_S / its ``cal_s``:
    seconds at the reference speed of the machine.
    """
    ok = [s for s in samples if s.ok]
    if not ok:
        return {name: 0.0 for name in END_TO_END_UNITS}
    return {
        "wall_s": statistics.median(s.wall_s * REFERENCE_CAL_S / s.cal_s for s in ok),
        "setup_s": statistics.median(s.setup_s * REFERENCE_CAL_S / s.cal_s for s in ok),
        "rate_per_bin": statistics.median(s.rate for s in ok),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok),
        "ok_frac": len(ok) / len(samples),
    }


def per_layer(samples: list[Sample]) -> dict[str, float]:
    """Medians over the traced processes whose output passed its check."""
    traced = [s for s in samples if s.traced and s.ok]
    if not traced:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    return {name: statistics.median(s.layers[name] for s in traced) for name in PER_LAYER_UNITS}


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args: argparse.Namespace, samples: list[Sample]) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "reference_cal_s": REFERENCE_CAL_S,
        "samples": [asdict(s) for s in samples],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfqcka" / "cli.py").is_file():
        print(f"error: no mfqcka package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    problem = warm_up()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    samples = run(workload, args.seed, args.seconds, bool(args.trace))
    for s in samples:
        if not s.ok:
            print(f"check failed ({'traced' if s.traced else 'plain'}): {s.detail}", file=sys.stderr)

    if args.trace:
        values, units = per_layer(samples), PER_LAYER_UNITS
    else:
        values, units = end_to_end(samples), END_TO_END_UNITS
    failed = sum(not s.ok for s in samples)
    prov = provenance(args, samples)
    (WORK / "result.json").write_text(json.dumps(prov, indent=2))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
