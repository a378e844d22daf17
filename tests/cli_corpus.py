"""Write the output of a fixed list of seeded CLI commands, for byte-for-byte comparison.

Usage: ``PYTHONPATH=src python tests/cli_corpus.py OUTDIR``

Each command runs as ``python -m mfqcka.cli`` under the caller's
``PYTHONPATH``, in its own directory ``OUTDIR/<name>``, which receives the
command's ``stdout``, ``stderr``, ``exit_code`` and any file it wrote.
The configuration documents go to ``OUTDIR/docs``.  Every path a command
sees is relative, so two corpora from two versions of the package
compare with ``diff -r``.  Each command's progress line, on this
script's own stdout and outside ``OUTDIR``, gives its exit code and the
peak resident memory of its process (its ``ru_maxrss``).  The commands
include every benchmark workload (``perfbench/workloads.py``) with the
documents and arguments its processes get at run seed 1 (process seeds
1001 and 1002).  Pytest does not collect this file.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

from conftest import EC_EFFICIENCY, make_bundle, make_channel, make_geometric_config, make_many_users_bundle
from mfqcka.model import SecurityParams, validate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

OPTIMIZER = {"restarts": 2, "max_evals": 300, "seed": 5}
ASYMPTOTIC = {"decoy": ["--objective", "asymptotic"], "exact": ["--objective", "asymptotic", "--mode", "exact"]}
# Each command runs under this address-space limit, so a document that would
# need gigabytes fails in its own process and leaves the machine alone.
MEMORY_LIMIT = 3_000_000 * 1024
# The paper's distances, then the regime where dark counts dominate and the
# marginal errors approach 1/2.
PLAIN_SCAN = ["--from", "0", "--to", "330", "--step", "2"]
DARK_SCAN = ["--from", "0", "--to", "3000", "--step", "5"]
# The benchmark's process seeds: 1000 * run seed + process index.
BENCHMARK_SEEDS = (1001, 1002)


def documents() -> dict[str, dict]:
    """The configuration documents by name: the standard 3-5 user sets and geometric ladders."""
    docs = {f"n{n}": make_bundle(num_users=n, data_size=1e14).to_dict() for n in (3, 4, 5)}
    sec = SecurityParams(data_size=1e14, ec_efficiency=EC_EFFICIENCY)
    for n in (6, 8, 12, 20):
        docs[f"geo{n}"] = validate(make_geometric_config(n), make_channel(50.0), sec).to_dict()
    # valid documents too large to simulate: large click tables, and many users
    for n, m_slices in ((130, 32766), (3000, 16)):
        docs[f"many{n}-m{m_slices}"] = make_many_users_bundle(n, m_slices).to_dict()
    # valid documents at the edge of the numbers: a data size whose counts would
    # overflow, send probabilities that overflow the decoy rule, and a decoy
    # intensity small enough to break its bound
    for name, section, key, value in (
        ("overflowing-data-size", "security", "data_size", 1e308),
        ("vanishing-vacuum", "source", "send_probabilities", [0.6, 0.3, 0.1, 1e-80]),
        ("vanishing-decoy", "source", "send_probabilities", [0.6, 0.3, 1e-80, 0.1]),
    ):
        docs[name] = make_bundle(data_size=1e14).to_dict()
        docs[name][section][key] = value
    # a signal whose photon-number terms reach past 60 photons
    docs["large-signal"] = make_bundle(data_size=1e14, signal=5.0).to_dict()
    docs["tiny-decoy"] = make_bundle(
        data_size=1e14, signal=1.0, decoys=(1e-4, 1e-300, 0.0), probs=(0.99, 0.001, 0.001, 0.008)
    ).to_dict()
    # raised dark counts at 345 km: the decoy phase error falls below the exact one
    docs["n5-inverted"] = make_bundle(
        num_users=5,
        distance_km=345.0,
        data_size=1e14,
        dark_count_rate=1e-6,
        signal=0.05639308926294897,
        decoys=(0.010503871008998255, 0.0017141080555584127, 0.00023310553293294192, 0.0001, 0.0),
        probs=(
            0.056623796934883786, 0.2495281479793791, 0.176733444770661,
            0.033162672466919445, 0.351906255555783, 0.13204568229237368,
        ),
    ).to_dict()
    # the largest slice count: thousands of slices without a bin to match
    docs["n3-m32766"] = make_bundle(data_size=1e14, phase_slices=32766).to_dict()
    # no dark counts: the signal of a plain scan dies out with distance
    docs["n4-no-dark-counts"] = make_bundle(num_users=4, data_size=1e14).to_dict()
    docs["n4-no-dark-counts"]["channel"]["dark_count_rate"] = 0.0
    # values that a validation error must not echo in full
    docs["long-string"] = make_bundle(data_size=1e14).to_dict()
    docs["long-string"]["channel"]["dark_count_rate"] = "9" * 100_000
    for doc in docs.values():
        doc["optimizer"] = OPTIMIZER
    docs["long-bounds"] = make_bundle(data_size=1e14).to_dict()
    docs["long-bounds"]["optimizer"] = dict(OPTIMIZER, intensity_bounds=[0.1] * 100_000)
    for name, workload in WORKLOADS.items():
        for seed in BENCHMARK_SEEDS:
            docs[f"bench-{name}-{seed}"] = workload.document(seed)
    return docs


# Configuration files that are not JSON documents the parser can return.
BAD_FILES = {"not-utf8": b'{"channel": "\xe9"}', "deep-nesting": b"[" * 200000}


def commands() -> dict[str, list[str]]:
    """Every command by name, with paths relative to its own directory."""
    cmds: dict[str, list[str]] = {}
    edge = ("overflowing-data-size", "vanishing-vacuum", "vanishing-decoy", "tiny-decoy")
    rated = {"n3": "100", "n4": "100", "n5": "100", **{doc: "200" for doc in edge}}
    for doc, distance in rated.items():
        args = ["rate", f"../docs/{doc}.json", "--distance", distance]
        cmds[f"rate-{doc}-finite"] = [*args, "--out", "rate.csv"]
        for mode, flags in ASYMPTOTIC.items():
            cmds[f"rate-{doc}-{mode}"] = [*args, *flags, "--out", "rate.csv"]
    for mode, flags in ASYMPTOTIC.items():
        cmds[f"rate-n5-inverted-{mode}"] = ["rate", "../docs/n5-inverted.json", *flags]
    for doc, distance in (("geo20", "200"), ("large-signal", "50")):
        cmds[f"rate-{doc}-exact"] = ["rate", f"../docs/{doc}.json", "--distance", distance, *ASYMPTOTIC["exact"]]
    for name in (*BAD_FILES, "long-string", "long-bounds"):
        cmds[f"rate-{name}"] = ["rate", f"../docs/{name}.json"]
    scans = {"n3-finite": ("n3", [])}
    scans.update({f"n{n}-{mode}": (f"n{n}", flags) for n in (3, 4, 5) for mode, flags in ASYMPTOTIC.items()})
    scans.update({f"geo{n}-exact": (f"geo{n}", ASYMPTOTIC["exact"]) for n in (6, 8, 12)})
    for name, (doc, flags) in scans.items():
        for grid, span in (("plain", PLAIN_SCAN), ("dark", DARK_SCAN)):
            cmds[f"scan-{grid}-{name}"] = ["scan", f"../docs/{doc}.json", *span, *flags, "--out", "scan.csv"]
    cmds["scan-optimize-n3-finite"] = [
        "scan", "../docs/n3.json", "--from", "50", "--to", "250", "--step", "100", "--optimize", "--out", "scan.csv",
    ]
    cmds["optimize-n5-decoy"] = [
        "optimize", "../docs/n5.json", "--distance", "280", *ASYMPTOTIC["decoy"], "--save-config", "tuned.json",
    ]
    cmds["optimize-n4-exact"] = [
        "optimize", "../docs/n4.json", "--distance", "100", *ASYMPTOTIC["exact"], "--save-config", "tuned.json",
    ]
    for doc, bins in (("n3", "200000"), ("geo8", "100000"), ("many130-m32766", "3000"), ("many3000-m16", "3000")):
        cmds[f"simulate-{doc}"] = ["simulate", f"../docs/{doc}.json", "--bins", bins, "--seed", "3", "--out", "run.json"]
    # several shards, the last one partial, with every sifted coincidence dumped
    for doc, bins in (("n3", "2500001"), ("geo8", "1100001"), ("n3-m32766", "2500001")):
        cmds[f"simulate-{doc}-shards"] = [
            "simulate", f"../docs/{doc}.json", "--bins", bins, "--seed", "4", "--out", "run.json",
            "--dump-coincidences", "coincidences.csv",
        ]
    # dark counts high enough for wrong announcements and conference errors,
    # so that the bit layer reaches the counts and the dump
    for doc in ("n3", "n5", "geo8"):
        cmds[f"simulate-{doc}-dark"] = [
            "simulate", f"../docs/{doc}.json", "--dark-counts", "1e-3", "--bins", "3000000", "--seed", "4",
            "--out", "run.json", "--dump-coincidences", "coincidences.csv",
        ]
    # no coincidence at all: the dump is its header line
    cmds["simulate-n3-one-bin"] = [
        "simulate", "../docs/n3.json", "--bins", "1", "--seed", "4", "--out", "run.json",
        "--dump-coincidences", "coincidences.csv",
    ]
    # one bin past simulate's bound: rejected before any shard runs
    cmds["simulate-n3-too-many-bins"] = ["simulate", "../docs/n3.json", "--bins", "1000000000001"]
    cmds["scan-n4-exact-until-no-signal"] = [
        "scan", "../docs/n4-no-dark-counts.json", *ASYMPTOTIC["exact"],
        "--from", "0", "--to", "3000", "--step", "100", "--out", "scan.csv",
    ]
    for name, workload in WORKLOADS.items():
        for seed in BENCHMARK_SEEDS:
            cmds[f"bench-{name}-{seed}"] = workload.argv(f"../docs/bench-{name}-{seed}.json", seed)
    return cmds


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0])
    (out / "docs").mkdir(parents=True, exist_ok=True)
    for name, doc in documents().items():
        (out / "docs" / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, content in BAD_FILES.items():
        (out / "docs" / f"{name}.json").write_bytes(content)
    # the commands run in their own directories, so a relative PYTHONPATH is resolved here
    path = os.pathsep.join(str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)
    env = {**os.environ, "PYTHONPATH": path}
    for name, args in commands().items():
        workdir = out / name
        workdir.mkdir(exist_ok=True)
        with open(workdir / "stdout", "wb") as stdout, open(workdir / "stderr", "wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-m", "mfqcka.cli", *args], cwd=workdir, env=env, stdout=stdout, stderr=stderr,
                preexec_fn=_limit_memory,
            )
            # reaped here rather than by Popen, for the child's own resource usage;
            # setting returncode tells Popen that it has exited
            _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        (workdir / "exit_code").write_text(f"{child.returncode}\n")
        print(f"{name}: exit {child.returncode}, peak RSS {usage.ru_maxrss / 1024:.0f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
