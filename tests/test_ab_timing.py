"""The in-process A/B timer (``ab_timing.py``), run on one tree against itself."""

import json
import math
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_a_tree_against_itself_is_identical_with_finite_ratios():
    command = [sys.executable, str(TESTS / "ab_timing.py"), str(SRC), str(SRC)]
    done = subprocess.run(
        command + ["--processes", "1", "--rounds", "2", "--calls", "1"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["processes"] == 1
    assert len(report["cases"]) == 9
    for label, case in report["cases"].items():
        assert case["identical"] is True and case["max_rel_diff"] == 0.0, label
        assert len(case["ratios"]) == 1 and all(math.isfinite(x) and x > 0.0 for x in case["ratios"]), label
        assert case["range"] == [case["median"]] * 2 and case["change_faster_in"] in (0, 1), label
