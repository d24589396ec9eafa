"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

(The file is deliberately not named ``test_*.py``: the tier-1 suite does
not collect it, since the tiny-mode runs start servers and worker pools.)
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from common import Outcome  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS, result_line  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, cwd=str(cwd),
        timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")


def _outcome_with(allocations, expected):
    from run_cold import allocation_matches

    outcome = Outcome()
    for allocation in allocations:
        outcome.tally.record(allocation_matches(allocation, expected))
    outcome.e2e.update({name: 1.0 for name in END_TO_END
                        if name != "ok_frac"})
    return outcome


def test_wrong_allocation_raises_failed_frac():
    from repro.allocation import Allocation

    expected = {"i": 3, "j": 2}
    right = Allocation({"i": [1, 2, 3], "j": [4, 5]})
    short = Allocation({"i": [1, 2], "j": [4, 5]})
    stray = Allocation({"i": [1, 2, 3], "j": [4, 5], "k": [6]})
    clean = result_line(_outcome_with([right, right], expected), False)
    assert clean["failed"] == 0 and clean["correct"] is True
    assert clean["metrics"]["ok_frac"]["value"] == 1.0
    broken = result_line(_outcome_with([right, short, stray, right],
                                       expected), False)
    assert broken["failed"] == 2 and broken["correct"] is False
    assert broken["metrics"]["ok_frac"]["value"] == 0.5


def test_wrong_served_allocation_fails_the_check():
    from serve import _allocation_ok

    assert _allocation_ok({"i": [1, 2], "j": [3]}, {"i": 2, "j": 1})
    assert not _allocation_ok({"i": [1, 1], "j": [3]}, {"i": 2, "j": 1})
    assert not _allocation_ok({"i": [1, 2]}, {"i": 2, "j": 1})
    assert not _allocation_ok(None, {"i": 2, "j": 1})


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and \
            metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER
    assert 1 <= SPEC["run_seconds"] <= 60
    assert all((ROOT / path).is_dir() for path in SPEC["paths"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("run-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_classifies_against_the_bound():
    old = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.classify(old, old, "lower", 0.1) == "unchanged"
    assert compare.classify(old, [v * 1.2 for v in old], "lower",
                            0.1) == "regressed"
    assert compare.classify(old, [v * 0.9 for v in old], "lower",
                            0.1) == "improved"
    assert compare.classify(old, [v * 0.9 for v in old], "higher",
                            0.1) == "unchanged"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.classify(noisy, [v * 1.05 for v in noisy], "lower",
                            0.1) == "unresolved"
    assert compare.classify(old, [v * 2 for v in noisy], "lower",
                            0.1) == "regressed"
