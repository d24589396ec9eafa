"""Shared plumbing of the layered benchmark.

Statistics, the operation tally behind ``ok_frac``, the closed-loop
pacing rule, readers for the production metric registries, and the
``repro serve`` process the serving workloads drive.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout (listed in the root .gitignore)
WORK_ROOT = ROOT / ".perfbench_work"
#: generated inputs that depend on nothing but fixed seeds, kept across runs
CACHE_DIR = WORK_ROOT / "cache"
#: welfare/spread evaluation seed, fixed and independent of the run seed
EVAL_SEED = 20_201_231
#: every workload runs on one fixed reference graph per tier (the
#: catalog's default seed); the run seed drives sampling, request mixes
#: and delta traces
GRAPH_SEED = 2020


def src_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing \
        else str(SRC) + os.pathsep + existing
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail(values: Sequence[float]) -> tuple:
    """``(value, label)`` of the highest percentile with at least ten
    samples beyond it (p99 or p90), or the maximum for small samples."""
    n = len(values)
    for q in (99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return percentile(values, q), f"p{q:g}"
    return float(max(values)), "max"


def mean(values: Sequence[float]) -> float:
    return float(sum(values)) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# the operation tally (ok_frac) and the closed-loop pacing rule
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed.

    An operation fails when it raised, was answered with an error, or
    failed a correctness check; ``ok_frac`` is the share that did not.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        if not self.attempted:
            return 0.0
        return 1.0 - self.failed / self.attempted


class Pacer:
    """Closed-loop pacing for operations that each take seconds.

    The next operation starts only if it is expected (from the longest
    one so far) to finish within the budget; at least one always runs.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self.started = time.perf_counter()
        self.longest = 0.0
        self.count = 0

    def more(self) -> bool:
        if self.count == 0:
            return True
        elapsed = time.perf_counter() - self.started
        return elapsed + self.longest <= self.seconds

    def done(self, op_seconds: float) -> None:
        self.count += 1
        self.longest = max(self.longest, op_seconds)


def timed(fn: Callable[[], Any]) -> tuple:
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


# ----------------------------------------------------------------------
# production instruments: deltas between two MetricsRegistry summaries
# ----------------------------------------------------------------------
def _labels_match(labels: str, want: Mapping[str, str]) -> bool:
    return all(f'{key}="{value}"' in labels for key, value in want.items())


def hist_delta(before: Mapping[str, Any], after: Mapping[str, Any],
               name: str, **labels: str) -> tuple:
    """``(count, sum)`` a histogram family gained between two summaries,
    over every label set containing ``labels``."""
    count, total = 0, 0.0
    old = before.get("histograms", {}).get(name, {})
    for key, row in after.get("histograms", {}).get(name, {}).items():
        if not _labels_match(key, labels):
            continue
        prior = old.get(key, {})
        count += row.get("count", 0) - prior.get("count", 0)
        total += row.get("sum", 0.0) - prior.get("sum", 0.0)
    return count, total


def counter_delta(before: Mapping[str, Any], after: Mapping[str, Any],
                  name: str, **labels: str) -> float:
    """How much a counter family grew between two summaries."""
    old = before.get("counters", {}).get(name, {})
    return float(sum(
        value - old.get(key, 0.0)
        for key, value in after.get("counters", {}).get(name, {}).items()
        if _labels_match(key, labels)))


def per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


def selection_layers(before, after, ops: int) -> Dict[str, float]:
    """The ``rrsets.select*`` per-layer metrics from the
    ``repro_selection_seconds{phase}`` histograms, per operation."""
    calls, total = hist_delta(before, after, "repro_selection_seconds",
                              phase="total")
    _, loop = hist_delta(before, after, "repro_selection_seconds",
                         phase="select_loop")
    _, init = hist_delta(before, after, "repro_selection_seconds",
                         phase="gains_init")
    return {"rrsets.select_s": per_op(total, ops),
            "rrsets.select_loop_s": per_op(loop, ops),
            "rrsets.gains_init_s": per_op(init, ops),
            "rrsets.select_calls": per_op(calls, ops)}


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
_ENDPOINT = re.compile(r"tcp://([0-9.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process on an ephemeral loopback port."""

    def __init__(self, index_dir: Path, log_path: Path) -> None:
        self.index_dir = Path(index_dir)
        self.log_path = Path(log_path)
        self.proc: Optional[subprocess.Popen] = None
        self.address: Optional[tuple] = None
        self._log = None

    def start(self, timeout_s: float = 60.0) -> tuple:
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--index-dir", str(self.index_dir),
             "--tcp", "127.0.0.1:0", "--log-level", "warning"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self._log, env=src_env(), cwd=str(ROOT))
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            text = self.log_path.read_text(encoding="utf-8",
                                           errors="replace")
            match = _ENDPOINT.search(text)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                return self.address
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"repro serve did not come up: {text[-2000:]}")

    def vm_hwm_mib(self) -> float:
        return vm_hwm_mib(self.proc.pid)

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


class Outcome:
    """What one workload run measured.

    ``e2e`` and ``layers`` map metric names to values; ``notes`` carries
    the human-readable context printed next to a value (sample counts,
    which percentile a tail is); ``header`` carries the per-workload
    record-header fields (graph size, RR-set counts, index bytes).
    """

    def __init__(self) -> None:
        self.tally = Tally()
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.header: Dict[str, Any] = {}


def trace_overhead_pct(traced: Sequence[float],
                       untraced: Sequence[float]) -> float:
    """Median traced operation time against the untraced one, in %."""
    return 100.0 * (median(traced) / median(untraced) - 1.0)


def make_workdir(workload: str) -> Path:
    path = WORK_ROOT / f"{workload}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def dumps(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, default=str)
