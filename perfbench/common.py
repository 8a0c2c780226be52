"""Shared pieces of the benchmark: paths, statistics, set-up, machine record.

Nothing here imports ``repro``: ``run.py`` builds the compiled kernels from
the checked-out sources first, and only then imports the package, so the
measuring process loads the freshly built shared object.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups measured per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: iterations of the host-speed probe loop (about 10 ms)
PROBE_LOOPS = 100_000
#: the probe's time on the reference host; every reported time is rescaled
#: to the speed at which the probe takes this long
REFERENCE_PROBE_S = 0.010


def src_env(**extra: str) -> Dict[str, str]:
    """The environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(extra)
    return env


# ------------------------------------------------------------------ numbers
def percentile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0..1) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# ------------------------------------------------------------- host speed
def spin(loops: int) -> float:
    """Seconds for a fixed pure-Python loop of ``loops`` iterations."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process, and every child it starts from now on, to one CPU,
    so that the host-speed probe runs on the CPU the measured work runs on.
    Returns the CPU, or -1 where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return -1
    return cpu


def cpu_busy_seconds() -> float:
    """Seconds the one CPU this process is pinned to has spent running
    anything (user, system, interrupts), from /proc/stat; -1.0 where the
    process is not pinned or the file is unavailable."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) != 1:
        return -1.0
    prefix = f"cpu{min(cpus)} "
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(prefix):
                    ticks = [int(x) for x in line.split()[1:8]]
                    busy = ticks[0] + ticks[1] + ticks[2] + ticks[5] + ticks[6]
                    return busy / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        pass
    return -1.0


class HostSpeed:
    """Host-speed probes taken between measured stretches of work.

    On a shared host the same code can run twice as slow from one minute
    to the next.  ``probe()`` times ``PROBE_LOOPS`` of a fixed loop.  The
    work done just before probe ``i`` is rescaled by ``factor(i)``:
    ``REFERENCE_PROBE_S`` over the median of the three probes before that
    work and the three after it (a single 10 ms probe jitters by a tenth).
    Multiplied by it, the work's wall time becomes the time it would take
    on the reference host.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [spin(PROBE_LOOPS)]

    def probe(self) -> int:
        """Take a probe; returns its index."""
        self.probes.append(spin(PROBE_LOOPS))
        return len(self.probes) - 1

    def factor(self, index: int) -> float:
        return REFERENCE_PROBE_S / median(self.probes[max(0, index - 3):index + 3])


class Timings:
    """Operation latencies and measured time, kept as measured and
    rescaled on demand by the probes around them."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        #: (latencies, their total time, the busy part of it, index of the
        #: probe that ends them)
        self.stretches: List[Tuple[List[float], float, float, int]] = []

    def add(
        self,
        latencies: Sequence[float],
        total: Optional[float] = None,
        busy: Optional[float] = None,
    ) -> None:
        """Latencies measured since the last probe, then a probe.  ``total``
        is the time they took together (their sum, unless they overlapped);
        ``busy`` is the part of it the CPU was running (all of it unless
        given).  Only the busy part is rescaled: waiting on a timer takes
        as long on any host."""
        total = sum(latencies) if total is None else total
        busy = total if busy is None else min(max(busy, 0.0), total)
        self.stretches.append((list(latencies), total, busy, self.host.probe()))

    def _scale(self, total: float, busy: float, index: int, scaled: bool) -> float:
        if not scaled or not total:
            return 1.0
        return 1.0 + (self.host.factor(index) - 1.0) * busy / total

    def latencies(self, scaled: bool = True) -> List[float]:
        return [
            x * self._scale(total, busy, index, scaled)
            for latencies, total, busy, index in self.stretches
            for x in latencies
        ]

    def total(self, scaled: bool = True) -> float:
        return sum(
            total * self._scale(total, busy, index, scaled)
            for _l, total, busy, index in self.stretches
        )

    def metrics(
        self, scaled: bool = True, quantile: Callable = percentile
    ) -> Dict[str, Tuple[float, str]]:
        """Throughput and the median and 90th-percentile latency."""
        latencies = self.latencies(scaled)
        return {
            "ops_per_s": (len(latencies) / self.total(scaled), "1/s"),
            "latency_p50_s": (quantile(latencies, 0.5), "s"),
            "latency_p90_s": (quantile(latencies, 0.9), "s"),
        }


def _libc_trim():
    try:
        return ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None


_MALLOC_TRIM = _libc_trim()


def fresh_heap() -> None:
    """Collect garbage and hand freed memory back to the OS, so that each
    cold operation starts from the same heap whatever ran before it."""
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Layers:
    """Per-layer totals of a traced run: seconds busy and counts of work."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def time(self, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        return result

    def add(self, name: str, amount: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + amount

    def merge(self, other: "Layers") -> None:
        for name, amount in other.totals.items():
            self.add(name, amount)

    def get(self, name: str) -> float:
        return self.totals.get(name, 0.0)


class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def fail_run(self, problem: str) -> None:
        """A check outside any single operation failed."""
        self.problems.append(problem)


# ------------------------------------------------------------------- set-up
def build_kernels() -> Tuple[float, bool]:
    """Compile ``repro._kernels`` from the checked-out C sources.

    Returns (seconds, built).  A failed build is not fatal: the package
    falls back to its pure-Python kernels, and the kernel path recorded
    with every result shows it.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro._kernels.build"],
        cwd=str(ROOT),
        env=src_env(),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
    return time.perf_counter() - start, proc.returncode == 0


def import_probe(modules: Sequence[str]) -> float:
    """Seconds for a fresh interpreter to import ``modules`` and load the
    kernels."""
    code = (
        "".join(f"import {m}\n" for m in modules)
        + "from repro import _kernels\n_kernels.extension_available()\n"
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], cwd=str(ROOT), env=src_env(), check=True
    )
    return time.perf_counter() - start


# ---------------------------------------------------------- machine record
def _steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs (the 8th field of ``cpu`` in
    /proc/stat); -1 where the file is unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right
    now, recorded beside every result so that drift shows."""
    return median([spin(1_000_000) for _ in range(repeats)])


def _first_line(cmd: List[str]) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    lines = proc.stdout.splitlines()
    return lines[0] if lines else "unavailable"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class MachineRecord:
    """What the machine was like during one run."""

    def __init__(self, nproc: int) -> None:
        self.info = {
            "nproc": nproc,
            "python": platform.python_version(),
            "gcc": _first_line(["gcc", "--version"]),
            "cpu": _cpu_model(),
        }
        self._steal_start = _steal_ticks()
        self.info["calib_start_s"] = calibration_seconds()

    def finish(self) -> Dict[str, object]:
        self.info["calib_end_s"] = calibration_seconds()
        end = _steal_ticks()
        self.info["steal_ticks"] = (
            end - self._steal_start if end >= 0 and self._steal_start >= 0 else -1
        )
        return self.info


# ------------------------------------------------------------------- result
def print_result(
    outcome: Outcome, metrics: Dict[str, Tuple[float, str]]
) -> None:
    """The result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
