"""Workload ``table1-cold``: cold Table-1 compiles to an optimized circuit.

Each operation compiles one Table-1 program from source at one depth
through ``compile_source(..., "spire+<pass>")`` with no artifact cache:
parse, desugar, typecheck, the Spire rewrite, allocation, MCX lowering,
Clifford+T expansion and one gate pass.  This is where the compiler's
time goes, so the circuit layers dominate here.

The draw is stratified so that every run measures the same mix of sizes.
All points are sorted by estimated cost and cut into ``STRATA`` strata; one
block holds one seeded draw from every stratum, in seeded order, and a run
measures whole blocks until ``seconds`` of rescaled time (see
``common.HostSpeed``) and at least ``MIN_OPS`` ops.  Every block has the
same size profile, so the median and the 90th percentile fall at the same
place in it whatever the seed.  ``STRATA`` is odd so that the median lands
inside a stratum rather than between two.  Within a stratum, the
``BLOCKS_PER_RUN`` blocks of a minimal run draw from its successive
slices, cheapest first, so that every run covers each stratum's whole
cost range.  Simulated from one timing of every point over 100 seeds, the
seed alone moved ``ops_per_s`` by 0.06 of its median (IQR) with random
picks, and by 0.04 with slices.

The heap is collected and trimmed before every op.  Resident memory
still grows by a few MB per large compile, so after the measured ops the
costliest point is compiled (and checked) once more, untimed:
``peak_rss_mb`` then reads the largest compile on top of the heap a run
leaves behind, whatever the draw.
"""

from __future__ import annotations

import json
import random
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.benchsuite.programs import ENTRIES, SOURCES, TREE_BENCHMARKS, UNSIZED
from repro.compiler.pipeline import compile_source
from repro.config import CompilerConfig
from repro.cost.exact import exact_counts

from common import HERE, ROOT, HostSpeed, Layers, Outcome, Timings, fresh_heap
from layers import gate_metric, noext_gate_times, replay_compile

#: the configuration of ``tests/data/seed_tcounts.json``
CONFIG_FIELDS = {"word_width": 3, "addr_width": 3, "heap_cells": 6}
CONFIG = CompilerConfig(**CONFIG_FIELDS)
#: the Table-1 programs (taken before anything registers inline sources)
NAMES = tuple(SOURCES)
PASSES = ("peephole", "rotation-merge")
STRATA = 21
#: rotation-merge spends about 2.3x as long per spire-stage T gate as
#: peephole; the strata sort points by T-count times this weight
PASS_WEIGHT = {"peephole": 1.0, "rotation-merge": 2.3}
#: a run measures at least this many ops, so the 90th percentile has ten
#: samples above it
MIN_OPS = 100
BLOCKS_PER_RUN = -(-MIN_OPS // STRATA)
EXPECTED = HERE / "table1_expected.json"
SEED_TCOUNTS = ROOT / "tests" / "data" / "seed_tcounts.json"

Point = Tuple[str, Optional[int], str]


def depths(name: str) -> List[Optional[int]]:
    if name in UNSIZED:
        return [None]
    if name in TREE_BENCHMARKS:
        return list(range(2, 6))
    return list(range(2, 11))


def all_points() -> List[Point]:
    return [
        (name, depth, gate_pass)
        for name in NAMES
        for depth in depths(name)
        for gate_pass in PASSES
    ]


def program(name: str) -> Tuple[str, str]:
    return SOURCES[name], ENTRIES[name]


def point_key(name: str, depth: Optional[int], gate_pass: str) -> str:
    return f"{name}|{depth}|{gate_pass}"


def load_expected(outcome: Outcome) -> Dict[str, Dict[str, int]]:
    """The expected-output file, cross-checked against the frozen seed
    T-counts wherever the two overlap.  These are checks of the data, not
    of an operation, so a failure fails the run without counting an op."""
    data = json.loads(EXPECTED.read_text())
    if data["config"] != CONFIG_FIELDS:
        outcome.fail_run(f"{EXPECTED.name} was made under {data['config']}")
    seed = json.loads(SEED_TCOUNTS.read_text())
    if seed["config"] != CONFIG_FIELDS:
        outcome.fail_run(f"seed T-counts use config {seed['config']}")
    overlap = 0
    for key, row in data["points"].items():
        if "none_gate_t" not in row:
            continue
        want = seed["counts"].get(key)
        if want is not None:
            overlap += 1
            if want != row["none_gate_t"]:
                outcome.fail_run(
                    f"{key}: expected file says {row['none_gate_t']}, "
                    f"seed T-counts say {want}"
                )
    if overlap == 0:
        outcome.fail_run("no overlap between expected file and seed T-counts")
    missing = [
        point_key(*p) for p in all_points() if point_key(*p) not in data["points"]
    ]
    if missing:
        outcome.fail_run(f"expected file lacks {missing[:3]}")
    return data["points"]


def by_cost(expected: Dict[str, Dict[str, int]]) -> List[Point]:
    """All points, cheapest first."""
    return sorted(
        all_points(),
        key=lambda p: (
            expected[point_key(*p)]["t"] * PASS_WEIGHT[p[2]],
            point_key(*p),
        ),
    )


def blocks(seed: int, expected: Dict[str, Dict[str, int]]) -> Iterator[List[Point]]:
    """Endless stratified blocks of draws (see the module docstring)."""
    rng = random.Random(f"table1-cold:{seed}")
    points = by_cost(expected)
    strata = [
        points[j * len(points) // STRATA:(j + 1) * len(points) // STRATA]
        for j in range(STRATA)
    ]
    index = 0
    while True:
        part, parts = index % BLOCKS_PER_RUN, BLOCKS_PER_RUN
        block = [
            rng.choice(s[part * len(s) // parts:(part + 1) * len(s) // parts])
            for s in strata
        ]
        rng.shuffle(block)
        yield block
        index += 1


def compile_point(point: Point):
    name, depth, gate_pass = point
    source, entry = program(name)
    return compile_source(source, entry, depth, CONFIG, f"spire+{gate_pass}")


def _mismatch(point: Point, compiled, expected: Dict[str, int]) -> str:
    """Why the compile's outputs differ from the expected file ('' if not)."""
    spire = exact_counts(
        compiled.core, compiled.table, compiled.var_types, compiled.cell_bits
    )
    got = {"mcx": spire[0], "t": spire[1], "gate_t": compiled.circuit.t_count()}
    want = {k: expected[k] for k in got}
    return "" if got == want else f"{point_key(*point)}: got {got}, want {want}"


def run(seed: int, seconds: float, outcome: Outcome, host: HostSpeed) -> Timings:
    expected = load_expected(outcome)
    timings = Timings(host)
    host.probe()
    for block in blocks(seed, expected):
        if timings.total() >= seconds and len(timings.stretches) >= MIN_OPS:
            break
        for point in block:
            fresh_heap()
            start = time.perf_counter()
            compiled = compile_point(point)
            timings.add([time.perf_counter() - start])
            problem = _mismatch(point, compiled, expected[point_key(*point)])
            outcome.record(not problem, problem)
            del compiled
    largest = by_cost(expected)[-1]
    fresh_heap()
    problem = _mismatch(largest, compile_point(largest), expected[point_key(*largest)])
    outcome.record(not problem, problem)  # checked like the timed ops
    return timings


def trace(seed: int, seconds: float, outcome: Outcome, layers: Layers) -> None:
    """Replay the same draws layer by layer, then time the gate passes of
    the replayed ops again on the pure-Python kernels."""
    expected = load_expected(outcome)
    jobs = []
    budget = seconds / 3  # the REPRO_NO_EXT=1 replay takes about twice as long
    started = time.perf_counter()
    for block in blocks(seed, expected):
        if time.perf_counter() - started >= budget:
            break
        for point in block:
            name, depth, gate_pass = point
            source, entry = program(name)
            replayed, whole = replay_compile(
                layers, source, entry, depth, CONFIG, gate_pass
            )
            replayed_t, whole_t = replayed.t_count(), whole.circuit.t_count()
            want = expected[point_key(*point)]["gate_t"]
            jobs.append(
                {
                    "source": source,
                    "entry": entry,
                    "depth": depth,
                    "config": CONFIG_FIELDS,
                    "pass": gate_pass,
                    "want": want,
                    "problem": ""
                    if replayed_t == whole_t == want
                    else f"{point_key(*point)}: replay T {replayed_t}, "
                    f"compile_source T {whole_t}, expected {want}",
                }
            )
    noext_layers(outcome, layers, jobs)


def noext_layers(outcome: Outcome, layers: Layers, jobs: List[dict]) -> None:
    """The ``.noext`` twins: the same gate passes on the Python kernels.
    Each replayed op is then recorded once, with both of its checks."""
    for job, (secs, t_count) in zip(jobs, noext_gate_times(jobs)):
        layers.add(gate_metric(job["pass"])[:-2] + ".noext_s", secs)
        problem = job["problem"]
        if not problem and t_count != job["want"]:
            problem = (
                f"REPRO_NO_EXT=1 {job['pass']} gave T {t_count}, "
                f"the compiled path {job['want']}"
            )
        outcome.record(not problem, problem)
