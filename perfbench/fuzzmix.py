"""Workload ``fuzz-lint-compile``: admit, compile and cost generated programs.

Each operation takes one seeded ``repro.fuzz`` program and does the work
of a cold ``/measure`` without HTTP or cache: the admission lint
(``lint_source``), a compile to MCX under ``spire`` with no gate pass, and
the paper's cost model (``PaperCostModel.report``).  The front end, the IR
passes, analysis and the MCX compiler do all the work; the circuit
optimizers and the compiled kernels do none, so a change to the gate layer
should leave this workload unchanged.

Op cost follows source length closely and has a long tail: one program
in a hundred can take dozens of times the median.  So the draw is stratified.
Each generator family (basis states, Hadamards ``h``, heap shapes ``s``,
both ``hs``) has five source-length classes, and a block holds one program
of every (family, class) in seeded order: the generator is walked in
index order and a program whose class is already filled in the block is
skipped.  Programs longer than a family's last class edge, its longest
tenth, are left out.  A run measures whole blocks, so every run has the
same size profile.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Iterator, List, Optional, Tuple

from repro.analysis.lint import lint_source
from repro.compiler.pipeline import compile_source
from repro.config import CompilerConfig
from repro.cost.exact import exact_counts
from repro.cost.model import PaperCostModel
from repro.fuzz.generator import (
    default_fuzz_config,
    fuzz_name,
    program_for_spec,
    spec_for_name,
)

from common import HostSpeed, Layers, Outcome, Timings, fresh_heap
from layers import replay_compile

#: per generator family, the upper source-length edges of its classes:
#: the 20/40/60/80/90th percentiles of 150 programs (generator seed 77)
LENGTH_CLASSES = {
    "": (672, 935, 1439, 1819, 2346),
    "h": (646, 1010, 1333, 1744, 2133),
    "s": (1201, 1565, 1949, 2457, 2936),
    "hs": (1214, 1551, 1895, 2385, 2727),
}

#: (name, source, entry, config)
Program = Tuple[str, str, str, CompilerConfig]


def generated(name: str) -> Program:
    source, entry = program_for_spec(name)
    return name, source, entry, default_fuzz_config(spec_for_name(name)[2])


def blocks(seed: int) -> Iterator[List[Program]]:
    """Endless stratified blocks of programs (see the module docstring)."""
    rng = random.Random(f"fuzz-lint-compile:{seed}")
    index = dict.fromkeys(LENGTH_CLASSES, 0)
    while True:
        block: List[Program] = []
        for flags, edges in LENGTH_CLASSES.items():
            slots: List[Optional[Program]] = [None] * len(edges)
            while None in slots:
                program = generated(fuzz_name(seed, index[flags], flags=flags))
                index[flags] += 1
                k = bisect.bisect_left(edges, len(program[1]))
                if k < len(edges) and slots[k] is None:
                    slots[k] = program
            block.extend(slots)
        rng.shuffle(block)
        yield block


def measure_op(program: Program):
    """One timed operation: admission lint, compile, cost prediction."""
    _name, source, entry, config = program
    report = lint_source(source, entry=entry, config=config)
    compiled = compile_source(source, entry, None, config, "spire")
    PaperCostModel(
        compiled.table, compiled.var_types, compiled.cell_bits
    ).report(compiled.core)
    return report, compiled


def check_op(outcome: Outcome, program: Program, report, compiled) -> None:
    """Generated programs lint clean of errors, and the compiled circuit
    costs exactly what ``cost.exact`` computes from the IR."""
    model = exact_counts(
        compiled.core, compiled.table, compiled.var_types, compiled.cell_bits
    )
    got = (compiled.mcx_complexity(), compiled.t_complexity())
    outcome.record(
        not report.errors and model == got,
        f"{program[0]}: lint errors {len(report.errors)}, "
        f"circuit (MCX, T) {got}, exact model {model}",
    )


def run(seed: int, seconds: float, outcome: Outcome, host: HostSpeed) -> Timings:
    """Whole blocks until ``seconds`` of rescaled time are measured; the
    host-speed probe is taken once per block (an op is too short to carry
    one)."""
    timings = Timings(host)
    host.probe()
    for block in blocks(seed):
        if timings.total() >= seconds:
            break
        fresh_heap()  # each block starts from a collected heap
        latencies = []
        for program in block:
            start = time.perf_counter()
            report, compiled = measure_op(program)
            latencies.append(time.perf_counter() - start)
            check_op(outcome, program, report, compiled)
        timings.add(latencies)
    return timings


def trace_op(
    outcome: Outcome, layers: Layers, program: Program, depth: Optional[int] = None
) -> None:
    """One operation layer by layer: lint, the compile layers, the model."""
    name, source, entry, config = program
    report = layers.time(
        "analysis.lint_s", lint_source, source, entry=entry, size=depth, config=config
    )
    replayed, compiled = replay_compile(
        layers, source, entry, depth, config, None
    )
    model = PaperCostModel(compiled.table, compiled.var_types, compiled.cell_bits)
    layers.time("cost.model_s", model.report, compiled.core)
    got = (replayed.mcx_complexity(), replayed.t_complexity())
    want = (compiled.mcx_complexity(), compiled.t_complexity())
    outcome.record(
        not report.errors and got == want,
        f"{name}: lint errors {len(report.errors)}, replay (MCX, T) {got}, "
        f"compile_source (MCX, T) {want}",
    )


def trace(seed: int, seconds: float, outcome: Outcome, layers: Layers) -> None:
    started = time.perf_counter()
    for block in blocks(seed):
        if time.perf_counter() - started >= seconds:
            break
        for program in block:
            trace_op(outcome, layers, program)
