"""Layer-by-layer replay of one compile, timed from outside each layer.

``compile_layers`` performs the steps ``compile_source(..., "spire")``
performs, one public call per layer (parse, desugar, strict typecheck,
the Spire rewrite, relaxed typecheck, register allocation and abstract
lowering, MCX gate expansion), and ``gate_layers`` splits one gate pass
into its Clifford+T expansion and the optimizer proper.  The traced runs
check that the replay reaches the same T-count as ``compile_source``
and report how much of its wall time the layers explain.

Run as a script, this module is the ``REPRO_NO_EXT=1`` side of the
``.noext`` rows: it reads gate-pass jobs as JSON on standard input,
rebuilds each MCX circuit untimed, runs ``gate_layers`` on the pure-Python
kernels and writes the optimizer's time and T-count,
``[[seconds, t_count], ...]``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.circopt.base import get_optimizer
from repro.circuit.circuit import Circuit
from repro.circuit.decompose import DecompositionCache
from repro.compiler.lower_gates import expand_program
from repro.compiler.lower_ir import lower_to_abstract
from repro.compiler.pipeline import compile_source, infer_cell_bits
from repro.config import CompilerConfig
from repro.ir.typecheck import check_program, infer_types
from repro.lang.desugar import lower_entry
from repro.lang.parser import parse_program
from repro.opt.spire import spire_optimize

from common import Layers, src_env, HERE, ROOT


def _alloc(stmt, table, param_types, config: CompilerConfig):
    """The ``alloc`` pass: type inference, cell width, abstract lowering."""
    var_types = infer_types(stmt, table, param_types)
    cell_bits = (
        config.cell_bits
        if config.cell_bits is not None
        else infer_cell_bits(stmt, table, var_types)
    )
    mem_qubits = config.heap_cells * cell_bits if cell_bits else 0
    abstract = lower_to_abstract(
        stmt,
        table,
        var_types,
        param_order=list(param_types),
        base_offset=mem_qubits,
    )
    return abstract, cell_bits


def compile_layers(
    layers: Layers,
    source: str,
    entry: str,
    depth: Optional[int],
    config: CompilerConfig,
) -> Circuit:
    """The spire-stage MCX circuit, built one timed layer at a time."""
    program = layers.time("lang.parse_s", parse_program, source)
    lowered = layers.time(
        "lang.desugar_s", lower_entry, program, entry, depth, config
    )
    layers.add("lang.core_nodes", sum(1 for _ in lowered.stmt.walk()))
    table, params = lowered.table, lowered.param_types
    layers.time("ir.typecheck_s", check_program, lowered.stmt, table, params)
    stmt = layers.time("opt.spire_s", spire_optimize, lowered.stmt)
    layers.time(
        "ir.typecheck_s", check_program, stmt, table, params, relaxed=True
    )
    abstract, cell_bits = layers.time(
        "compiler.alloc_s", _alloc, stmt, table, params, table.config
    )
    circuit, _scratch = layers.time(
        "compiler.lower_gates_s",
        expand_program,
        abstract,
        table.config,
        cell_bits,
    )
    layers.add("compiler.mcx_gates", len(circuit.gates))
    return circuit


def gate_metric(gate_pass: str) -> str:
    return "circopt." + gate_pass.replace("-", "_") + "_s"


def gate_layers(layers: Layers, circuit: Circuit, gate_pass: str) -> Circuit:
    """One gate pass, with its Clifford+T expansion timed on its own."""
    cache = DecompositionCache()
    expanded = layers.time("circuit.clifford_t_s", cache.clifford_t, circuit)
    layers.add("circuit.clifford_t_gates", len(expanded.gates))
    optimizer = get_optimizer(gate_pass)
    optimizer.cache = cache  # the optimizer reuses the expansion above
    result = layers.time(gate_metric(gate_pass), optimizer.run, circuit)
    layers.add("circopt.t_in", expanded.t_count())
    layers.add("circopt.t_out", result.t_count())
    return result


def replay_compile(
    layers: Layers,
    source: str,
    entry: str,
    depth: Optional[int],
    config: CompilerConfig,
    gate_pass: Optional[str],
) -> Tuple[Circuit, Any]:
    """Replay one compile layer by layer and again through
    ``compile_source``; returns the replayed circuit and the
    ``compile_source`` result.

    The layer times and the ``compile_source`` wall time of the same op
    accumulate into ``trace.layers_s`` and ``trace.compile_source_s``,
    whose ratio is ``trace.explained_ratio``.
    """
    op = Layers()
    circuit = compile_layers(op, source, entry, depth, config)
    if gate_pass is not None:
        circuit = gate_layers(op, circuit, gate_pass)
    layers.merge(op)
    layers.add(
        "trace.layers_s", sum(v for k, v in op.totals.items() if k.endswith("_s"))
    )
    optimization = f"spire+{gate_pass}" if gate_pass else "spire"
    start = time.perf_counter()
    whole = compile_source(source, entry, depth, config, optimization)
    layers.add("trace.compile_source_s", time.perf_counter() - start)
    layers.add("trace.ops", 1)
    return circuit, whole


def noext_gate_times(jobs: List[Dict[str, Any]]) -> List[Tuple[float, int]]:
    """Time the gate passes of ``jobs`` on the pure-Python kernels, in a
    ``REPRO_NO_EXT=1`` child process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "layers.py")],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        cwd=str(ROOT),
        env=src_env(REPRO_NO_EXT="1"),
        check=True,
    )
    return [tuple(pair) for pair in json.loads(proc.stdout)]


def _noext_main() -> int:
    from repro import _kernels

    if _kernels.extension_available():
        print("REPRO_NO_EXT=1 did not disable the kernels", file=sys.stderr)
        return 1
    out = []
    for job in json.load(sys.stdin):
        config = CompilerConfig(**job["config"])
        circuit = compile_source(
            job["source"], job["entry"], job["depth"], config, "spire"
        ).circuit
        layers = Layers()
        result = gate_layers(layers, circuit, job["pass"])
        out.append([layers.get(gate_metric(job["pass"])), result.t_count()])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(_noext_main())
