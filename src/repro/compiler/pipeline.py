"""End-to-end compilation driver (the Spire/Tower compiler of Section 7).

``compile_source`` runs the full pipeline::

    source --parse/lower/inline--> core IR
           --[IR passes: Spire flattening/narrowing]-->
           --register allocation + abstract circuit (alloc)-->
           --gate lowering (lower)--> MCX-level Circuit
           --[optional gate passes: circuit optimizers]--> Clifford+T

This module is a thin driver over :mod:`repro.passes`: the
``optimization`` argument accepts an optimization level from
:data:`repro.passes.PRESETS` (``none|spire|flatten|narrow``),
preset+optimizer forms (``spire+peephole``), or any raw pipeline spec
(``flatten,narrow,alloc,lower,peephole(window=32)``) — see
:func:`repro.passes.resolve_pipeline`.  The presets reproduce the recorded
seed T-counts bit-identically (``tests/data/seed_tcounts.json``).

The result bundles the circuit with everything needed by the evaluation
harness: the (optimized) core IR for the cost model, the register map for
simulation, complexity counts, and the compile time — one record per
executed pass plus the type-check seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.circuit import Circuit, Register
from ..config import CompilerConfig
from ..errors import LoweringError
from ..ir.core import MemSwap, Stmt
from ..lang.ast import Program
from ..lang.desugar import lower_entry
from ..lang.parser import parse_program
from ..types import Type, TypeTable


@dataclass
class CompiledProgram:
    """The output of the compilation pipeline."""

    circuit: Circuit
    core: Stmt
    table: TypeTable
    config: CompilerConfig
    cell_bits: int
    param_types: Dict[str, Type]
    return_var: Optional[str]
    var_types: Dict[str, Type] = field(default_factory=dict)
    #: strict plus relaxed type-check time; every other compile second is
    #: in ``pass_records``
    typecheck_seconds: float = 0.0
    #: the optimization string as requested (preset or raw spec)
    optimization: str = "none"
    #: the canonical pipeline spec the circuit was produced by
    pipeline: str = ""
    #: per-pass execution records (:class:`repro.passes.PassRecord`)
    pass_records: List[Any] = field(default_factory=list)
    #: (canonical prefix spec, circuit) snapshots, when requested
    snapshots: List[Tuple[str, Circuit]] = field(default_factory=list)
    #: the analyze stage's static cost bound
    #: (:class:`repro.analysis.passes.StaticCostBound`), when the
    #: pipeline included an ``analyze`` pass
    analysis: Any = None

    # ----------------------------------------------------------- convenience
    def mcx_complexity(self) -> int:
        """Gate count on the idealized architecture (Section 5)."""
        return self.circuit.mcx_complexity()

    def t_complexity(self) -> int:
        """T gates under the Clifford+T decomposition (Section 5)."""
        return self.circuit.t_complexity()

    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def register(self, name: str) -> Register:
        return self.circuit.registers[name]

    def memory_image(self, cells: Dict[int, int]) -> Dict[str, int]:
        """Named register values encoding a heap image {address: value}."""
        return {f"mem[{addr}]": value for addr, value in cells.items()}


def infer_cell_bits(
    stmt: Stmt, table: TypeTable, var_types: Dict[str, Type]
) -> int:
    """Width of a heap cell: the widest type ever swapped into memory."""
    widest = 0
    for node in stmt.walk():
        if isinstance(node, MemSwap):
            ty = var_types.get(node.value)
            if ty is None:
                raise LoweringError(
                    f"no type for memory-swapped variable {node.value!r}"
                )
            widest = max(widest, table.width(ty))
    return widest


def compile_core(
    stmt: Stmt,
    table: TypeTable,
    param_types: Dict[str, Type],
    optimization: str = "none",
    return_var: Optional[str] = None,
    typecheck: bool = True,
    verify: bool = False,
    keep_snapshots: bool = False,
    decomposition_cache=None,
) -> CompiledProgram:
    """Compile a core IR statement (inputs given by ``param_types``).

    ``optimization`` may be a preset, a ``preset+gatepass`` form, or a raw
    pipeline spec.  ``verify`` enables between-pass invariant checking
    (``--verify-passes``); ``keep_snapshots`` retains the circuit at every
    replayable pipeline prefix for the artifact cache.
    """
    # function-level import: repro.compiler must be importable before
    # repro.passes has finished initializing (the pass framework's lowering
    # passes import back into this package)
    from ..passes.manager import PassManager
    from ..passes.pipeline import resolve_pipeline

    pipeline = resolve_pipeline(optimization)
    manager = PassManager(
        pipeline,
        verify=verify,
        keep_snapshots=keep_snapshots,
        decomposition_cache=decomposition_cache,
    )
    run = manager.run(stmt, table, param_types, typecheck=typecheck)

    return CompiledProgram(
        circuit=run.circuit,
        core=run.stmt,
        table=table,
        config=table.config,
        cell_bits=run.cell_bits,
        param_types=dict(param_types),
        return_var=return_var,
        var_types=run.var_types,
        typecheck_seconds=run.typecheck_seconds,
        optimization=optimization,
        pipeline=pipeline.spec(),
        pass_records=run.records,
        snapshots=run.snapshots,
        analysis=run.analysis,
    )


def compile_program(
    program: Program,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
    optimization: str = "none",
    **kwargs,
) -> CompiledProgram:
    """Compile one entry point of a parsed program."""
    lowered = lower_entry(program, entry, size, config)
    return compile_core(
        lowered.stmt,
        lowered.table,
        lowered.param_types,
        optimization=optimization,
        return_var=lowered.return_var,
        **kwargs,
    )


def compile_source(
    source: str,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
    optimization: str = "none",
    **kwargs,
) -> CompiledProgram:
    """Parse and compile a Tower source program in one step."""
    return compile_program(
        parse_program(source), entry, size, config, optimization, **kwargs
    )
