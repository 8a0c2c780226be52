"""Circuit-optimizer framework: interface, commutation rules, registry.

The evaluation of Section 8.3 compares eight existing circuit optimizers.
This package implements one optimizer per *strategy* the paper identifies,
named by strategy with the paper's tools noted:

========================  =====================================================
name                      models (paper Section 8.3/8.5)
========================  =====================================================
``peephole``              Qiskit ``transpile(optimization_level=3)``, Pytket
                          FullPeepholeOptimise — adjacent-gate rewrites on the
                          decomposed Clifford+T circuit
``toffoli-cancel``        Feynman ``-mctExpand`` — cancel Toffoli gates
                          *before* translating to Clifford+T
``rotation-merge``        Feynman ``-toCliffordT``, VOQC, Pytket ZX — Nam-style
                          rotation merging over the decomposed circuit
``zx-like``               QuiZX ``full_simp`` — long-range structure discovery
                          at higher compile cost (Toffoli cancel + rotation
                          merge + peephole)
``greedy-search``         Quartz / QUESO — rotation-merge preprocessing
                          followed by a budgeted search phase
========================  =====================================================

Every optimizer consumes an **MCX-level** circuit (the Tower compiler's
output) and produces a **Clifford+T** circuit; ``t_count`` of the result is
the metric the evaluation reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache, clifford_t_stream, to_toffoli
from ..circuit.gates import Gate, GateKind, PHASE_KINDS
from ..circuit.gatestream import GateStream


def gates_commute(a: Gate, b: Gate) -> bool:
    """A sound (not complete) commutation check used when scanning.

    * gates on disjoint qubits commute;
    * two X-type gates (MCX) commute iff neither target lies in the other's
      controls (their diagonal control parts and X parts then act on
      different axes of different wires);
    * an uncontrolled phase gate commutes with an MCX iff it does not act on
      the MCX's target (phases are diagonal, controls are diagonal);
    * phase gates always commute with each other;
    * Hadamards commute only with gates on disjoint qubits.

    All qubit-set tests run on the gates' cached bitmasks.
    """
    if not a.qubit_mask & b.qubit_mask:
        return True
    if a.kind is GateKind.MCX and b.kind is GateKind.MCX:
        return not (a.target_mask & b.control_mask) and not (
            b.target_mask & a.control_mask
        )
    if a.kind in PHASE_KINDS and b.kind in PHASE_KINDS:
        return True
    if a.kind in PHASE_KINDS and not a.controls and b.kind is GateKind.MCX:
        return a.target != b.target
    if b.kind in PHASE_KINDS and not b.controls and a.kind is GateKind.MCX:
        return b.target != a.target
    return False


@dataclass
class OptimizerResult:
    """An optimized circuit plus bookkeeping."""

    name: str
    circuit: Circuit
    seconds: float

    @property
    def t_count(self) -> int:
        return self.circuit.t_count()


class CircuitOptimizer:
    """Base class: subclasses implement :meth:`run` on an MCX-level circuit."""

    #: registry key; subclasses set this
    name: str = "abstract"
    #: the tools from the paper this strategy models
    models: str = ""
    #: optional shared decomposition cache (set by the benchmark runner so
    #: several baselines reuse one Toffoli/Clifford+T expansion per circuit)
    cache: Optional[DecompositionCache] = None

    def run(self, circuit: Circuit) -> Circuit:  # pragma: no cover - abstract
        raise NotImplementedError

    # --------------------------------------------------- shared decomposition
    def _to_toffoli(self, circuit: Circuit) -> Circuit:
        """Toffoli-level decomposition, via the shared cache when present."""
        if self.cache is not None:
            return self.cache.toffoli(circuit)
        return to_toffoli(circuit)

    def _clifford_t_stream(self, circuit: Circuit) -> GateStream:
        """Clifford+T decomposition as a stream, via the shared cache."""
        if self.cache is not None:
            return self.cache.clifford_t_stream(circuit)
        return clifford_t_stream(circuit)

    def optimize(self, circuit: Circuit) -> OptimizerResult:
        """Run with timing."""
        start = time.perf_counter()
        result = self.run(circuit)
        return OptimizerResult(self.name, result, time.perf_counter() - start)


_REGISTRY: Dict[str, Callable[[], CircuitOptimizer]] = {}


def register(cls):
    """Class decorator adding an optimizer to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def get_optimizer(name: str, **kwargs) -> CircuitOptimizer:
    """Instantiate a registered optimizer by name."""
    return optimizer_class(name)(**kwargs)


def optimizer_class(name: str):
    """The registered optimizer class (metadata access without instancing)."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def optimizer_names() -> List[str]:
    return sorted(_REGISTRY)
