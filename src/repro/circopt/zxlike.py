"""A ZX-calculus-strength pipeline — the QuiZX stand-in.

Section 8.5 observes that QuiZX "discovers long-range circuit structure at
the expense of compile time": it is one of only two tested optimizers that
recover asymptotically efficient circuits, and it achieves the best constant
factors, at 14x-6500x the compile time of Feynman.

A full ZX-calculus rewriting engine is out of scope (and not needed for the
paper's claims); this pipeline reproduces QuiZX's *observed* behaviour by
combining every structural weapon in this package, each run to fixpoint with
wide scan windows:

1. Toffoli-level cancellation (captures conditional flattening, Figure 16),
2. Clifford+T decomposition,
3. phase folding (rotation merging across unbounded gate ranges),
4. a final wide peephole.
"""

from __future__ import annotations

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.decompose import expand_stream
from ..circuit.gates import GateKind
from ..circuit.gatestream import KIND_CODES, GateStream
from .base import CircuitOptimizer, register
from .cancel import cancel_stream
from .phase_poly import fold_stream

_T_CODES = (KIND_CODES[GateKind.T], KIND_CODES[GateKind.TDG])


def _t_count(stream: GateStream) -> int:
    kinds = stream.kinds
    return int(np.count_nonzero((kinds == _T_CODES[0]) | (kinds == _T_CODES[1])))


@register
class ZXLike(CircuitOptimizer):
    """Toffoli cancel + rotation merge + peephole, with wide windows.

    Models QuiZX ``full_simp`` in the evaluation.
    """

    name = "zx-like"
    models = "QuiZX (PyZX)"

    def __init__(self, window: int = 256) -> None:
        self.window = window

    def run(self, circuit: Circuit) -> Circuit:
        toffoli_level = GateStream.from_circuit(self._to_toffoli(circuit))
        current = expand_stream(cancel_stream(toffoli_level, self.window))
        for _ in range(4):
            before = _t_count(current)
            current = cancel_stream(fold_stream(current), self.window)
            if _t_count(current) == before:
                break
        return current.to_circuit()
