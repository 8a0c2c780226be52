"""Frozen seed implementations of the optimizer/simulator hot paths.

These are the pure-Python versions the package shipped with before the
vectorized gate-stream backbone replaced them.  They are kept verbatim for
two purposes:

* **property testing** — ``tests/test_cancel_regression.py`` asserts the
  packed implementations return *gate-for-gate identical* output on random
  Clifford+T circuits;
* **A/B benchmarking** — ``benchmarks/bench_perf.py`` times current vs seed
  implementations and records the speedups in ``BENCH_perf.json``.

The Figure 6 expansion loop and the ``toffoli-cancel``/``zx-like``
pipelines were frozen here when the gate passes moved to row-id streams
(``tests/test_stream_expansion.py`` compares against them).

Do not "optimize" this module; its value is that it does not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from .circuit.circuit import Circuit
from .circuit.decompose import _toffoli_clifford_t, to_toffoli
from .circuit.gates import (
    EIGHTHS_TO_KINDS,
    PHASE_EIGHTHS,
    PHASE_KINDS,
    Gate,
    GateKind,
)

# --------------------------------------------------------------------------
# seed circuit.decompose.expand_toffolis
# --------------------------------------------------------------------------
def expand_toffolis_seed(toffoli_level: Circuit) -> Circuit:
    """The per-gate Figure 6 loop over a Toffoli-level circuit."""
    out: List[Gate] = []
    for gate in toffoli_level.gates:
        if gate.kind is GateKind.MCX and len(gate.controls) == 2:
            a, b = gate.controls
            out.extend(_toffoli_clifford_t(a, b, gate.target))
        else:
            out.append(gate)
    return Circuit(toffoli_level.num_qubits, out, dict(toffoli_level.registers))


def to_clifford_t_seed(circuit: Circuit) -> Circuit:
    """Toffoli level, then the per-gate Figure 6 loop."""
    return expand_toffolis_seed(to_toffoli(circuit))


# --------------------------------------------------------------------------
# seed circopt.base.gates_commute
# --------------------------------------------------------------------------
def gates_commute_seed(a: Gate, b: Gate) -> bool:
    """The seed commutation check (set-based)."""
    qubits_a = set(a.controls + a.targets)
    qubits_b = set(b.controls + b.targets)
    if not qubits_a & qubits_b:
        return True
    if a.kind is GateKind.MCX and b.kind is GateKind.MCX:
        return a.targets[0] not in b.controls and b.targets[0] not in a.controls
    if a.kind in PHASE_KINDS and b.kind in PHASE_KINDS:
        return True
    if a.kind in PHASE_KINDS and not a.controls and b.kind is GateKind.MCX:
        return a.targets[0] != b.targets[0]
    if b.kind in PHASE_KINDS and not b.controls and a.kind is GateKind.MCX:
        return b.targets[0] != a.targets[0]
    return False


# --------------------------------------------------------------------------
# seed circopt.cancel
# --------------------------------------------------------------------------
def _is_inverse_pair(a: Gate, b: Gate) -> bool:
    return a.inverse() == b


def _merge_phases(a: Gate, b: Gate) -> List[Gate]:
    eighths = (PHASE_EIGHTHS[a.kind] + PHASE_EIGHTHS[b.kind]) % 8
    return [Gate(kind, (), a.targets) for kind in EIGHTHS_TO_KINDS[eighths]]


def cancel_pass_seed(gates: List[Gate], window: int = 64) -> List[Gate]:
    """One stack sweep of cancellation and phase merging (seed version)."""
    out: List[Gate] = []
    for gate in gates:
        k = len(out) - 1
        steps = 0
        placed = False
        while k >= 0 and steps < window:
            prev = out[k]
            if _is_inverse_pair(prev, gate):
                del out[k]
                placed = True
                break
            if (
                gate.kind in PHASE_KINDS
                and not gate.controls
                and prev.kind in PHASE_KINDS
                and not prev.controls
                and prev.targets == gate.targets
            ):
                merged = _merge_phases(prev, gate)
                out[k : k + 1] = merged
                placed = True
                break
            if gates_commute_seed(prev, gate):
                k -= 1
                steps += 1
                continue
            break
        if not placed:
            out.append(gate)
    return out


def cancel_to_fixpoint_seed(
    gates: List[Gate], window: int = 64, max_passes: int = 20
) -> List[Gate]:
    """Iterate :func:`cancel_pass_seed` until no gate is removed."""
    current = list(gates)
    for _ in range(max_passes):
        reduced = cancel_pass_seed(current, window)
        if len(reduced) == len(current):
            return reduced
        current = reduced
    return current


# --------------------------------------------------------------------------
# seed circopt.phase_poly
# --------------------------------------------------------------------------
@dataclass
class _PlaceholderSeed:
    qubit: int
    eighths: int
    const: int


class PhaseFolderSeed:
    """The seed single-sweep phase folder."""

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self._next_var = 0
        self.masks: List[int] = []
        self.consts: List[int] = []
        for _ in range(num_qubits):
            self.masks.append(self._fresh())
            self.consts.append(0)
        self.table: Dict[int, _PlaceholderSeed] = {}
        self.out: List[Union[Gate, _PlaceholderSeed]] = []

    def _fresh(self) -> int:
        bit = 1 << self._next_var
        self._next_var += 1
        return bit

    def _cut(self, qubit: int) -> None:
        self.masks[qubit] = self._fresh()
        self.consts[qubit] = 0

    def feed(self, gate: Gate) -> None:
        kind = gate.kind
        if kind in PHASE_KINDS and not gate.controls:
            qubit = gate.targets[0]
            mask = self.masks[qubit]
            eighths = PHASE_EIGHTHS[kind]
            if self.consts[qubit]:
                eighths = (-eighths) % 8
            if mask == 0:
                return
            entry = self.table.get(mask)
            if entry is None:
                entry = _PlaceholderSeed(qubit, 0, self.consts[qubit])
                self.table[mask] = entry
                self.out.append(entry)
            entry.eighths = (entry.eighths + eighths) % 8
            return
        if kind is GateKind.MCX and len(gate.controls) == 1:
            control, target = gate.controls[0], gate.targets[0]
            self.masks[target] ^= self.masks[control]
            self.consts[target] ^= self.consts[control]
            self.out.append(gate)
            return
        if kind is GateKind.MCX and len(gate.controls) == 0:
            self.consts[gate.targets[0]] ^= 1
            self.out.append(gate)
            return
        if kind is GateKind.SWAP and not gate.controls:
            a, b = gate.targets
            self.masks[a], self.masks[b] = self.masks[b], self.masks[a]
            self.consts[a], self.consts[b] = self.consts[b], self.consts[a]
            self.out.append(gate)
            return
        for qubit in gate.controls + gate.targets:
            self._cut(qubit)
        self.out.append(gate)

    def finalize(self) -> List[Gate]:
        gates: List[Gate] = []
        for item in self.out:
            if isinstance(item, _PlaceholderSeed):
                eighths = item.eighths if item.const == 0 else (-item.eighths) % 8
                for kind in EIGHTHS_TO_KINDS[eighths % 8]:
                    gates.append(Gate(kind, (), (item.qubit,)))
            else:
                gates.append(item)
        return gates


def fold_phases_seed(circuit: Circuit) -> Circuit:
    """Apply one phase-folding sweep (seed version)."""
    folder = PhaseFolderSeed(circuit.num_qubits)
    for gate in circuit.gates:
        folder.feed(gate)
    return Circuit(circuit.num_qubits, folder.finalize(), dict(circuit.registers))


# --------------------------------------------------------------------------
# seed optimizer pipelines (for A/B wall-clock comparison)
# --------------------------------------------------------------------------
def peephole_seed(circuit: Circuit, window: int = 64) -> Circuit:
    """The seed `peephole` baseline pipeline."""
    clifford_t = to_clifford_t_seed(circuit)
    gates = cancel_to_fixpoint_seed(clifford_t.gates, window)
    return Circuit(clifford_t.num_qubits, gates, dict(clifford_t.registers))


def rotation_merge_seed(circuit: Circuit, window: int = 64) -> Circuit:
    """The seed `rotation-merge` baseline pipeline."""
    clifford_t = to_clifford_t_seed(circuit)
    folded = fold_phases_seed(clifford_t)
    gates = cancel_to_fixpoint_seed(folded.gates, window)
    return fold_phases_seed(Circuit(folded.num_qubits, gates, dict(folded.registers)))


def toffoli_cancel_seed(circuit: Circuit, window: int = 64) -> Circuit:
    """The seed `toffoli-cancel` baseline pipeline."""
    toffoli_level = to_toffoli(circuit)
    reduced = cancel_to_fixpoint_seed(toffoli_level.gates, window)
    clifford_t = expand_toffolis_seed(
        Circuit(toffoli_level.num_qubits, reduced, toffoli_level.registers)
    )
    final = cancel_to_fixpoint_seed(clifford_t.gates, window)
    return Circuit(clifford_t.num_qubits, final, clifford_t.registers)


def zx_like_seed(circuit: Circuit, window: int = 256) -> Circuit:
    """The seed `zx-like` baseline pipeline."""
    toffoli_level = to_toffoli(circuit)
    reduced = cancel_to_fixpoint_seed(toffoli_level.gates, window)
    current = expand_toffolis_seed(
        Circuit(toffoli_level.num_qubits, reduced, toffoli_level.registers)
    )
    for _ in range(4):
        before = current.t_count()
        current = fold_phases_seed(current)
        gates = cancel_to_fixpoint_seed(current.gates, window)
        current = Circuit(current.num_qubits, gates, dict(current.registers))
        if current.t_count() == before:
            break
    return current


# --------------------------------------------------------------------------
# seed circuit.statevector
# --------------------------------------------------------------------------
_SQRT1_2 = 1.0 / math.sqrt(2.0)


def apply_gate_seed(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """The seed per-gate statevector kernel (allocates per gate)."""
    dim = state.shape[0]
    indices = np.arange(dim)
    cmask = 0
    for c in gate.controls:
        cmask |= 1 << c
    active = (indices & cmask) == cmask

    if gate.kind is GateKind.MCX:
        tbit = 1 << gate.targets[0]
        flipped = np.where(active, indices ^ tbit, indices)
        out = np.empty_like(state)
        out[flipped] = state[indices]
        return out

    if gate.kind is GateKind.SWAP:
        a, b = gate.targets
        bit_a = (indices >> a) & 1
        bit_b = (indices >> b) & 1
        differ = active & (bit_a != bit_b)
        swapped = np.where(differ, indices ^ ((1 << a) | (1 << b)), indices)
        out = np.empty_like(state)
        out[swapped] = state[indices]
        return out

    if gate.kind in PHASE_EIGHTHS:
        eighths = PHASE_EIGHTHS[gate.kind]
        tbit = 1 << gate.targets[0]
        phase = np.exp(1j * math.pi * eighths / 4.0)
        sel = active & ((indices & tbit) != 0)
        out = state.copy()
        out[sel] *= phase
        return out

    if gate.kind is GateKind.H:
        tbit = 1 << gate.targets[0]
        out = state.copy()
        low = indices[active & ((indices & tbit) == 0)]
        high = low | tbit
        a = state[low]
        b = state[high]
        out[low] = _SQRT1_2 * (a + b)
        out[high] = _SQRT1_2 * (a - b)
        return out

    raise ValueError(f"unsupported gate {gate}")  # pragma: no cover


def run_seed(circuit: Circuit, state: Optional[np.ndarray] = None) -> np.ndarray:
    """Run a circuit through the seed statevector kernels."""
    if state is None:
        state = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
        state[0] = 1.0
    for gate in circuit.gates:
        state = apply_gate_seed(state, gate, circuit.num_qubits)
    return state


def unitary_seed(circuit: Circuit, num_qubits: Optional[int] = None) -> np.ndarray:
    """Column-by-column unitary via the seed kernels."""
    n = max(circuit.num_qubits, num_qubits or 0)
    if n != circuit.num_qubits:
        circuit = Circuit(n, circuit.gates)
    dim = 1 << n
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        state = np.zeros(dim, dtype=np.complex128)
        state[col] = 1.0
        mat[:, col] = run_seed(circuit, state)
    return mat
