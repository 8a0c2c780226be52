"""Adjacent-gate cancellation passes.

:func:`cancel_pass` is the shared engine: a stack-based sweep that, for each
incoming gate, scans backwards over already-emitted gates (through ones it
commutes with, up to a window) looking for an inverse partner to annihilate
or an uncontrolled phase gate on the same wire to merge with.

Two implementations produce gate-for-gate identical output (verified by the
property tests against the frozen sweep in :mod:`repro.reference`).  Both
read their integers from one :class:`~repro.circuit.gatestream.GateStream`
and match inverse pairs by its ``(controls, targets)`` ordinal:

* The compiled kernel in :mod:`repro._kernels` runs the entire fixpoint in
  C over the stream's row ids and multi-word masks.  It is used when the
  shared object is built and ``REPRO_NO_EXT=1`` is not set.
* The pure-Python fallback turns each stream row into a small tuple of
  integers (kind code, inverse-kind code, qubit bitmasks, phase eighths,
  ordinal) once per fixpoint call and adds a vectorized pre-filter: a
  whole-array numpy match over the stream's kind/ordinal arrays marks, in
  one shot, every gate that has *no* inverse-pair or phase-merge candidate
  anywhere earlier in the stream.  Those gates can never be placed —
  merging only ever moves phase gates to positions of earlier phase gates
  on the same wire, so a gate with no earlier candidate in the original
  order never gains one in later passes — and the backward window scan is
  skipped for them entirely.

:class:`CliffordTPeephole` applies the sweep to the fully decomposed
Clifford+T circuit — this is the strategy of Qiskit and Pytket's peephole
mode, and, as Section 8.5 explains via Figure 17, it *cannot* remove the
residue of adjacent Toffoli gates once they are decomposed, so it does not
repair the asymptotic T-complexity.  The test suite and benchmarks confirm
this behaviour.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gates import EIGHTHS_TO_KINDS, Gate, phase_gate
from ..circuit.gatestream import (
    FIRST_PHASE_CODE,
    GateStream,
    INVERSE_CODES,
    MCX_CODE,
)
from .base import CircuitOptimizer, register
from .. import _kernels

#: Packed gate: (gate, kind, inverse_kind, ctrl_mask, tgt_mask, qubit_mask,
#: phase_eighths, ordinal, placeable) — ``phase_eighths`` is ``-1`` unless
#: the gate is an uncontrolled phase gate; ``ordinal`` is the stream's
#: ``(controls, targets)`` ordinal; ``placeable`` is False when the
#: vectorized pre-filter proved no earlier partner exists.
_Entry = Tuple[Gate, int, int, int, int, int, int, int, bool]

_INVERSE_ARR = np.array(INVERSE_CODES, dtype=np.int64)


def _placeable_flags(
    kinds: np.ndarray, eighths: np.ndarray, ords: np.ndarray
) -> np.ndarray:
    """Vectorized window-match pre-filter over the packed stream.

    A gate can only leave the stream by annihilating with an earlier gate
    of inverse kind on the same ``(controls, targets)`` tuple, or — for an
    uncontrolled phase gate — by merging with an earlier uncontrolled
    phase gate on the same wire.  Both candidate sets are computed for the
    whole array at once via first-occurrence indices of packed
    ``(ordinal, kind)`` keys; gates with no candidate are excluded from
    the scan loop for every subsequent pass.
    """
    n = len(ords)
    if n == 0:
        return np.zeros(0, dtype=bool)
    idx = np.arange(n, dtype=np.int64)
    keys = ords * 8 + kinds
    inv_keys = ords * 8 + _INVERSE_ARR[kinds]
    uniq, first = np.unique(keys, return_index=True)
    pos = np.minimum(np.searchsorted(uniq, inv_keys), len(uniq) - 1)
    first_inv = np.where(uniq[pos] == inv_keys, first[pos], n)
    placeable = first_inv < idx
    phase_pos = np.nonzero(eighths >= 0)[0]
    if len(phase_pos):
        phase_ords = ords[phase_pos]
        uniq_p, first_p = np.unique(phase_ords, return_index=True)
        first_full = phase_pos[first_p]
        placeable[phase_pos] |= (
            first_full[np.searchsorted(uniq_p, phase_ords)] < phase_pos
        )
    return placeable


def _pack(gates: List[Gate]) -> List[_Entry]:
    """Pack gates into integer tuples: one per stream row, gathered per gate."""
    stream = GateStream.from_gates(gates)
    row_ords = stream.row_ords.tolist()
    row_entries = [
        (gate, kind, INVERSE_CODES[kind], cm, tm, cm | tm, ph, o)
        for gate, kind, cm, tm, ph, o in zip(
            stream.row_gates,
            stream.row_kinds.tolist(),
            stream.row_control_mask,
            stream.row_target_mask,
            stream.row_eighths.tolist(),
            row_ords,
        )
    ]
    flags = _placeable_flags(
        stream.kinds.astype(np.int64),
        stream.phase_eighths,
        stream.row_ords[stream.rows],
    )
    return [
        row_entries[r] + (flag,)
        for r, flag in zip(stream.rows.tolist(), flags.tolist())
    ]


@lru_cache(maxsize=None)
def _merged_phase_entries(eighths: int, target: int) -> Tuple[_Entry, ...]:
    """Packed entries for the minimal phase sequence worth ``eighths``."""
    gates = [phase_gate(kind, target) for kind in EIGHTHS_TO_KINDS[eighths]]
    return tuple(entry[:-1] + (True,) for entry in _pack(gates))


def _cancel_pass_packed(entries: List[_Entry], window: int) -> List[_Entry]:
    """One stack sweep over packed gates; integer comparisons only.

    Mirrors the reference sweep exactly: inverse-pair check first, then
    uncontrolled-phase merge, then the commutation rules of
    :func:`~repro.circopt.base.gates_commute` inlined on the cached masks.
    Gates the pre-filter proved unplaceable are emitted without scanning.
    """
    out: List[_Entry] = []
    for entry in entries:
        if not entry[8]:
            out.append(entry)
            continue
        gate, kind, _inv, cm, tm, qm, ph, ordinal, _flag = entry
        k = len(out) - 1
        steps = 0
        placed = False
        while k >= 0 and steps < window:
            prev = out[k]
            _pgate, pkind, pinv, pcm, ptm, pqm, pph, pord, _pflag = prev
            if pinv == kind and pord == ordinal:
                del out[k]
                placed = True
                break
            if ph >= 0 and pph >= 0 and ptm == tm:
                out[k : k + 1] = _merged_phase_entries((pph + ph) % 8, gate.targets[0])
                placed = True
                break
            # inlined gates_commute(prev, gate)
            if not pqm & qm:
                k -= 1
                steps += 1
                continue
            if pkind == MCX_CODE and kind == MCX_CODE:
                if not (ptm & cm) and not (tm & pcm):
                    k -= 1
                    steps += 1
                    continue
                break
            if pkind >= FIRST_PHASE_CODE and kind >= FIRST_PHASE_CODE:
                k -= 1
                steps += 1
                continue
            if pph >= 0 and kind == MCX_CODE:
                if ptm != tm:
                    k -= 1
                    steps += 1
                    continue
                break
            if ph >= 0 and pkind == MCX_CODE:
                if tm != ptm:
                    k -= 1
                    steps += 1
                    continue
                break
            break
        if not placed:
            out.append(entry)
    return out


def cancel_pass(gates: List[Gate], window: int = 64) -> List[Gate]:
    """One stack sweep of cancellation and phase merging."""
    return [entry[0] for entry in _cancel_pass_packed(_pack(list(gates)), window)]


def _cancel_to_fixpoint_pure(
    gates: List[Gate], window: int, max_passes: int
) -> List[Gate]:
    """Pure-Python fixpoint: pack once, reuse packed entries across passes.

    The packed tuples (and their placeability flags) survive between
    iterations — merged phase gates enter as pre-packed entries — so no
    pass ever re-derives masks or re-runs the pre-filter.
    """
    current = _pack(list(gates))
    for _ in range(max_passes):
        reduced = _cancel_pass_packed(current, window)
        if len(reduced) == len(current):
            return [entry[0] for entry in reduced]
        current = reduced
    return [entry[0] for entry in current]


def cancel_to_fixpoint(
    gates: List[Gate], window: int = 64, max_passes: int = 20
) -> List[Gate]:
    """Iterate :func:`cancel_pass` until no gate is removed.

    Dispatches to the compiled kernel when available (see
    :mod:`repro._kernels`); otherwise runs the vectorized pure-Python
    sweep.  Both produce identical gate lists.
    """
    gates = list(gates)
    result = _kernels.cancel_fixpoint(gates, window, max_passes)
    if result is not None:
        return result
    return _cancel_to_fixpoint_pure(gates, window, max_passes)


@register
class CliffordTPeephole(CircuitOptimizer):
    """Adjacent-gate cancellation on the decomposed Clifford+T circuit.

    Models Qiskit ``transpile(optimization_level=3)`` and Pytket
    ``FullPeepholeOptimise`` in the evaluation of Section 8.3.
    """

    name = "peephole"
    models = "Qiskit, Pytket peephole"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit) -> Circuit:
        clifford_t = self._to_clifford_t(circuit)
        gates = cancel_to_fixpoint(clifford_t.gates, self.window)
        return Circuit(clifford_t.num_qubits, gates, dict(clifford_t.registers))
