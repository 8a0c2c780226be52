"""Adjacent-gate cancellation passes.

:func:`cancel_pass` is the shared engine: a stack-based sweep that, for each
incoming gate, scans backwards over already-emitted gates (through ones it
commutes with, up to a window) looking for an inverse partner to annihilate
or an uncontrolled phase gate on the same wire to merge with.

Two implementations produce gate-for-gate identical output (verified by the
property tests against the frozen sweep in :mod:`repro.reference`).  Both
take one :class:`~repro.circuit.gatestream.GateStream`, match inverse pairs
by its table's ``(controls, targets)`` ordinal, take merged phase gates
from the table's phase rows, and return surviving row ids over the same
table (:func:`cancel_stream`):

* The compiled kernel in :mod:`repro._kernels` runs the entire fixpoint in
  C over the stream's row ids and multi-word masks.  It is used when the
  shared object is built and ``REPRO_NO_EXT=1`` is not set.
* The pure-Python fallback turns each table row into a small tuple of
  integers (row id, kind code, inverse-kind code, qubit bitmasks, phase
  eighths, ordinal) once per fixpoint call and adds a vectorized
  pre-filter: a
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

from typing import List, Tuple

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gates import Gate
from ..circuit.gatestream import (
    FIRST_PHASE_CODE,
    GateStream,
    INVERSE_CODES,
    MCX_CODE,
)
from .base import CircuitOptimizer, register
from .. import _kernels

#: Packed gate: (row, kind, inverse_kind, ctrl_mask, tgt_mask, qubit_mask,
#: phase_eighths, ordinal, placeable) — ``row`` is the gate's row id in the
#: stream's table; ``phase_eighths`` is ``-1`` unless the gate is an
#: uncontrolled phase gate; ``ordinal`` is the table's ``(controls,
#: targets)`` ordinal; ``placeable`` is False when the vectorized
#: pre-filter proved no earlier partner exists.
_Entry = Tuple[int, int, int, int, int, int, int, int, bool]

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


def _pack(stream: GateStream) -> Tuple[List[_Entry], List[List[tuple]]]:
    """Integer tuples per gate (built once per table row), and merge entries.

    ``merged[e][q]`` packs the table's phase rows for the minimal phase
    sequence worth ``e`` eighth-turns on qubit ``q``.
    """
    table = stream.table
    row_entries = [
        (row, kind, INVERSE_CODES[kind], cm, tm, cm | tm, ph, o)
        for row, (kind, cm, tm, ph, o) in enumerate(
            zip(
                table.kinds.tolist(),
                [gate.control_mask for gate in table.gates.tolist()],
                [gate.target_mask for gate in table.gates.tolist()],
                table.phase_eighths.tolist(),
                table.ords.tolist(),
            )
        )
    ]
    flags = _placeable_flags(
        stream.kinds.astype(np.int64), stream.phase_eighths, stream.ords
    )
    entries = [
        row_entries[r] + (flag,)
        for r, flag in zip(stream.rows.tolist(), flags.tolist())
    ]
    merged = [
        [tuple(row_entries[r] + (True,) for r in pair if r >= 0) for pair in qubits]
        for qubits in table.merge_rows.tolist()
    ]
    return entries, merged


def _cancel_pass_packed(
    entries: List[_Entry], window: int, merged: List[List[tuple]]
) -> List[_Entry]:
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
        _row, kind, _inv, cm, tm, qm, ph, ordinal, _flag = entry
        k = len(out) - 1
        steps = 0
        placed = False
        while k >= 0 and steps < window:
            prev = out[k]
            _prow, pkind, pinv, pcm, ptm, pqm, pph, pord, _pflag = prev
            if pinv == kind and pord == ordinal:
                del out[k]
                placed = True
                break
            if ph >= 0 and pph >= 0 and ptm == tm:
                # an uncontrolled phase gate's ordinal is ~target
                out[k : k + 1] = merged[(pph + ph) % 8][~ordinal]
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


def _entry_rows(entries: List[_Entry]) -> np.ndarray:
    return np.fromiter((entry[0] for entry in entries), np.int64, len(entries))


def cancel_pass(gates: List[Gate], window: int = 64) -> List[Gate]:
    """One stack sweep of cancellation and phase merging."""
    stream = GateStream.from_gates(gates)
    entries, merged = _pack(stream)
    return stream.with_rows(
        _entry_rows(_cancel_pass_packed(entries, window, merged))
    ).gates


def _cancel_to_fixpoint_pure(
    stream: GateStream, window: int, max_passes: int
) -> np.ndarray:
    """Pure-Python fixpoint over a stream; returns the surviving row ids.

    The packed tuples (and their placeability flags) survive between
    iterations — merged phase gates enter as pre-packed entries — so no
    pass ever re-derives masks or re-runs the pre-filter.
    """
    current, merged = _pack(stream)
    for _ in range(max_passes):
        reduced = _cancel_pass_packed(current, window, merged)
        if len(reduced) == len(current):
            return _entry_rows(reduced)
        current = reduced
    return _entry_rows(current)


def cancel_stream(
    stream: GateStream, window: int = 64, max_passes: int = 20
) -> GateStream:
    """Iterate the cancellation sweep to fixpoint over a stream's rows.

    Dispatches to the compiled kernel when available (see
    :mod:`repro._kernels`); otherwise runs the vectorized pure-Python
    sweep.  Both return identical row ids over the stream's table.
    """
    rows = _kernels.cancel_fixpoint(stream, window, max_passes)
    if rows is None:
        rows = _cancel_to_fixpoint_pure(stream, window, max_passes)
    return stream.with_rows(rows)


def cancel_to_fixpoint(
    gates: List[Gate], window: int = 64, max_passes: int = 20
) -> List[Gate]:
    """Iterate :func:`cancel_pass` until no gate is removed."""
    return cancel_stream(GateStream.from_gates(gates), window, max_passes).gates


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
        stream = self._clifford_t_stream(circuit)
        return cancel_stream(stream, self.window).to_circuit()
