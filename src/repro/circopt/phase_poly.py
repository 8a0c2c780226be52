"""Rotation merging via phase-polynomial tracking (phase folding).

This is the strategy of Nam et al. [2018] that Section 8.5 credits to
Feynman ``-toCliffordT``, VOQC and Pytket ZX: phase rotations applied to the
same *parity* of wire values are merged into one rotation, across an
arbitrary number of gates.

The algorithm sweeps the Clifford+T circuit once, tracking for every wire an
affine function (a parity of symbolic *variables* plus a constant) of the
circuit's history:

* a fresh variable is introduced per wire at the start and whenever a
  Hadamard (or any unhandled gate) rewrites the wire;
* ``CNOT(c, t)`` XORs the labels; ``X(t)`` flips the constant;
* an uncontrolled phase gate contributes ``±k`` eighth-turns to the table
  entry for its wire's parity (negated when the constant is 1, the constant
  offset being a global phase);
* the first occurrence of a parity becomes a *placeholder* in the output;
  later occurrences fold into it and disappear.  A parity over an empty
  variable set is itself a global phase and is dropped.

:func:`fold_stream` drives the sweep from the packed arrays of
:class:`~repro.circuit.gatestream.GateStream` — gate dispatch is an integer
compare instead of enum identity plus set membership — folds with
whole-array operations, and returns row ids over the stream's table (a
placeholder becomes one or two of its phase rows); :func:`fold_phases` is
the circuit-level wrapper.  Its output is
identical to the retained seed implementation in :mod:`repro.reference`
(the property tests check this).

Soundness: per computational-basis "branch" the phase contributed depends
only on the parity's value, which is fixed along each branch; folding moves
the phase to a position where the same parity provably resided on a wire.
The test suite checks equivalence (up to global phase) by statevector
simulation on random circuits.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gatestream import GateStream, MCX_CODE, SWAP_CODE
from .base import CircuitOptimizer, register
from .cancel import cancel_stream
from .. import _kernels


def _fold_packed_keys_python(stream: GateStream) -> np.ndarray:
    """Pure-Python wire-state sweep emitting one packed key per phase gate.

    Returns the same encoding as :func:`repro._kernels.fold_classify`:
    ``parity_id * 2 + affine_const`` for each uncontrolled phase gate in
    stream order, ``-1`` when the parity is empty (a pure global phase).
    The loop does no folding arithmetic and no interning: a phase gate
    appends its wire's parity *object* and constant, and the frozenset
    hash is computed lazily (then cached per object) only when the
    recorded parities are interned after the sweep.
    """
    gates = stream.gates
    n = len(gates)
    num_qubits = stream.num_qubits
    kinds = stream.kinds.tolist()
    num_controls = stream.num_controls.tolist()
    eighth_list = stream.phase_eighths.tolist()

    wire_set: List[FrozenSet[int]] = [frozenset((q,)) for q in range(num_qubits)]
    wire_const: List[int] = [0] * num_qubits
    next_var = num_qubits
    rec_mask: List[FrozenSet[int]] = []
    rec_const: List[int] = []

    for i in range(n):
        gate = gates[i]
        if eighth_list[i] >= 0:  # uncontrolled phase gate
            target = gate.targets[0]
            rec_mask.append(wire_set[target])
            rec_const.append(wire_const[target])
            continue
        kind = kinds[i]
        if kind == MCX_CODE:
            nc = num_controls[i]
            if nc == 1:
                control = gate.controls[0]
                target = gate.targets[0]
                wire_set[target] = wire_set[target] ^ wire_set[control]
                wire_const[target] ^= wire_const[control]
                continue
            if nc == 0:
                wire_const[gate.targets[0]] ^= 1
                continue
        elif kind == SWAP_CODE and not gate.controls:
            a, b = gate.targets
            wire_set[a], wire_set[b] = wire_set[b], wire_set[a]
            wire_const[a], wire_const[b] = wire_const[b], wire_const[a]
            continue
        # H, multiply-controlled gates, controlled phases: barrier on the
        # gate's qubits (conservative for anything beyond Clifford+T).
        for q in gate.qubits:
            wire_set[q] = frozenset((next_var,))
            next_var += 1
            wire_const[q] = 0

    packed = np.empty(len(rec_mask), dtype=np.int64)
    intern: Dict[FrozenSet[int], int] = {}
    for j, s in enumerate(rec_mask):
        if not s:
            packed[j] = -1
            continue
        k = intern.get(s)
        if k is None:
            k = len(intern)
            intern[s] = k
        packed[j] = k * 2 + rec_const[j]
    return packed


def _fold_stream_grouped(stream: GateStream) -> np.ndarray:
    """Phase-fold a packed stream via array-level grouping; returns row ids.

    Produces output identical to the one-gate-at-a-time sweep
    (:func:`repro.reference.fold_phases_seed`), but only the wire state
    machine is sequential — the compiled kernel when available,
    otherwise :func:`_fold_packed_keys_python` — and it merely *labels*
    each phase gate with its governing ``(parity, const)`` as a packed
    integer key.  All folding arithmetic then happens on whole arrays:
    ``np.unique`` over the parity ids groups equal parities with their
    first-occurrence position (where the reference sweep emits the
    placeholder), ``bincount`` folds the adjusted eighth-turns of every
    group in one shot, placeholders become the table's phase rows through
    its ``merge_rows``, and one integer ``argsort`` splices them back in
    position order.
    """
    rows = stream.rows
    eighths = stream.phase_eighths
    phase_sel = eighths >= 0
    if not bool(phase_sel.any()):
        return rows

    packed = _kernels.fold_classify(stream)
    if packed is None:
        packed = _fold_packed_keys_python(stream)

    phase_pos = np.nonzero(phase_sel)[0]
    nonphase_pos = np.nonzero(~phase_sel)[0]
    pph = eighths[phase_pos].astype(np.int64)

    keep = packed >= 0  # empty parity: pure global phase, dropped
    phase_pos = phase_pos[keep]
    pph = pph[keep]
    packed = packed[keep]

    nonphase_rows = rows[nonphase_pos]
    if len(phase_pos) == 0:
        return nonphase_rows

    # per-occurrence adjustment: a set constant offset is a global phase
    pconst = packed & 1
    adj = np.where(pconst != 0, (8 - pph) % 8, pph)
    pkey = packed >> 1

    # --- group equal parities; fold their eighth-turns in one shot ---
    uniq, first, inverse = np.unique(pkey, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=adj.astype(np.float64)).astype(np.int64) % 8
    const0 = pconst[first]
    final8 = np.where(const0 != 0, (8 - sums) % 8, sums)
    pos0 = phase_pos[first]

    # materialize placeholders as phase rows; order keys are 2*position
    # (+1 for the second gate of a two-gate phase sequence), so one sort
    # against the even-keyed non-phase gates reproduces the reference order
    nz = np.nonzero(final8)[0]
    pos0 = pos0[nz]
    pair = stream.table.merge_rows[final8[nz], stream.table.tgt0[rows[pos0]]]
    second = pair[:, 1] >= 0
    base = pos0 * 2
    keys = np.concatenate([nonphase_pos * 2, base, base[second] + 1])
    merged = np.concatenate([nonphase_rows, pair[:, 0], pair[second, 1]])
    return merged[np.argsort(keys)]


def fold_stream(stream: GateStream) -> GateStream:
    """One phase-folding sweep over a stream's rows."""
    return stream.with_rows(_fold_stream_grouped(stream))


def fold_phases(circuit: Circuit) -> Circuit:
    """Apply one phase-folding sweep to a Clifford+T circuit."""
    return fold_stream(GateStream.from_circuit(circuit)).to_circuit()


@register
class RotationMerging(CircuitOptimizer):
    """Decompose to Clifford+T, fold phases, then peephole.

    Models Feynman ``-toCliffordT``, VOQC ``optimize_nam`` and Pytket
    ``ZXGraphlikeOptimisation`` in the evaluation.
    """

    name = "rotation-merge"
    models = "Feynman -toCliffordT, VOQC, Pytket ZX"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit) -> Circuit:
        stream = fold_stream(self._clifford_t_stream(circuit))
        return fold_stream(cancel_stream(stream, self.window)).to_circuit()
