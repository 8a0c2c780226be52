"""Compact struct-of-arrays representation of a gate stream.

The optimizer hot paths (``circopt.cancel``, ``circopt.phase_poly``, the
compiled kernels in ``repro._kernels``) and the on-disk snapshots
(``circuit.snapshot``) spend most of their time on three questions about
a gate: *what kind is it*, *which qubits does it touch*, and *how many
eighth-turns of phase does it apply*.  Answering them through ``Gate``
objects costs an attribute lookup, an enum identity check and often a set
construction per query.  :meth:`GateStream.from_gates` answers them once,
and is the only code that turns ``Gate`` objects into integer columns.

Packing is deduplicated by object identity.  The memoized gate builders
make real streams share a small set of distinct ``Gate`` objects (a
276k-gate Clifford+T expansion has about 12k), so every column is
computed once per *row* — one distinct object, in first-use order — and
``rows`` maps each gate to its row.  Equal but distinct objects simply
take separate rows: consumers match gates by ordinal, never by row.

Row table (one entry per distinct object):

* ``row_gates`` — the distinct ``Gate`` objects;
* ``row_kinds`` — ``uint8`` kind codes (:data:`KIND_CODES`);
* ``row_eighths`` — ``int8``; the eighth-turn count of an *uncontrolled
  phase gate* (T=1, S=2, Z=4, S†=6, T†=7) and ``-1`` for every other gate;
* ``row_ords`` — ``int64`` ordinals, equal exactly when the ``(controls,
  targets)`` tuples are equal (tuple *order* counts).  A gate with no
  controls and one target ``q`` has ordinal ``~q``, so streams packed
  separately agree on those; the rest are interned from 0 up;
* ``row_tgt0`` — ``int32`` first target;
* ``row_control_mask`` / ``row_target_mask`` — lists of Python-int
  bitmasks (benchmark circuits routinely exceed 64 wires).

Per-gate columns, gathered from the row table: ``kinds``,
``num_controls`` (``int32``), ``phase_eighths``, and the ``int32`` qubit
columns ``ctrl0`` / ``tgt0`` / ``tgt1`` — first control, first target,
second target, ``-1`` when absent.  Gates with two or more controls are
not fully described by these three; consumers check ``num_controls``.

The stream retains the original ``gates`` list, so optimizers can emit
the very objects they were given — the paper's evaluation requires
bit-for-bit identical gate lists before and after the packed rewrite.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .gates import PHASE_EIGHTHS, Gate, GateKind

#: Dense integer code per gate kind (stable across the package).
KIND_CODES = {
    GateKind.MCX: 0,
    GateKind.H: 1,
    GateKind.SWAP: 2,
    GateKind.T: 3,
    GateKind.TDG: 4,
    GateKind.S: 5,
    GateKind.SDG: 6,
    GateKind.Z: 7,
}

#: Inverse of :data:`KIND_CODES` as a tuple indexed by code.
CODE_KINDS = tuple(
    kind for kind, _ in sorted(KIND_CODES.items(), key=lambda item: item[1])
)

MCX_CODE = KIND_CODES[GateKind.MCX]
SWAP_CODE = KIND_CODES[GateKind.SWAP]

#: Codes ``>= FIRST_PHASE_CODE`` are diagonal phase kinds (T/T†/S/S†/Z).
FIRST_PHASE_CODE = KIND_CODES[GateKind.T]

#: ``INVERSE_CODES[c]`` is the kind code of the inverse of kind code ``c``
#: (phase kinds invert pairwise; MCX/H/SWAP/Z are self-inverse).
INVERSE_CODES = tuple(
    KIND_CODES[
        {
            GateKind.T: GateKind.TDG,
            GateKind.TDG: GateKind.T,
            GateKind.S: GateKind.SDG,
            GateKind.SDG: GateKind.S,
        }.get(kind, kind)
    ]
    for kind in CODE_KINDS
)

#: Eighth-turns applied by each kind code (0 for non-phase kinds).
CODE_EIGHTHS = tuple(PHASE_EIGHTHS.get(kind, 0) for kind in CODE_KINDS)


class GateStream:
    """Row-deduplicated parallel-array view of a ``list[Gate]``.

    See the module docstring for the columns.
    """

    __slots__ = (
        "gates",
        "num_qubits",
        "rows",
        "row_gates",
        "row_kinds",
        "row_eighths",
        "row_ords",
        "row_tgt0",
        "row_control_mask",
        "row_target_mask",
        "kinds",
        "num_controls",
        "phase_eighths",
        "ctrl0",
        "tgt0",
        "tgt1",
    )

    @classmethod
    def from_gates(
        cls, gates: Iterable[Gate], num_qubits: int | None = None
    ) -> "GateStream":
        """Pack a gate list (retained as ``gates``) into row and gate columns.

        ``num_qubits`` defaults to one past the highest qubit touched.
        """
        stream = cls()
        gate_list = list(gates)
        distinct = {id(gate): gate for gate in gate_list}
        row_of = {key: r for r, key in enumerate(distinct)}
        rows = np.fromiter(
            map(row_of.__getitem__, map(id, gate_list)),
            dtype=np.int64,
            count=len(gate_list),
        )
        row_gates = list(distinct.values())

        kinds = []
        eighths = []
        ords = []
        num_controls = []
        ctrl0 = []
        tgt0 = []
        tgt1 = []
        control_mask = []
        target_mask = []
        intern: dict = {}
        top = -1
        for gate in row_gates:
            controls = gate.controls
            targets = gate.targets
            code = KIND_CODES[gate.kind]
            kinds.append(code)
            eighths.append(
                CODE_EIGHTHS[code]
                if code >= FIRST_PHASE_CODE and not controls
                else -1
            )
            if controls or len(targets) > 1:
                ords.append(intern.setdefault((controls, targets), len(intern)))
            else:
                ords.append(~targets[0])
            num_controls.append(len(controls))
            ctrl0.append(controls[0] if controls else -1)
            tgt0.append(targets[0])
            tgt1.append(targets[1] if len(targets) > 1 else -1)
            control_mask.append(gate.control_mask)
            target_mask.append(gate.target_mask)
            high = max(gate.qubits)
            if high > top:
                top = high

        stream.gates = gate_list
        stream.num_qubits = top + 1 if num_qubits is None else num_qubits
        stream.rows = rows
        stream.row_gates = row_gates
        stream.row_kinds = np.array(kinds, dtype=np.uint8)
        stream.row_eighths = np.array(eighths, dtype=np.int8)
        stream.row_ords = np.array(ords, dtype=np.int64)
        stream.row_tgt0 = np.array(tgt0, dtype=np.int32)
        stream.row_control_mask = control_mask
        stream.row_target_mask = target_mask
        stream.kinds = stream.row_kinds[rows]
        stream.num_controls = np.array(num_controls, dtype=np.int32)[rows]
        stream.phase_eighths = stream.row_eighths[rows]
        stream.ctrl0 = np.array(ctrl0, dtype=np.int32)[rows]
        stream.tgt0 = stream.row_tgt0[rows]
        stream.tgt1 = np.array(tgt1, dtype=np.int32)[rows]
        return stream

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GateStream {self.num_qubits} qubits, {len(self.gates)} gates, "
            f"{len(self.row_gates)} rows>"
        )
