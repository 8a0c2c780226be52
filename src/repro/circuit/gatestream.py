"""Compact struct-of-arrays representation of a gate stream.

The gate passes (``circopt.cancel``, ``circopt.phase_poly``, the compiled
kernels in ``repro._kernels``), the Clifford+T expansion
(``circuit.decompose``) and the on-disk snapshots (``circuit.snapshot``)
spend most of their time on three questions about a gate: *what kind is
it*, *which qubits does it touch*, and *how many eighth-turns of phase
does it apply*.  Answering them through ``Gate`` objects costs an
attribute lookup, an enum identity check and often a set construction per
query.  A :class:`RowTable` answers them once per distinct object, and a
:class:`GateStream` is a ``rows`` array of row ids into one table.

**One table per gate pass.**  Every sweep of a pass takes a stream and
returns a new ``rows`` array over the *same* table: the cancel fixpoint
only drops rows or substitutes merged phase gates, phase folding only
drops rows or materializes placeholders, and both draw their new phase
gates from the table's *phase rows* — ``T``/``T†``/``S``/``S†``/``Z`` on
every qubit of the declared width, from the memoized
:func:`~repro.circuit.gates.phase_gate` builder, appended after the
packed gates.  So a pass packs once, and ``Gate`` objects are gathered
once, lazily, when :attr:`GateStream.gates` is read.

Packing is deduplicated by object identity.  The memoized gate builders
make real streams share a small set of distinct ``Gate`` objects (a
276k-gate Clifford+T expansion has about 12k), so every column is
computed once per *row*.  One object may occupy several rows — an equal
but distinct object, or a phase gate that is also a phase row — because
consumers match gates by ordinal, never by row.

Row table (one entry per row; :attr:`RowTable.phase_base` is the first
phase row):

* ``gates`` — the row ``Gate`` objects, as an object array;
* ``kinds`` — ``uint8`` kind codes (:data:`KIND_CODES`);
* ``phase_eighths`` — ``int8``; the eighth-turn count of an *uncontrolled
  phase gate* (T=1, S=2, Z=4, S†=6, T†=7) and ``-1`` for every other gate;
* ``ords`` — ``int64`` ordinals, equal exactly when the ``(controls,
  targets)`` tuples are equal (tuple *order* counts).  A gate with no
  controls and one target ``q`` has ordinal ``~q``; the rest are interned
  from 0 up;
* ``num_controls`` and the ``int32`` qubit columns ``ctrl0`` / ``tgt0`` /
  ``tgt1`` — first control, first target, second target, ``-1`` when
  absent.  Gates with two or more controls are not fully described by
  these three; consumers check ``num_controls``;
* ``mask_words()`` — control/target/qubit bitmasks as ``uint64`` words
  (benchmark circuits routinely exceed 64 wires), built on first use;
* ``merge_rows`` — ``int64[8, num_qubits, 2]``: the phase rows of the
  minimal phase sequence worth ``e`` eighth-turns on qubit ``q``, padded
  with ``-1``.

A stream's per-gate columns (``kinds``, ``phase_eighths``, ``ords``,
``num_controls``, ``ctrl0``, ``tgt0``, ``tgt1``) are the table columns
gathered by ``rows``.

The width is the producer's declaration: :meth:`GateStream.from_gates`
raises ``ValueError`` on a gate outside it, so no sweep ever indexes a
wire the table does not have.  A stream packed from gates emits the very
objects it was given — the paper's evaluation requires bit-for-bit
identical gate lists before and after the packed rewrite.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit, Register
from .gates import EIGHTHS_TO_KINDS, PHASE_EIGHTHS, Gate, GateKind, phase_gate

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

#: Kinds of the phase rows, in row order: one block of ``num_qubits`` each.
PHASE_ROW_KINDS = CODE_KINDS[FIRST_PHASE_CODE:]


def dedupe(gates: Sequence[Gate]) -> Tuple[List[Gate], np.ndarray]:
    """Distinct objects in first-use order, and each gate's index among them."""
    ids = np.fromiter(map(id, gates), dtype=np.int64, count=len(gates))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    distinct = list(map(gates.__getitem__, first[order].tolist()))
    return distinct, rank[inverse.reshape(-1)]


class RowTable:
    """Integer columns of a list of gate objects plus the phase rows.

    See the module docstring for the columns.
    """

    __slots__ = (
        "num_qubits",
        "phase_base",
        "gates",
        "kinds",
        "phase_eighths",
        "ords",
        "num_controls",
        "ctrl0",
        "tgt0",
        "tgt1",
        "merge_rows",
        "_mask_words",
    )

    def __init__(self, gates: Sequence[Gate], num_qubits: Optional[int] = None):
        controls = [gate.controls for gate in gates]
        targets = [gate.targets for gate in gates]
        top = max(
            max(map(max, targets), default=-1),
            max(map(max, filter(None, controls)), default=-1),
        )
        if num_qubits is None:
            num_qubits = top + 1
        elif top >= num_qubits:
            raise ValueError(
                f"a gate touches qubit {top}, outside the declared width "
                f"of {num_qubits} qubits"
            )
        phase_rows = [
            phase_gate(kind, q) for kind in PHASE_ROW_KINDS for q in range(num_qubits)
        ]
        controls += [()] * len(phase_rows)
        targets += [gate.targets for gate in phase_rows]
        row_gates = list(gates) + phase_rows
        intern: Dict[tuple, int] = {}

        def column(values, dtype) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=len(row_gates))

        self.num_qubits = num_qubits
        self.phase_base = len(gates)
        self.gates = np.empty(len(row_gates), dtype=object)
        self.gates[:] = row_gates
        self.kinds = column((KIND_CODES[gate.kind] for gate in row_gates), np.uint8)
        self.num_controls = column(map(len, controls), np.int32)
        self.ctrl0 = column((c[0] if c else -1 for c in controls), np.int32)
        self.tgt0 = column((t[0] for t in targets), np.int32)
        self.tgt1 = column((t[1] if len(t) > 1 else -1 for t in targets), np.int32)
        self.ords = column(
            (
                intern.setdefault((c, t), len(intern)) if c or len(t) > 1 else ~t[0]
                for c, t in zip(controls, targets)
            ),
            np.int64,
        )
        self.phase_eighths = np.where(
            (self.kinds >= FIRST_PHASE_CODE) & (self.num_controls == 0),
            np.array(CODE_EIGHTHS, dtype=np.int8)[self.kinds],
            -1,
        ).astype(np.int8)
        self.merge_rows = np.full((8, num_qubits, 2), -1, dtype=np.int64)
        first_rows = self.phase_base + np.arange(num_qubits)
        for value, seq in EIGHTHS_TO_KINDS.items():
            for j, kind in enumerate(seq):
                block = PHASE_ROW_KINDS.index(kind)
                self.merge_rows[value, :, j] = first_rows + block * num_qubits
        self._mask_words = None

    def __len__(self) -> int:
        return len(self.gates)

    def mask_words(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Control, target and qubit masks as ``uint64[rows, words]``.

        Little-endian 64-bit words, ``ceil(num_qubits / 64)`` per row —
        the layout of the compiled cancel kernel.  Built once per table,
        from the qubit columns plus the controls past the first.
        """
        if self._mask_words is None:
            shape = (len(self), (self.num_qubits + 63) // 64)
            cm = np.zeros(shape, dtype=np.uint64)
            tm = np.zeros(shape, dtype=np.uint64)
            rows = np.arange(len(self))
            for words, column in ((cm, self.ctrl0), (tm, self.tgt0), (tm, self.tgt1)):
                present = column >= 0
                qubits = column[present].astype(np.uint64)
                # one qubit per row per column: plain fancy indexing is safe
                words[rows[present], qubits >> 6] |= np.uint64(1) << (qubits & 63)
            for row in np.flatnonzero(self.num_controls > 1).tolist():
                for qubit in self.gates[row].controls[1:]:
                    cm[row, qubit >> 6] |= np.uint64(1 << (qubit & 63))
            self._mask_words = (cm, tm, cm | tm)
        return self._mask_words


def _gathered(name: str) -> property:
    def column(self: "GateStream") -> np.ndarray:
        return getattr(self.table, name)[self.rows]

    return property(column, doc=f"Per-gate ``{name}``: the row column gathered.")


class GateStream:
    """A gate sequence as row ids into a shared :class:`RowTable`.

    ``registers`` travel with the stream so a gate pass can hand back a
    :class:`~repro.circuit.circuit.Circuit` without looking them up.
    """

    __slots__ = ("table", "rows", "registers", "_gates")

    kinds = _gathered("kinds")
    phase_eighths = _gathered("phase_eighths")
    ords = _gathered("ords")
    num_controls = _gathered("num_controls")
    ctrl0 = _gathered("ctrl0")
    tgt0 = _gathered("tgt0")
    tgt1 = _gathered("tgt1")

    def __init__(
        self,
        table: RowTable,
        rows: np.ndarray,
        registers: Optional[Dict[str, Register]] = None,
        gates: Optional[List[Gate]] = None,
    ) -> None:
        self.table = table
        self.rows = rows
        self.registers = registers or {}
        self._gates = gates

    @classmethod
    def from_gates(
        cls, gates: Iterable[Gate], num_qubits: Optional[int] = None
    ) -> "GateStream":
        """Pack a gate list (retained as ``gates``) into a new table.

        ``num_qubits`` defaults to one past the highest qubit touched; a
        gate beyond a given width raises ``ValueError``.
        """
        gate_list = list(gates)
        distinct, rows = dedupe(gate_list)
        return cls(RowTable(distinct, num_qubits), rows, gates=gate_list)

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "GateStream":
        """Pack a circuit at its declared width, keeping its registers."""
        stream = cls.from_gates(circuit.gates, circuit.num_qubits)
        stream.registers = circuit.registers
        return stream

    def with_rows(self, rows: np.ndarray) -> "GateStream":
        """The sweep output ``rows`` over this stream's table."""
        return GateStream(self.table, rows, self.registers)

    @property
    def num_qubits(self) -> int:
        return self.table.num_qubits

    @property
    def gates(self) -> List[Gate]:
        """The gate objects, gathered from the table on first access."""
        if self._gates is None:
            self._gates = self.table.gates.take(self.rows).tolist()
        return self._gates

    def to_circuit(self) -> Circuit:
        """The stream as a circuit at the table's width."""
        return Circuit(self.num_qubits, self.gates, self.registers)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GateStream {self.num_qubits} qubits, {len(self.rows)} gates, "
            f"{len(self.table)} rows>"
        )
