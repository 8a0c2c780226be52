"""Gate decompositions (Figures 5 and 6 of the paper).

* :func:`decompose_mcx_to_toffoli` — the Barenco et al. ladder of Figure 5:
  an MCX with ``c >= 3`` controls becomes ``2*(c-2) + 1`` Toffoli gates using
  ``c - 2`` clean ancilla qubits, which are returned to |0⟩.
* :func:`decompose_toffoli_to_clifford_t` — the standard 7-T-gate Clifford+T
  realization of the Toffoli gate (Figure 6).
* :func:`decompose_controlled_h` — a controlled Hadamard as
  ``A · C^mX · A†`` with ``A = S·H·T`` acting on the target (the Qiskit CH
  construction, 2 T gates of its own).

:func:`to_toffoli` and :func:`to_clifford_t` apply these over whole circuits,
appending ancilla qubits at the top of the wire range.  The number of T gates
produced by the full pipeline equals :meth:`Circuit.t_complexity` of the
original MCX-level circuit, which the test suite verifies gate-for-gate.

The Figure 6 step emits a :class:`~repro.circuit.gatestream.GateStream`
(:func:`expand_stream`, :func:`clifford_t_stream`): the gate passes sweep
its row ids directly, and :func:`expand_toffolis`/:func:`to_clifford_t`
are thin wrappers that gather the gates into a :class:`Circuit`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import LoweringError
from .circuit import Circuit, Register
from .gates import Gate, GateKind, cnot, h, s, sdg, t, tdg, toffoli
from .gatestream import GateStream, RowTable, dedupe


class _AncillaPool:
    """Allocates clean ancilla qubits above a circuit's wires and reuses them."""

    def __init__(self, first_free: int) -> None:
        self._next = first_free
        self._free: List[int] = []
        self.high_water = first_free

    def acquire(self) -> int:
        if self._free:
            return self._free.pop()
        qubit = self._next
        self._next += 1
        self.high_water = max(self.high_water, self._next)
        return qubit

    def release(self, qubit: int) -> None:
        self._free.append(qubit)

    @property
    def used(self) -> int:
        return self.high_water


def decompose_mcx_to_toffoli(
    gate: Gate, pool: _AncillaPool, out: List[Gate]
) -> None:
    """Expand one MCX gate into Toffoli/CNOT/X gates, appending to ``out``.

    Follows Figure 5: ``MCX(c1..ck -> t)`` becomes ``Toffoli(c1,c2 -> a)``,
    ``MCX(a,c3..ck -> t)`` recursively, ``Toffoli(c1,c2 -> a)``.  Each level
    borrows one clean ancilla and restores it.
    """
    if gate.kind is not GateKind.MCX:
        raise LoweringError(f"not an MCX gate: {gate}")
    controls = list(gate.controls)
    if len(controls) <= 2:
        out.append(gate)
        return
    ancilla = pool.acquire()
    compute = toffoli(controls[0], controls[1], ancilla)
    out.append(compute)
    inner = Gate(GateKind.MCX, tuple([ancilla] + controls[2:]), gate.targets)
    decompose_mcx_to_toffoli(inner, pool, out)
    out.append(compute)
    pool.release(ancilla)


def decompose_controlled_h(gate: Gate, pool: _AncillaPool, out: List[Gate]) -> None:
    """Expand a controlled Hadamard into {Clifford, MCX} gates.

    ``C^m H = A · C^m X · A†`` with ``A = S · H · T`` on the target.  The MCX
    part is decomposed further by :func:`decompose_mcx_to_toffoli`.
    """
    if gate.kind is not GateKind.H:
        raise LoweringError(f"not an H gate: {gate}")
    target = gate.target
    if not gate.controls:
        out.append(gate)
        return
    out.append(s(target))
    out.append(h(target))
    out.append(t(target))
    decompose_mcx_to_toffoli(
        Gate(GateKind.MCX, gate.controls, gate.targets), pool, out
    )
    out.append(tdg(target))
    out.append(h(target))
    out.append(sdg(target))


@lru_cache(maxsize=None)
def _toffoli_clifford_t(a: int, b: int, c: int) -> Tuple[Gate, ...]:
    """Memoized Figure 6 gate sequence for ``Toffoli(a, b -> c)``.

    Benchmark circuits repeat the same Toffoli (same qubit triple) thousands
    of times; gates are immutable, so the 15-gate sequence can be shared.
    """
    return (
        h(c),
        cnot(b, c),
        tdg(c),
        cnot(a, c),
        t(c),
        cnot(b, c),
        tdg(c),
        cnot(a, c),
        t(b),
        t(c),
        h(c),
        cnot(a, b),
        t(a),
        tdg(b),
        cnot(a, b),
    )


def decompose_toffoli_to_clifford_t(gate: Gate) -> List[Gate]:
    """The standard 7-T realization of the Toffoli gate (Figure 6)."""
    if gate.kind is not GateKind.MCX or len(gate.controls) != 2:
        raise LoweringError(f"not a Toffoli gate: {gate}")
    a, b = gate.controls
    return list(_toffoli_clifford_t(a, b, gate.target))


def decompose_swap(gate: Gate) -> List[Gate]:
    """A SWAP as three CNOTs (controls, if any, go on every CNOT)."""
    if gate.kind is not GateKind.SWAP:
        raise LoweringError(f"not a SWAP gate: {gate}")
    a, b = gate.targets
    seq = [cnot(a, b), cnot(b, a), cnot(a, b)]
    return [g.with_extra_controls(gate.controls) for g in seq]


def to_toffoli(circuit: Circuit) -> Circuit:
    """Rewrite an MCX-level circuit so no gate has more than two controls.

    MCX gates with three or more controls are expanded via Figure 5;
    controlled Hadamards are expanded via the ``A · C^mX · A†`` construction.
    Ancilla wires are appended above ``circuit.num_qubits`` and shared.
    """
    pool = _AncillaPool(circuit.num_qubits)
    out: List[Gate] = []
    for gate in circuit.gates:
        if gate.kind is GateKind.MCX:
            decompose_mcx_to_toffoli(gate, pool, out)
        elif gate.kind is GateKind.H:
            if len(gate.controls) <= 0:
                out.append(gate)
            else:
                decompose_controlled_h(gate, pool, out)
        elif gate.kind is GateKind.SWAP:
            for g in decompose_swap(gate):
                decompose_mcx_to_toffoli(g, pool, out)
        elif gate.kind in (GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z):
            if gate.controls:
                raise LoweringError(f"controlled phase gate in MCX-level circuit: {gate}")
            out.append(gate)
        else:  # pragma: no cover - enum is closed
            raise LoweringError(f"cannot decompose {gate}")
    result = Circuit(max(circuit.num_qubits, pool.used), out, dict(circuit.registers))
    if pool.used > circuit.num_qubits:
        result.add_register(
            Register("%mcx_ancilla", circuit.num_qubits, pool.used - circuit.num_qubits)
        )
    return result


def _template(gate: Gate) -> Tuple[Gate, ...]:
    """The Clifford+T gates one Toffoli-level gate expands to."""
    if gate.kind is GateKind.MCX and len(gate.controls) == 2:
        a, b = gate.controls
        return _toffoli_clifford_t(a, b, gate.target)
    return (gate,)


def _expand(
    row_gates: Sequence[Gate],
    rows: np.ndarray,
    num_qubits: int,
    registers: Dict[str, Register],
) -> GateStream:
    """Figure 6 over the gates ``row_gates[rows]``, as a new stream.

    Each distinct row in use maps to a template — the memoized 15-gate
    sequence for a Toffoli, the gate itself otherwise — and only the
    template gates are packed into the new table.  The per-gate ``rows``
    are a numpy gather of the templates' row offsets, so no ``Gate`` list
    of the expansion is built.
    """
    used = np.flatnonzero(np.bincount(rows, minlength=len(row_gates)))
    templates = [_template(row_gates[r]) for r in used.tolist()]
    distinct, flat_rows = dedupe(
        [gate for template in templates for gate in template]
    )
    sizes = np.fromiter(map(len, templates), dtype=np.int64, count=len(templates))
    template_of = np.zeros(len(row_gates), dtype=np.int64)
    template_of[used] = np.arange(len(used))
    per_gate = template_of[rows]
    counts = sizes[per_gate]
    # gate i's template occupies flat[start[i] : start[i] + counts[i]];
    # output position p of gate i reads flat[start[i] + p - out_start[i]]
    start = (np.cumsum(sizes) - sizes)[per_gate]
    out_start = np.cumsum(counts) - counts
    gather = np.repeat(start - out_start, counts) + np.arange(int(counts.sum()))
    return GateStream(RowTable(distinct, num_qubits), flat_rows[gather], registers)


def expand_stream(stream: GateStream) -> GateStream:
    """Apply the Figure 6 rule to every Toffoli of a Toffoli-level stream."""
    return _expand(
        stream.table.gates, stream.rows, stream.num_qubits, stream.registers
    )


def _expand_circuit(toffoli_level: Circuit) -> GateStream:
    distinct, rows = dedupe(toffoli_level.gates)
    return _expand(distinct, rows, toffoli_level.num_qubits, toffoli_level.registers)


def expand_toffolis(toffoli_level: Circuit) -> Circuit:
    """Apply the Figure 6 rule to every Toffoli of a Toffoli-level circuit."""
    return _expand_circuit(toffoli_level).to_circuit()


def clifford_t_stream(circuit: Circuit) -> GateStream:
    """The Clifford+T expansion of an MCX-level circuit, as a stream."""
    return _expand_circuit(to_toffoli(circuit))


def to_clifford_t(circuit: Circuit) -> Circuit:
    """Fully decompose a circuit to the Clifford+T gate set.

    First reduces to the Toffoli level (:func:`to_toffoli`), then applies the
    Figure 6 rule to every Toffoli.
    """
    return clifford_t_stream(circuit).to_circuit()


class DecompositionCache:
    """Shared ``to_toffoli``/``to_clifford_t`` results, keyed by circuit identity.

    The benchmark runner hands the *same* compiled :class:`Circuit` object to
    several optimizer baselines; each used to re-derive the (large) Toffoli
    and Clifford+T decompositions from scratch.  Entries pin the source
    circuit, so an ``id()`` can never be reused by a different live circuit
    while its entry exists.  Cached results are shared — callers must treat
    them as read-only (all optimizers do; they build fresh output circuits).
    A Clifford+T entry is the expansion's stream, which the gate passes
    sweep directly; :meth:`clifford_t` gathers its gates once.

    Capacity is bounded (``max_entries`` source circuits per level, oldest
    evicted first): baselines for one compiled circuit run back-to-back, so
    a small window keeps the hits while a table-wide sweep over many
    (benchmark, depth) points does not pin every expansion it ever made.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self._toffoli: Dict[int, Tuple[Circuit, Circuit]] = {}
        self._clifford_t: Dict[int, Tuple[Circuit, GateStream]] = {}

    def _lookup(self, cache: Dict[int, tuple], circuit: Circuit, build):
        key = id(circuit)
        hit = cache.get(key)
        if hit is not None and hit[0] is circuit:
            return hit[1]
        result = build(circuit)
        cache[key] = (circuit, result)
        while len(cache) > self.max_entries:
            del cache[next(iter(cache))]  # dicts iterate in insertion order
        return result

    def toffoli(self, circuit: Circuit) -> Circuit:
        """Cached :func:`to_toffoli` of ``circuit``."""
        return self._lookup(self._toffoli, circuit, to_toffoli)

    def clifford_t_stream(self, circuit: Circuit) -> GateStream:
        """Cached :func:`clifford_t_stream`, built from the cached Toffoli level."""
        return self._lookup(
            self._clifford_t, circuit, lambda c: _expand_circuit(self.toffoli(c))
        )

    def clifford_t(self, circuit: Circuit) -> Circuit:
        """Cached :func:`to_clifford_t` (the cached stream's gates)."""
        return self.clifford_t_stream(circuit).to_circuit()

    def clear(self) -> None:
        self._toffoli.clear()
        self._clifford_t.clear()


def expanded_t_count(circuit: Circuit) -> int:
    """T/T† gates in the fully decomposed form of ``circuit``.

    Equal to ``circuit.t_complexity()``; provided for cross-checking.
    """
    return to_clifford_t(circuit).t_count()
