"""Regression tests for the vectorized gate-stream backbone.

Two layers of protection for the packed rewrite of the optimizer and
simulator hot paths:

* **edge cases** — window-boundary hits in the cancellation scan, phase
  merges that materialize two gates, fixpoint termination at ``max_passes``;
* **properties** — on random Clifford+T circuits, every vectorized path
  (``cancel_pass``, ``cancel_to_fixpoint``, ``fold_phases``,
  ``gates_commute``, the statevector kernels) returns output identical to
  the frozen seed implementations kept in :mod:`repro.reference`.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import reference
from repro.circopt import cancel_pass, cancel_to_fixpoint, fold_phases
from repro.circopt.base import gates_commute
from repro.circuit import (
    Circuit,
    GateStream,
    cnot,
    h,
    s,
    sdg,
    swap,
    t,
    tdg,
    toffoli,
    x,
    z,
)
from repro.circuit.gatestream import CODE_KINDS
from repro.circuit.statevector import run, unitary


# ------------------------------------------------------------- edge cases
def test_window_boundary_blocks_cancellation():
    """An inverse pair further apart than the scan window must survive."""
    spacers = [x(q) for q in (1, 2, 3, 4)]  # all commute with T(0)
    gates = [t(0)] + spacers + [tdg(0)]
    # reaching T(0) from T†(0) takes 4 commuting hops, so window=4 stops
    # one short of the partner while window=5 annihilates the pair
    assert cancel_pass(gates, window=4) == gates
    assert cancel_pass(gates, window=5) == spacers
    for window in (1, 4, 5, 64):
        assert cancel_pass(gates, window) == reference.cancel_pass_seed(
            gates, window
        )


def test_phase_merge_two_gates():
    """T+S is 3 eighth-turns: the merge materializes *two* gates (S, T)."""
    merged = cancel_pass([t(0), s(0)])
    assert merged == [s(0), t(0)]
    assert merged == reference.cancel_pass_seed([t(0), s(0)])
    # ...and Z+T is 5 eighths = (Z, T)
    merged = cancel_pass([z(0), t(0)])
    assert merged == [z(0), t(0)]


def test_phase_merge_annihilates_to_identity():
    assert cancel_pass([s(0), sdg(0)]) == []
    assert cancel_pass([t(0), t(0), s(0), z(0)]) == []


def test_fixpoint_needs_multiple_passes_and_stops_at_max_passes():
    """A chain of phase merges that window=1 only resolves over two passes."""
    gates = [s(0), sdg(1), tdg(1), s(1), t(1)]
    one = cancel_pass(gates, window=1)
    two = cancel_pass(one, window=1)
    assert len(two) < len(one) < len(gates)  # each pass strictly reduces
    # max_passes=1 stops after the first sweep, before the fixpoint
    assert cancel_to_fixpoint(gates, window=1, max_passes=1) == one
    assert cancel_to_fixpoint(gates, window=1) == reference.cancel_to_fixpoint_seed(
        gates, window=1
    )


def test_fixpoint_zero_passes_is_lossless():
    """max_passes=0 must hand back the input gates unchanged (pack round-trip)."""
    gates = [t(0), h(1), toffoli(2, 0, 1), s(0), cnot(1, 0)]
    assert cancel_to_fixpoint(gates, max_passes=0) == gates


def test_gatestream_roundtrip_and_wide_masks():
    gates = [toffoli(2, 0, 1), h(3), t(0), swap(1, 3), cnot(100, 0)]
    stream = GateStream.from_gates(gates)
    # mapping every row back to its gate gives the input list
    assert [stream.row_gates[r] for r in stream.rows.tolist()] == gates
    assert stream.num_qubits == 101  # Python-int masks survive >64 wires
    assert stream.row_control_mask[stream.rows[4]] == 1 << 100


# ------------------------------------------------------------- properties
def random_clifford_t(num_qubits=4):
    qubit = st.integers(0, num_qubits - 1)
    gate = st.one_of(
        qubit.map(x),
        qubit.map(h),
        qubit.map(t),
        qubit.map(tdg),
        qubit.map(s),
        qubit.map(sdg),
        qubit.map(z),
        st.permutations(range(num_qubits)).map(lambda p: cnot(p[0], p[1])),
        st.permutations(range(num_qubits)).map(lambda p: swap(p[0], p[1])),
        st.permutations(range(num_qubits)).map(lambda p: toffoli(p[0], p[1], p[2])),
    )
    return st.lists(gate, min_size=0, max_size=24).map(
        lambda gates: Circuit(num_qubits, gates)
    )


@settings(max_examples=150, deadline=None)
@given(circ=random_clifford_t(), window=st.sampled_from([1, 2, 4, 64]))
def test_cancel_pass_matches_seed(circ, window):
    assert cancel_pass(circ.gates, window) == reference.cancel_pass_seed(
        circ.gates, window
    )


@settings(max_examples=100, deadline=None)
@given(circ=random_clifford_t(), window=st.sampled_from([1, 4, 64]))
def test_cancel_to_fixpoint_matches_seed(circ, window):
    assert cancel_to_fixpoint(circ.gates, window) == reference.cancel_to_fixpoint_seed(
        circ.gates, window
    )


@settings(max_examples=150, deadline=None)
@given(circ=random_clifford_t())
def test_fold_phases_matches_seed(circ):
    assert fold_phases(circ).gates == reference.fold_phases_seed(circ).gates


@settings(max_examples=200, deadline=None)
@given(circ=random_clifford_t(num_qubits=3))
def test_gates_commute_matches_seed(circ):
    gates = circ.gates
    for a, b in zip(gates, gates[1:]):
        assert gates_commute(a, b) == reference.gates_commute_seed(a, b)


@settings(max_examples=60, deadline=None)
@given(circ=random_clifford_t(num_qubits=3))
def test_statevector_run_matches_seed(circ):
    assert np.allclose(run(circ), reference.run_seed(circ))


@settings(max_examples=30, deadline=None)
@given(circ=random_clifford_t(num_qubits=3))
def test_unitary_matches_seed(circ):
    assert np.allclose(unitary(circ), reference.unitary_seed(circ))


@settings(max_examples=60, deadline=None)
@given(circ=random_clifford_t(num_qubits=3))
def test_run_does_not_mutate_caller_state(circ):
    state = np.zeros(1 << circ.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    before = state.copy()
    run(circ, state)
    assert np.array_equal(state, before)


@settings(max_examples=100, deadline=None)
@given(circ=random_clifford_t())
def test_gatestream_roundtrip_property(circ):
    stream = GateStream.from_gates(circ.gates, circ.num_qubits)
    assert [stream.row_gates[r] for r in stream.rows.tolist()] == circ.gates
    # the per-gate kind column is the row column gathered by row
    assert [CODE_KINDS[k] for k in stream.kinds.tolist()] == [
        g.kind for g in circ.gates
    ]
