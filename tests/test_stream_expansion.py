"""The row-id Clifford+T expansion and the stream-chained gate passes.

The Figure 6 expansion emits a :class:`~repro.circuit.gatestream.GateStream`
(template rows gathered by numpy) instead of a ``Gate`` list, and the
gate passes hand row ids from sweep to sweep over one table.  These tests
pin both against the frozen per-gate code in :mod:`repro.reference`:

* the expansion's gates equal ``reference.expand_toffolis_seed`` on every
  Table-1 program at depth 2 and on random MCX / controlled-H / SWAP
  circuits, including circuits wider than 64 wires;
* ``peephole``, ``rotation-merge``, ``zx-like`` and ``toffoli-cancel``
  equal their ``reference.*_seed`` pipelines, with the compiled kernels
  (when built) and with the pure-Python sweeps forced;
* the declared width is enforced where it is first needed: the packer
  rejects a gate outside it, and ``Circuit.add_register`` does not widen.
"""

from __future__ import annotations

import json
import pathlib
from contextlib import ExitStack
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import _kernels, reference
from repro.benchsuite.programs import ENTRIES, SOURCES, is_unsized
from repro.circopt import fold_phases, get_optimizer
from repro.circopt.cancel import cancel_stream
from repro.circopt.phase_poly import fold_stream
from repro.circuit import Circuit, GateStream, Register, cnot, t, to_toffoli
from repro.circuit.decompose import (
    DecompositionCache,
    clifford_t_stream,
    expand_stream,
    expand_toffolis,
    to_clifford_t,
)
from repro.circuit.gates import Gate, GateKind
from repro.compiler.pipeline import compile_source
from repro.config import CompilerConfig

DATA = pathlib.Path(__file__).resolve().parent / "data" / "seed_tcounts.json"
CONFIG = CompilerConfig(**json.loads(DATA.read_text())["config"])

SEEDS = {
    "peephole": reference.peephole_seed,
    "rotation-merge": reference.rotation_merge_seed,
    "zx-like": reference.zx_like_seed,
    "toffoli-cancel": reference.toffoli_cancel_seed,
}

_COMPILED: dict = {}


def _compiled(name: str) -> Circuit:
    if name not in _COMPILED:
        depth = None if is_unsized(name) else 2
        _COMPILED[name] = compile_source(
            SOURCES[name], ENTRIES[name], depth, CONFIG, "spire"
        ).circuit
    return _COMPILED[name]


def _forced_pure() -> ExitStack:
    """Route every sweep through the pure-Python fallbacks."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(_kernels, "cancel_fixpoint", lambda *a: None))
    stack.enter_context(mock.patch.object(_kernels, "fold_classify", lambda s: None))
    return stack


def _same_circuit(got: Circuit, want: Circuit) -> None:
    assert got.gates == want.gates
    assert got.num_qubits == want.num_qubits
    assert got.registers == want.registers


# ----------------------------------------------------------- the expansion
@pytest.mark.parametrize("name", list(SOURCES))
def test_expansion_matches_seed_on_table1(name):
    circuit = _compiled(name)
    toffoli_level = to_toffoli(circuit)
    seed = reference.expand_toffolis_seed(toffoli_level)
    _same_circuit(expand_toffolis(toffoli_level), seed)
    _same_circuit(to_clifford_t(circuit), seed)
    _same_circuit(clifford_t_stream(circuit).to_circuit(), seed)
    cache = DecompositionCache()
    _same_circuit(cache.clifford_t(circuit), seed)
    assert cache.clifford_t_stream(circuit) is cache.clifford_t_stream(circuit)
    assert cache.clifford_t_stream(circuit).gates == seed.gates


def _mcx_level(num_qubits: int):
    """MCX-level gates: MCX (0-4 controls), controlled H, (controlled) SWAP."""
    qubits = st.lists(
        st.integers(0, num_qubits - 1),
        min_size=min(num_qubits, 2),
        max_size=min(num_qubits, 6),
        unique=True,
    )

    def build(kind_qubits):
        kind, qs = kind_qubits
        if kind is GateKind.SWAP:
            if len(qs) < 2:
                return Gate(GateKind.MCX, (), (qs[0],))
            return Gate(GateKind.SWAP, tuple(qs[2:4]), (qs[0], qs[1]))
        return Gate(kind, tuple(qs[1:5]), (qs[0],))

    gate = st.tuples(
        st.sampled_from([GateKind.MCX, GateKind.H, GateKind.SWAP]), qubits
    ).map(build)
    return st.lists(gate, max_size=20).map(lambda gates: Circuit(num_qubits, gates))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 3, 5, 8, 70, 130]))
def test_expansion_matches_seed_on_random_circuits(data, num_qubits):
    circuit = data.draw(_mcx_level(num_qubits))
    toffoli_level = to_toffoli(circuit)
    seed = reference.expand_toffolis_seed(toffoli_level)
    _same_circuit(to_clifford_t(circuit), seed)
    # expanding the rows a Toffoli-level sweep left: one table, reused
    stream = GateStream.from_circuit(toffoli_level)
    reduced = cancel_stream(stream, 64)
    assert reduced.table is stream.table
    want = reference.expand_toffolis_seed(reduced.to_circuit())
    _same_circuit(expand_stream(reduced).to_circuit(), want)


# ------------------------------------------------ stream-chained optimizers
@pytest.mark.parametrize("pure", [False, True], ids=["dispatch", "pure"])
@pytest.mark.parametrize("optimizer", sorted(SEEDS))
@pytest.mark.parametrize("name", ["length", "sum"])
def test_optimizers_match_seed_on_programs(name, optimizer, pure):
    circuit = _compiled(name)
    assert circuit.num_qubits > 64  # two mask words in the C sweep
    key = (name, optimizer)
    if key not in _COMPILED:
        _COMPILED[key] = SEEDS[optimizer](circuit)
    with _forced_pure() if pure else ExitStack():
        _same_circuit(get_optimizer(optimizer).run(circuit), _COMPILED[key])


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([3, 5, 70]), st.booleans())
def test_optimizers_match_seed_on_random_circuits(data, num_qubits, pure):
    circuit = data.draw(_mcx_level(num_qubits))
    optimizer = data.draw(st.sampled_from(sorted(SEEDS)))
    want = SEEDS[optimizer](circuit)
    with _forced_pure() if pure else ExitStack():
        _same_circuit(get_optimizer(optimizer).run(circuit), want)


def test_sweeps_share_one_table():
    """fold, cancel, fold: three sweeps, one packed table."""
    stream = clifford_t_stream(_compiled("length"))
    folded = fold_stream(stream)
    swept = cancel_stream(folded, 64)
    assert folded.table is stream.table and swept.table is stream.table
    assert fold_stream(swept).gates == get_optimizer("rotation-merge").run(
        _compiled("length")
    ).gates


# --------------------------------------------------------- declared width
@pytest.mark.parametrize("pure", [False, True], ids=["dispatch", "pure"])
def test_packer_rejects_gate_outside_declared_width(pure):
    circuit = Circuit(2, [t(0), cnot(0, 3), t(3)])
    with _forced_pure() if pure else ExitStack():
        with pytest.raises(ValueError, match=r"qubit 3.*width of 2"):
            fold_phases(circuit)
        with pytest.raises(ValueError, match=r"qubit 3.*width of 2"):
            GateStream.from_gates(circuit.gates, circuit.num_qubits)
    # without a declared width the stream is as wide as its gates
    assert GateStream.from_gates(circuit.gates).num_qubits == 4


def test_add_register_does_not_widen():
    circuit = Circuit(3)
    circuit.add_register(Register("acc", 0, 3))
    with pytest.raises(ValueError, match=r"flag\[3:4\].*width of 3"):
        circuit.add_register(Register("flag", 3, 1))
    assert circuit.num_qubits == 3
    assert list(circuit.registers) == ["acc"]
