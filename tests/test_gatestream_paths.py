"""Kernel paths on real programs, and the gate packer on unshared objects.

The property tests in ``test_kernels.py`` and ``test_cancel_regression.py``
draw small random streams.  These tests run the same three-way comparisons
on the Clifford+T expansion of compiled Table-1 programs, under the
``tests/data/seed_tcounts.json`` configuration and the ``spire`` level:

* ``length@3`` — 93 wires, so the C cancel sweep works on two mask words;
* ``contains@2`` — 178 wires, three mask words (``slow``: the frozen seed
  cancel alone takes seconds on its 47k gates).

They also feed the optimizers a circuit read back from a snapshot, whose
gates are equal to the compiled ones but are all distinct objects, so the
identity-deduplicated :class:`~repro.circuit.gatestream.GateStream` gets
one row per gate instead of one per memoized builder result.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import _kernels, reference
from repro.benchsuite.programs import get_source
from repro.circopt import cancel as cancel_mod
from repro.circopt import get_optimizer
from repro.circopt import phase_poly
from repro.circopt.cancel import _cancel_to_fixpoint_pure
from repro.circuit import GateStream, snapshot
from repro.circuit.decompose import to_clifford_t
from repro.compiler.pipeline import compile_source
from repro.config import CompilerConfig

DATA = pathlib.Path(__file__).resolve().parent / "data" / "seed_tcounts.json"
CONFIG = CompilerConfig(**json.loads(DATA.read_text())["config"])

_EXPANSIONS: dict = {}


def _clifford_t(name: str, depth: int):
    key = (name, depth)
    if key not in _EXPANSIONS:
        compiled = compile_source(get_source(name), name, depth, CONFIG, "spire")
        _EXPANSIONS[key] = to_clifford_t(compiled.circuit)
    return _EXPANSIONS[key]


PROGRAMS = [
    pytest.param("length", 3, 2, id="length@3"),
    pytest.param("contains", 2, 3, id="contains@2", marks=pytest.mark.slow),
]


def _python_fold_classifier(monkeypatch):
    """Make the grouped fold run the pure-Python wire-state sweep."""
    monkeypatch.setattr(phase_poly._kernels, "fold_classify", lambda stream: None)


@pytest.mark.parametrize("name,depth,words", PROGRAMS)
def test_cancel_paths_agree_on_program(name, depth, words):
    circuit = _clifford_t(name, depth)
    assert (circuit.num_qubits + 63) // 64 == words
    gates = circuit.gates
    seed = reference.cancel_to_fixpoint_seed(list(gates), 64, 20)
    assert len(seed) < len(gates)  # the sweep has work to do
    assert _cancel_to_fixpoint_pure(list(gates), 64, 20) == seed
    compiled = _kernels.cancel_fixpoint(list(gates), 64, 20)
    if compiled is not None:  # extension built and enabled
        assert compiled == seed


@pytest.mark.parametrize("name,depth,words", PROGRAMS)
def test_fold_paths_agree_on_program(name, depth, words, monkeypatch):
    circuit = _clifford_t(name, depth)
    seed = reference.fold_phases_seed(circuit).gates
    assert phase_poly.fold_phases(circuit).gates == seed
    _python_fold_classifier(monkeypatch)
    assert phase_poly.fold_phases(circuit).gates == seed


@pytest.mark.parametrize("pure", [False, True], ids=["dispatch", "pure"])
@pytest.mark.parametrize("optimizer", ["peephole", "rotation-merge"])
def test_optimizers_on_unshared_gate_objects(optimizer, pure, monkeypatch):
    circuit = _clifford_t("length", 2)
    loaded = snapshot.load_bytes(snapshot.dump_bytes(circuit))
    assert loaded.gates == circuit.gates
    stream = GateStream.from_gates(loaded.gates)
    assert len(stream.row_gates) == len(loaded.gates)  # one row per gate
    assert len(GateStream.from_gates(circuit.gates).row_gates) < len(
        circuit.gates
    )
    expected = get_optimizer(optimizer).run(circuit).gates
    if pure:
        monkeypatch.setattr(
            cancel_mod._kernels, "cancel_fixpoint", lambda *args: None
        )
        _python_fold_classifier(monkeypatch)
    assert get_optimizer(optimizer).run(loaded).gates == expected
