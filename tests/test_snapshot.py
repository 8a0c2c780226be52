"""Binary GateStream snapshots: lossless round-trip and cache invalidation.

The artifact cache persists compiled circuits through
:mod:`repro.circuit.snapshot`; optimizer baselines replayed from disk must
see *exactly* the circuit the compiler produced — gate order, control
order, registers — because the Figure 5 MCX expansion is sensitive to
control order and the evaluation requires bit-identical T-counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import BenchmarkRunner
from repro.benchsuite.cache import ArtifactCache, task_key
from repro.circuit import Circuit, Gate, GateKind, Register
from repro.circuit.snapshot import SnapshotError, dump, dump_bytes, load, load_bytes
from repro.config import CompilerConfig

CFG = CompilerConfig(word_width=2, addr_width=2, heap_cells=3)


# --------------------------------------------------------------- strategies
@st.composite
def clifford_t_gates(draw, num_qubits: int):
    kind = draw(
        st.sampled_from(
            [GateKind.H, GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG,
             GateKind.Z, GateKind.MCX]
        )
    )
    target = draw(st.integers(0, num_qubits - 1))
    if kind is GateKind.MCX and draw(st.booleans()):
        control = draw(
            st.integers(0, num_qubits - 1).filter(lambda q: q != target)
        )
        return Gate(kind, (control,), (target,))
    return Gate(kind, (), (target,))


@st.composite
def mcx_gates(draw, num_qubits: int):
    """MCX gates with up to 4 controls in *arbitrary* (unsorted) order."""
    qubits = draw(
        st.lists(
            st.integers(0, num_qubits - 1),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    permuted = draw(st.permutations(qubits))
    if draw(st.booleans()):
        return Gate(GateKind.MCX, tuple(permuted[:-1]), (permuted[-1],))
    if len(permuted) >= 3 and draw(st.booleans()):
        return Gate(GateKind.SWAP, tuple(permuted[:-2]), tuple(permuted[-2:]))
    return Gate(GateKind.H, tuple(permuted[:-1]), (permuted[-1],))


def _roundtrip(circuit: Circuit) -> None:
    restored = load_bytes(dump_bytes(circuit))
    assert restored.num_qubits == circuit.num_qubits
    assert len(restored.gates) == len(circuit.gates)
    for got, expected in zip(restored.gates, circuit.gates):
        # gate-for-gate: kind, control order, target order all preserved
        assert got == expected
    assert restored.registers == circuit.registers
    assert restored == circuit


class TestRoundTrip:
    @given(st.lists(clifford_t_gates(num_qubits=9), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_clifford_t(self, gates):
        _roundtrip(Circuit(9, gates))

    @given(st.lists(mcx_gates(num_qubits=70), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_mcx_unsorted_controls(self, gates):
        # 70 wires: masks exceed 64 bits, exercising the bigint path
        _roundtrip(Circuit(70, gates))

    def test_empty_circuit(self):
        _roundtrip(Circuit(0, []))

    def test_registers_preserved(self):
        circuit = Circuit(6, [Gate(GateKind.MCX, (2, 0), (4,))])
        circuit.add_register(Register("acc", 0, 3))
        circuit.add_register(Register("mem[1]", 3, 3))
        _roundtrip(circuit)

    def test_compiled_benchmark_roundtrip(self):
        runner = BenchmarkRunner(CFG)
        for optimization in ("none", "spire"):
            compiled = runner.compile("length", 3, optimization)
            _roundtrip(compiled.circuit)
            restored = load_bytes(dump_bytes(compiled.circuit))
            assert restored.t_complexity() == compiled.t_complexity()

    def test_file_roundtrip(self, tmp_path):
        circuit = Circuit(3, [Gate(GateKind.MCX, (0, 2), (1,))])
        path = dump(circuit, tmp_path / "c.rqcs")
        assert load(path) == circuit

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            load_bytes(b"not a snapshot at all")

    def test_truncated_rejected(self):
        blob = dump_bytes(Circuit(3, [Gate(GateKind.MCX, (0,), (1,))]))
        with pytest.raises(SnapshotError):
            load_bytes(blob[:-2])

    def test_every_corruption_shape_is_snapshot_error(self):
        import json as json_mod
        import struct as struct_mod

        blob = dump_bytes(Circuit(3, [Gate(GateKind.MCX, (0,), (1,))]))
        magic_len = 6
        (header_len,) = struct_mod.unpack_from("<I", blob, magic_len)
        # the constructor trusts the header's width: a qubit id outside
        # it is corruption, caught at the loader
        header = json_mod.loads(blob[magic_len + 4 : magic_len + 4 + header_len])
        narrow = json_mod.dumps({**header, "num_qubits": 1}).encode("utf-8")
        corrupt = [
            blob[:magic_len] + struct_mod.pack("<I", len(narrow)) + narrow
            + blob[magic_len + 4 + header_len:],
            blob[:-4] + struct_mod.pack("<i", -1),  # negative qubit id
            blob[: magic_len + 2],  # truncated inside the header length
            # valid JSON header missing required keys
            blob[:magic_len] + struct_mod.pack("<I", 2) + b"{}"
            + blob[magic_len + 4 + header_len:],
            # invalid kind code in the kinds array
            blob[: magic_len + 4 + header_len] + b"\xc8"
            + blob[magic_len + 4 + header_len + 1:],
        ]
        for bad in corrupt:
            with pytest.raises(SnapshotError):
                load_bytes(bad)


class TestCacheInvalidation:
    """Changed source/config/version/optimizer → a different key (a miss)."""

    BASE = dict(
        source="fun f[n]() -> uint { let out <- 0; return out; }",
        entry="f",
        config=CFG,
        depth=3,
        optimization="none",
    )

    def test_key_is_deterministic(self):
        assert task_key(**self.BASE) == task_key(**self.BASE)

    def test_source_change_misses(self):
        changed = dict(self.BASE, source=self.BASE["source"] + " ")
        assert task_key(**self.BASE) != task_key(**changed)

    def test_config_change_misses(self):
        changed = dict(self.BASE, config=CompilerConfig(3, 2, 3))
        assert task_key(**self.BASE) != task_key(**changed)

    def test_version_change_misses(self):
        assert task_key(**self.BASE) != task_key(**self.BASE, version="0.0.0-test")

    def test_code_fingerprint_change_misses(self):
        # editing the compiler/optimizer source must invalidate, not just
        # a version bump (the version never moves during development)
        assert task_key(**self.BASE) != task_key(**self.BASE, code="0" * 64)

    def test_code_fingerprint_is_deterministic(self):
        from repro.benchsuite.cache import code_fingerprint

        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64

    def test_depth_optimization_optimizer_params_all_keyed(self):
        keys = {
            task_key(**self.BASE),
            task_key(**dict(self.BASE, depth=4)),
            task_key(**dict(self.BASE, optimization="spire")),
            task_key(**self.BASE, optimizer="peephole"),
            task_key(**self.BASE, optimizer="greedy-search"),
            task_key(
                **self.BASE, optimizer="greedy-search",
                params={"preprocess_only": True},
            ),
        }
        assert len(keys) == 6

    def test_store_and_replay(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(**self.BASE)
        assert cache.load_point(key) is None
        cache.store_point(key, {"t": 42, "cached": False})
        assert cache.load_point(key)["t"] == 42
        assert len(cache) == 1
        circuit = Circuit(3, [Gate(GateKind.MCX, (0, 2), (1,))])
        cache.store_circuit(key, circuit)
        assert cache.load_circuit(key) == circuit
        assert cache.clear() == 1
        assert cache.load_point(key) is None

    def test_version_bump_invalidates_store(self, tmp_path):
        old = ArtifactCache(tmp_path, version="1.0.0-test")
        new = ArtifactCache(tmp_path, version="2.0.0-test")
        old.store_point(old.key(**self.BASE), {"t": 1})
        assert new.load_point(new.key(**self.BASE)) is None

    def test_corrupt_circuit_blob_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(**self.BASE)
        circuit = Circuit(3, [Gate(GateKind.MCX, (0,), (1,))])
        cache.store_circuit(key, circuit)
        path = cache._entry_dir(key) / "circuit.rqcs"
        path.write_bytes(path.read_bytes()[:-3])
        assert cache.load_circuit(key) is None
