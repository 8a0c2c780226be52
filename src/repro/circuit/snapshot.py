"""Compact binary snapshots of circuits (the on-disk GateStream format).

The evaluation harness caches compiled circuits on disk so that a
(benchmark, depth, optimization) point is expanded to gates exactly once
per source/config/version.  A snapshot stores the :class:`GateStream`
view of a circuit — the ``kinds``, ``phase_eighths`` and ``num_controls``
columns verbatim, and the per-gate qubit *lists* (controls first, original
order, read once per stream row) from which the gates are rebuilt on
load.  Qubit lists rather than bitmasks are what make the format
lossless: a mask is a set, and the Figure 5 MCX expansion is sensitive to
control order, so canonicalizing order on disk would change downstream
optimizer output gate-for-gate.

Layout (all integers little-endian)::

    magic   b"RQCS1\\0"
    u32     header length
    bytes   JSON header: {"num_qubits", "num_gates", "qubit_words",
                          "registers": [[name, offset, width], ...]}
    u8[n]   kinds          (GateStream KIND_CODES)
    i8[n]   phase_eighths  (GateStream convention; -1 for non-phase gates)
    i32[n]  num_controls
    u8[n]   num_targets    (1, or 2 for SWAP)
    i32[m]  qubits         (per gate: controls then targets, original order)

A qubit id outside the header's ``0 .. num_qubits-1`` is corruption: the
:class:`~repro.circuit.circuit.Circuit` constructor trusts that width.

``load_bytes(dump_bytes(c)) == c`` holds gate-for-gate, registers and
``num_qubits`` included, for every circuit either gate level can produce;
the property test in ``tests/test_snapshot.py`` checks this on random
Clifford+T and MCX circuits with shuffled control order.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from pathlib import Path
from typing import List, Union

import numpy as np

from ..errors import ReproError
from .circuit import Circuit, Register
from .gates import Gate
from .gatestream import CODE_KINDS, GateStream

MAGIC = b"RQCS1\x00"

#: Bump when the layout changes; part of the artifact-cache key.
FORMAT_VERSION = 1


class SnapshotError(ReproError):
    """A snapshot blob is truncated, corrupt, or from an unknown format."""


def dump_bytes(circuit: Circuit) -> bytes:
    """Serialize ``circuit`` to a compact binary snapshot."""
    stream = GateStream.from_gates(circuit.gates, circuit.num_qubits)
    n = len(stream)
    num_targets = np.where(stream.tgt1 >= 0, 2, 1).astype(np.uint8)
    row_qubits = [gate.qubits for gate in stream.table.gates.tolist()]
    qubits = np.fromiter(
        chain.from_iterable(map(row_qubits.__getitem__, stream.rows.tolist())),
        dtype=np.int32,
    )
    header = json.dumps(
        {
            "num_qubits": circuit.num_qubits,
            "num_gates": n,
            "qubit_words": len(qubits),
            "registers": [
                [r.name, r.offset, r.width] for r in circuit.registers.values()
            ],
        },
        sort_keys=True,
    ).encode("utf-8")
    return b"".join(
        (
            MAGIC,
            struct.pack("<I", len(header)),
            header,
            stream.kinds.tobytes(),
            stream.phase_eighths.tobytes(),
            stream.num_controls.astype("<i4").tobytes(),
            num_targets.tobytes(),
            qubits.astype("<i4").tobytes(),
        )
    )


def load_bytes(data: bytes) -> Circuit:
    """Reconstruct the circuit stored by :func:`dump_bytes` (lossless).

    Every corruption shape — truncation, a mangled header, an invalid
    kind code or qubit list — surfaces as :class:`SnapshotError`, which
    the artifact cache treats as a miss (recompile) rather than a crash.
    """
    try:
        return _load_bytes(data)
    except SnapshotError:
        raise
    except Exception as err:
        raise SnapshotError(f"corrupt snapshot: {err}") from None


def _load_bytes(data: bytes) -> Circuit:
    if not data.startswith(MAGIC):
        raise SnapshotError("not a circuit snapshot (bad magic)")
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SnapshotError(f"corrupt snapshot header: {err}") from None
    offset += header_len
    n = header["num_gates"]
    qubit_words = header["qubit_words"]
    expected = offset + n * (1 + 1 + 4 + 1) + qubit_words * 4
    if len(data) != expected:
        raise SnapshotError(
            f"truncated snapshot: {len(data)} bytes, expected {expected}"
        )
    kinds = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset)
    offset += n
    # phase_eighths is re-derivable from kinds and num_controls; stored
    # for stream fidelity and skipped on load.
    offset += n
    num_controls = np.frombuffer(data, dtype="<i4", count=n, offset=offset)
    offset += 4 * n
    num_targets = np.frombuffer(data, dtype=np.uint8, count=n, offset=offset)
    offset += n
    qubits = np.frombuffer(data, dtype="<i4", count=qubit_words, offset=offset)
    num_qubits = header["num_qubits"]
    if qubit_words and (qubits.min() < 0 or qubits.max() >= num_qubits):
        raise SnapshotError(
            f"qubit ids {qubits.min()}..{qubits.max()} fall outside the "
            f"header's {num_qubits} qubits"
        )
    gates: List[Gate] = []
    pos = 0
    qubit_list = qubits.tolist()
    for i in range(n):
        kind = CODE_KINDS[kinds[i]]
        nc = num_controls[i]
        nt = num_targets[i]
        controls = tuple(qubit_list[pos : pos + nc])
        targets = tuple(qubit_list[pos + nc : pos + nc + nt])
        pos += nc + nt
        gates.append(Gate(kind, controls, targets))
    registers = {
        name: Register(name, reg_offset, width)
        for name, reg_offset, width in header["registers"]
    }
    return Circuit(num_qubits, gates, registers)


def dump(circuit: Circuit, path: Union[str, Path]) -> Path:
    """Write a snapshot file; returns the path."""
    path = Path(path)
    path.write_bytes(dump_bytes(circuit))
    return path


def load(path: Union[str, Path]) -> Circuit:
    """Read a snapshot file written by :func:`dump`."""
    return load_bytes(Path(path).read_bytes())
