"""Optional compiled kernels with a pure-Python fallback.

This package holds the plain-C implementations of the two innermost
optimizer scans — the cancellation stack sweep run to fixpoint
(``cancel.c``) and the phase-fold parity classifier (``fold.c``) — plus
the ctypes loader.  Both kernels read the integer columns of one
:class:`~repro.circuit.gatestream.GateStream` as they are: the cancel
kernel takes the stream's row ids, its table's row columns, mask words
and merge rows, and returns surviving row ids over the same table; the
fold classifier takes the per-gate columns.  Nothing is packed here.
Selection happens once at import time:

* ``REPRO_NO_EXT=1`` in the environment disables the extension outright.
* Otherwise, if ``_cancel_kernel.so`` exists next to this file (built by
  ``python -m repro._kernels.build``) and reports the expected ABI, it
  is used.  Any load failure falls back to pure Python, and the reason
  is reported by :func:`extension_status` (``repro serve`` exposes
  availability as ``compiled_kernels`` on ``/healthz``).

Callers never depend on the extension being present:
:func:`cancel_fixpoint` returns ``None`` whenever the compiled path is
unavailable or declines the input, and ``repro.circopt.cancel`` then
runs its own vectorized pure-Python sweep.  Both paths are exercised by
``tests/test_kernels.py`` and by the CI ``kernels`` job; the CI
``kernels-sanitized`` job runs them against an AddressSanitizer and
UBSan build of the same sources.
"""

from __future__ import annotations

import ctypes
import os
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.gatestream import GateStream

#: ABI stamp expected from the shared object; must match
#: ``REPRO_KERNELS_ABI`` in ``cancel.c``.  A stale .so from an older
#: checkout is ignored rather than trusted.
KERNELS_ABI = 1

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_unavailable_reason = "not loaded yet"


def _library_path() -> str:
    from .build import library_path

    return str(library_path())


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_kernels_abi.restype = ctypes.c_int64
    lib.repro_kernels_abi.argtypes = []
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    lib.repro_cancel_fixpoint.restype = i64
    lib.repro_cancel_fixpoint.argtypes = [
        i64, p_i64,          # n, gate_rows
        i64,                 # words
        p_u8, p_u8, p_i8,    # kinds, invk, ph
        p_i64, p_i32,        # ords, tgt
        p_u64, p_u64, p_u64,  # cm, tm, qm
        i64, p_i64,          # num_qubits, merge_rows
        i64, i64,            # window, max_passes
        p_i64,               # out_rows
    ]
    lib.repro_fold_classify.restype = i64
    lib.repro_fold_classify.argtypes = [
        i64,                 # n
        p_u8, p_i32,         # kinds, num_controls
        p_i32, p_i32, p_i32,  # ctrl0, tgt0, tgt1
        p_i8,                # phase eighths
        i64,                 # num_qubits
        p_i64,               # out_keys
    ]
    return lib


def _try_load() -> Optional[ctypes.CDLL]:
    global _unavailable_reason
    if os.environ.get("REPRO_NO_EXT") == "1":
        _unavailable_reason = "disabled by REPRO_NO_EXT=1"
        return None
    path = _library_path()
    if not os.path.exists(path):
        _unavailable_reason = (
            f"{path} not built (run `python -m repro._kernels.build`)"
        )
        return None
    try:
        lib = ctypes.CDLL(path)
        got = lib.repro_kernels_abi()
    except (OSError, AttributeError) as exc:
        _unavailable_reason = f"failed to load {path}: {exc}"
        return None
    if got != KERNELS_ABI:
        _unavailable_reason = (
            f"{path} has ABI {got}, expected {KERNELS_ABI}; rebuild it"
        )
        return None
    _unavailable_reason = ""
    return _configure(lib)


def _get_lib() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted
    if not _load_attempted:
        _lib = _try_load()
        _load_attempted = True
    return _lib


def reload_extension() -> bool:
    """Re-attempt loading the extension (used by tests after a build)."""
    global _lib, _load_attempted
    _load_attempted = False
    _lib = None
    return _get_lib() is not None


def extension_available() -> bool:
    """True when the compiled cancel kernel is loaded and usable."""
    return _get_lib() is not None


def extension_status() -> str:
    """Human-readable availability: empty string means available."""
    _get_lib()
    return _unavailable_reason


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def cancel_fixpoint(
    stream: "GateStream", window: int, max_passes: int
) -> Optional[np.ndarray]:
    """Run the cancel fixpoint through the compiled kernel.

    Returns the surviving row ids over ``stream.table``, or ``None`` when
    the extension is unavailable or declines the input (the caller then
    falls back to the pure-Python sweep).  Merged phase gates are the
    table's phase rows, addressed through its ``merge_rows``.
    """
    lib = _get_lib()
    if lib is None:
        return None
    n = len(stream.rows)
    if n == 0 or max_passes <= 0:
        return None
    from ..circuit.gatestream import INVERSE_CODES

    table = stream.table
    cm, tm, qm = table.mask_words()
    kinds = table.kinds
    invk = np.array(INVERSE_CODES, dtype=np.uint8)[kinds]
    rows = np.ascontiguousarray(stream.rows, dtype=np.int64)
    out_rows = np.empty(n, dtype=np.int64)
    res = lib.repro_cancel_fixpoint(
        n,
        _ptr(rows, ctypes.c_int64),
        cm.shape[1],
        _ptr(kinds, ctypes.c_uint8),
        _ptr(invk, ctypes.c_uint8),
        _ptr(table.phase_eighths, ctypes.c_int8),
        _ptr(table.ords, ctypes.c_int64),
        _ptr(table.tgt0, ctypes.c_int32),
        _ptr(cm, ctypes.c_uint64),
        _ptr(tm, ctypes.c_uint64),
        _ptr(qm, ctypes.c_uint64),
        table.num_qubits,
        _ptr(table.merge_rows, ctypes.c_int64),
        window,
        max_passes,
        _ptr(out_rows, ctypes.c_int64),
    )
    if res < 0:
        return None
    return out_rows[:res]


def fold_classify(stream: "GateStream") -> Optional[np.ndarray]:
    """Classify phase gates by parity through the compiled kernel.

    Returns an int64 array with one entry per uncontrolled phase gate in
    stream order — ``parity_id * 2 + affine_const``, or ``-1`` when the
    parity is empty — or ``None`` when the extension is unavailable or
    the stream contains gates the packed columns cannot describe (the
    caller then runs the pure-Python wire-state sweep).  Every qubit is
    inside the table's width: the packer checks that.
    """
    lib = _get_lib()
    if lib is None:
        return None
    n = len(stream.rows)
    eighths = stream.phase_eighths
    phase_count = int(np.count_nonzero(eighths >= 0))
    if n == 0 or phase_count == 0:
        return np.empty(0, dtype=np.int64)
    # the gathered columns are fresh arrays: hold them for the call
    kinds, num_controls = stream.kinds, stream.num_controls
    ctrl0, tgt0, tgt1 = stream.ctrl0, stream.tgt0, stream.tgt1
    out_keys = np.empty(phase_count, dtype=np.int64)
    res = lib.repro_fold_classify(
        n,
        _ptr(kinds, ctypes.c_uint8),
        _ptr(num_controls, ctypes.c_int32),
        _ptr(ctrl0, ctypes.c_int32),
        _ptr(tgt0, ctypes.c_int32),
        _ptr(tgt1, ctypes.c_int32),
        _ptr(eighths, ctypes.c_int8),
        stream.num_qubits,
        _ptr(out_keys, ctypes.c_int64),
    )
    if res < 0:
        return None
    return out_keys
