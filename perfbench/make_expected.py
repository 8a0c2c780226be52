"""Regenerate ``table1_expected.json``, the expected outputs of ``table1-cold``.

For every point the workload can draw -- each Table-1 program at its depth
range, under ``spire+peephole`` and ``spire+rotation-merge`` -- the file
records the spire-stage MCX count and T-count and the T-count after the
gate pass.  The spire-stage counts are cross-checked against
``repro.cost.exact.exact_counts`` while the file is written.  Points at
depths 2-3 (and the unsized ``pop_front``) also record the gate-pass
T-count without spire, which ``run.py`` checks against the repository's
frozen ``tests/data/seed_tcounts.json`` on every run.

Run from the repository root, after building the kernels::

    PYTHONPATH=src python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.compiler.pipeline import compile_source  # noqa: E402
from repro.cost.exact import exact_counts  # noqa: E402

import table1  # noqa: E402


def main() -> int:
    points = {}
    total = 0.0
    for name, depth, gate_pass in table1.all_points():
        source, entry = table1.program(name)
        start = time.perf_counter()
        spire = compile_source(source, entry, depth, table1.CONFIG, "spire")
        final = compile_source(
            source, entry, depth, table1.CONFIG, f"spire+{gate_pass}"
        )
        total += time.perf_counter() - start
        counts = (spire.mcx_complexity(), spire.t_complexity())
        model = exact_counts(
            spire.core, spire.table, spire.var_types, spire.cell_bits
        )
        if model != counts:
            raise SystemExit(f"{name}@{depth}: exact model {model} != {counts}")
        row = {"mcx": counts[0], "t": counts[1], "gate_t": final.circuit.t_count()}
        if depth is None or depth <= 3:
            plain = compile_source(
                source, entry, depth, table1.CONFIG, f"none+{gate_pass}"
            )
            row["none_gate_t"] = plain.circuit.t_count()
        points[table1.point_key(name, depth, gate_pass)] = row
        print(f"{name}@{depth} {gate_pass}: {row}", file=sys.stderr)
    out = {
        "config": table1.CONFIG_FIELDS,
        "points": dict(sorted(points.items())),
    }
    (HERE / "table1_expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(points)} points, {total:.1f} s of compiles", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
