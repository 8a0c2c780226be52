#!/usr/bin/env python3
"""The repository benchmark: one command, checked outputs.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md beside this file for why each exists):

* ``table1-cold``       cold Table-1 compiles to an optimized circuit;
* ``serve-mixed``       a restarted ``repro serve`` under a closed loop
  of cold, prefix-replay, repeat and reject requests;
* ``fuzz-lint-compile`` admission lint, MCX compile and cost model of
  generated programs.  Not listed in ``BENCHMARK.json``: the time limit on
  all runs would leave it runs too short to hold its bounds (README.md);
  run it by hand, parent and change alternately.

Every run first builds ``repro._kernels`` from the checked-out C sources
(part of ``setup_s``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it replays the same draws layer by layer and
prints the per-layer metrics instead.  The last line of standard output is
the JSON result; the line before it records the machine and kernel path.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: workload -> (module, modules a fresh interpreter imports during set-up)
WORKLOADS = {
    "table1-cold": (
        "table1",
        ["repro.compiler.pipeline", "repro.cost.exact"],
    ),
    "fuzz-lint-compile": (
        "fuzzmix",
        [
            "repro.analysis.lint",
            "repro.compiler.pipeline",
            "repro.cost.model",
            "repro.fuzz.generator",
        ],
    ),
    "serve-mixed": ("servemix", []),
}


def declared_metrics(trace: bool):
    """name -> unit of the metrics ``BENCHMARK.json`` declares for a mode."""
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(layers: common.Layers, kernel_c: bool, machine: dict):
    values = dict(layers.totals)
    values["circopt.t_kept_ratio"] = _ratio(
        layers.get("circopt.t_out"), layers.get("circopt.t_in")
    )
    values["trace.explained_ratio"] = _ratio(
        layers.get("trace.layers_s"), layers.get("trace.compile_source_s")
    )
    values["kernels.compiled"] = 1 if kernel_c else 0
    values["machine.calib_s"] = machine["calib_start_s"]
    values["machine.steal_ticks"] = machine["steal_ticks"]
    return {
        name: (values.get(name, 0), unit)
        for name, unit in declared_metrics(trace=True).items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the clean-up that stops the server
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {common.SRC}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2

    module_name, imports = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    pinned_cpu = common.pin_to_one_cpu()
    machine = common.MachineRecord(nproc)
    host = common.HostSpeed()

    # set-up, measured several times: kernel build, then a cold import
    # (the serve workload adds its server launches instead); each part is
    # kept as its seconds and the probe taken right after it
    builds = []
    for _ in range(common.SETUP_REPEATS):
        seconds, ok = common.build_kernels()
        builds.append((seconds, host.probe(), ok))
    built = all(ok for _, _, ok in builds)

    sys.path.insert(0, str(common.SRC))
    module = importlib.import_module(module_name)
    from repro import _kernels

    kernel_c = _kernels.extension_available()
    outcome = common.Outcome()
    raw_metrics = {}  # the end-to-end times as measured, before rescaling
    if args.trace:
        layers = common.Layers()
        module.trace(args.seed, args.seconds, outcome, layers)
        record = machine.finish()
        metrics = per_layer_metrics(layers, kernel_c, record)
    else:
        if imports:
            starts = []
            for _ in builds:
                seconds = common.import_probe(imports)
                starts.append((seconds, host.probe()))
            timings = module.run(args.seed, args.seconds, outcome, host)
            quantile, peak = common.percentile, common.peak_rss_mb()
        else:
            timings, quantile, peak, starts = module.run(
                args.seed, args.seconds, outcome, host
            )
        setups = [
            (b[0] + s[0], b[0] * host.factor(b[1]) + s[0] * host.factor(s[1]))
            for b, s in zip(builds, starts)
        ]
        metrics = timings.metrics(quantile=quantile)
        metrics["setup_s"] = (common.median([scaled for _, scaled in setups]), "s")
        metrics["peak_rss_mb"] = (peak, "MB")
        metrics["ok_ratio"] = (
            1.0 - _ratio(outcome.failed, outcome.attempted),
            "ratio",
        )
        raw = timings.metrics(scaled=False, quantile=quantile)
        raw["setup_s"] = (common.median([r for r, _ in setups]), "s")
        raw_metrics = {name: value for name, (value, _unit) in raw.items()}
        record = machine.finish()

    declared = declared_metrics(bool(args.trace))
    emitted = {name: unit for name, (_value, unit) in metrics.items()}
    if emitted != declared:
        print(
            f"perfbench: metrics {emitted} differ from BENCHMARK.json {declared}",
            file=sys.stderr,
        )
        return 3
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel_path": "c" if kernel_c else "py",
        "extension_status": _kernels.extension_status() or "loaded",
        "kernels_built": built,
        "samples": outcome.attempted,
        "failed_ratio": _ratio(outcome.failed, outcome.attempted),
        "machine": record,
        "pinned_cpu": pinned_cpu,
        "host_probe_median_s": common.median(host.probes),
        "raw_metrics": raw_metrics,
    }
    for problem in outcome.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("# provenance " + json.dumps(provenance), flush=True)
    common.print_result(outcome, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
