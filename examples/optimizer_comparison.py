"""RQ3 in miniature: program-level optimization vs circuit optimizers.

Compiles ``length-simplified`` (Section 8's comparison workload), runs each
circuit-optimizer baseline on the unoptimized circuit, and contrasts with
Spire and with Spire + circuit optimizer.
"""

from repro import CompilerConfig, compile_source, get_optimizer, optimizer_names
from repro.benchsuite import SOURCES

DEPTH = 6


def main() -> None:
    config = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)
    src = SOURCES["length-simplified"]
    plain = compile_source(src, "length_simplified", size=DEPTH, config=config)
    spire = compile_source(src, "length_simplified", size=DEPTH, config=config,
                           optimization="spire")
    baseline = plain.t_complexity()
    print(f"length-simplified at n={DEPTH}: {baseline} T gates unoptimized\n")
    print(f"{'strategy':<34} {'T gates':>8} {'reduction':>10} {'seconds':>8}")

    row = "{:<34} {:>8} {:>9.1f}% {:>8.3f}"
    # a benchmark row's compile_seconds: type checks plus every pass
    spire_time = spire.typecheck_seconds + sum(
        record.seconds for record in spire.pass_records
    )
    print(row.format("Spire (program-level)", spire.t_complexity(),
                     100 * (1 - spire.t_complexity() / baseline), spire_time))

    for name in optimizer_names():
        optimizer = get_optimizer(name) if name != "greedy-search" else get_optimizer(name, timeout=1.0)
        result = optimizer.optimize(plain.circuit)
        print(row.format(f"{name} ({optimizer.models})"[:34], result.t_count,
                         100 * (1 - result.t_count / baseline), result.seconds))

    combined = get_optimizer("toffoli-cancel").optimize(spire.circuit)
    print(row.format("Spire + toffoli-cancel", combined.t_count,
                     100 * (1 - combined.t_count / baseline),
                     spire_time + combined.seconds))


if __name__ == "__main__":
    main()
