"""Circuit container and gate-count reports.

A :class:`Circuit` is an ordered list of :class:`~repro.circuit.gates.Gate`
applications over ``num_qubits`` wires, with an optional mapping from named
registers (program variables, memory cells, scratch space) to qubit ranges.

The width is a contract: the producer declares it; the constructor trusts
it; outside input (snapshots, ``.qc`` files) is checked at the loader.
Nothing widens a circuit afterwards: :meth:`Circuit.add_register` refuses a
register past the width, and the gate packer
(:meth:`~repro.circuit.gatestream.GateStream.from_gates`) a gate past it.

The two complexity metrics of the paper are computed here:

* :meth:`Circuit.mcx_complexity` — the number of gates when the circuit is
  expressed in the idealized, arbitrarily-controllable gate set (Section 5):
  every MCX and every (controlled) H counts as one gate.
* :meth:`Circuit.t_complexity` — the number of T gates when the circuit is
  expressed in Clifford+T, using the decompositions of Figures 5 and 6.
  For an MCX-level circuit this is computed analytically (without
  materializing the decomposition); for a Clifford+T circuit it simply counts
  ``T``/``T†`` gates.  The two agree, which the test suite verifies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Tuple

from .gates import Gate, GateKind


@dataclass(frozen=True)
class Register:
    """A named contiguous range of qubits ``offset .. offset+width-1``."""

    name: str
    offset: int
    width: int

    @property
    def qubits(self) -> Tuple[int, ...]:
        """Qubit indices of the register, least-significant bit first."""
        return tuple(range(self.offset, self.offset + self.width))

    def bit(self, i: int) -> int:
        """Qubit index of bit ``i`` (0 = least significant)."""
        if not 0 <= i < self.width:
            raise IndexError(f"bit {i} out of range for {self}")
        return self.offset + i

    def __str__(self) -> str:
        return f"{self.name}[{self.offset}:{self.offset + self.width}]"


class Circuit:
    """An ordered sequence of gates over a declared number of qubits.

    ``num_qubits`` is the width its producer declares.  Nothing widens a
    circuit: the constructor never scans the gates, and
    :meth:`add_register` refuses a register that does not fit.
    """

    def __init__(
        self,
        num_qubits: int,
        gates: Iterable[Gate] = (),
        registers: Dict[str, Register] | None = None,
    ) -> None:
        self.num_qubits = num_qubits
        self.gates: List[Gate] = list(gates)
        self.registers: Dict[str, Register] = dict(registers or {})

    # ----------------------------------------------------------- construction
    def add_register(self, register: Register) -> Register:
        """Record a named register; returns it for convenience.

        Raises ``ValueError`` when the register reaches past the declared
        width.
        """
        end = register.offset + register.width
        if end > self.num_qubits:
            raise ValueError(
                f"register {register} ends at qubit {end - 1}, outside the "
                f"declared width of {self.num_qubits} qubits"
            )
        self.registers[register.name] = register
        return register

    def copy(self) -> "Circuit":
        """A shallow copy (gates are immutable)."""
        return Circuit(self.num_qubits, list(self.gates), dict(self.registers))

    def inverse(self) -> "Circuit":
        """The inverse circuit: reversed gate order, each gate inverted."""
        return Circuit(
            self.num_qubits,
            [gate.inverse() for gate in reversed(self.gates)],
            dict(self.registers),
        )

    # ------------------------------------------------------------- iteration
    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self.gates)

    def __getitem__(self, index: int) -> Gate:
        return self.gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.gates == other.gates

    # --------------------------------------------------------------- metrics
    def mcx_complexity(self) -> int:
        """Gate count in the idealized arbitrarily-controllable gate set.

        Only meaningful for MCX-level circuits; every gate counts once.
        """
        return len(self.gates)

    def t_complexity(self) -> int:
        """Number of T gates under the Clifford+T decomposition."""
        return sum(gate.t_cost() for gate in self.gates)

    def t_count(self) -> int:
        """Literal count of T/T† gates (for circuits already in Clifford+T)."""
        return sum(1 for g in self.gates if g.kind in (GateKind.T, GateKind.TDG))

    def gate_histogram(self) -> Counter:
        """Histogram keyed by (kind, number of controls)."""
        return Counter((g.kind, len(g.controls)) for g in self.gates)

    def count_kind(self, kind: GateKind, num_controls: int | None = None) -> int:
        """Count gates of one kind, optionally restricted to a control count."""
        return sum(
            1
            for g in self.gates
            if g.kind is kind
            and (num_controls is None or len(g.controls) == num_controls)
        )

    def is_clifford_t(self) -> bool:
        """True when every gate lies in the Clifford+T set."""
        return all(gate.is_clifford_t() for gate in self.gates)

    def is_mcx_level(self) -> bool:
        """True when every gate is an MCX or a (controlled) Hadamard."""
        return all(gate.kind in (GateKind.MCX, GateKind.H) for gate in self.gates)

    def max_controls(self) -> int:
        """Largest number of controls on any gate (0 for an empty circuit)."""
        return max((len(g.controls) for g in self.gates), default=0)

    def summary(self) -> "GateCounts":
        """A compact numeric report of this circuit's complexity."""
        return GateCounts(
            num_qubits=self.num_qubits,
            num_gates=len(self.gates),
            mcx_complexity=self.mcx_complexity(),
            t_complexity=self.t_complexity(),
            cnot=self.count_kind(GateKind.MCX, 1),
            h=self.count_kind(GateKind.H),
            t=self.count_kind(GateKind.T) + self.count_kind(GateKind.TDG),
        )

    def __repr__(self) -> str:
        return f"<Circuit {self.num_qubits} qubits, {len(self.gates)} gates>"

    def draw(self, max_gates: int = 40) -> str:
        """A small textual rendering, one gate per line (for debugging)."""
        lines = [str(g) for g in self.gates[:max_gates]]
        if len(self.gates) > max_gates:
            lines.append(f"... ({len(self.gates) - max_gates} more)")
        return "\n".join(lines)


@dataclass(frozen=True)
class GateCounts:
    """Compact complexity report for a circuit."""

    num_qubits: int
    num_gates: int
    mcx_complexity: int
    t_complexity: int
    cnot: int = 0
    h: int = 0
    t: int = 0
    extra: dict = field(default_factory=dict, compare=False)
