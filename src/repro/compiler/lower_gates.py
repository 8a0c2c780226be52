"""Gate-level lowering: abstract instructions to concrete MCX circuits.

This is Tower's final stage (Section 7): "the compiler lowers the abstract
circuit to a concrete circuit by instantiating each arithmetic, logical,
memory, and data movement instruction as an explicit sequence of MCX gates."

Every instruction expands to a ``compute ; payload ; uncompute`` shape where
the compute part builds scratch values (carries, borrow chains, equality
flags) that the mirrored uncompute returns to |0⟩, so scratch qubits are
shared across instructions.  The instruction's control qubits are appended
to **every** emitted gate — the uniform rule of Figure 21 that the cost
model of Section 5 prices.

Memory (``*p <-> x``) expands the qRAM gate of Appendix B.2 over a bounded
heap: for each address, an equality flag conditions a register/cell swap;
address 0 (null) is skipped, making null dereference a no-op (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..circuit.circuit import Circuit, Register
from ..circuit.gates import Gate, cnot, h, mcx, toffoli, x
from ..config import CompilerConfig
from ..errors import LoweringError
from .abstract import (
    AddInto,
    AndBit,
    EqConst,
    EqReg,
    HadamardInstr,
    Instr,
    LtInto,
    MemSwapInstr,
    MulInto,
    NotBit,
    Operand,
    OrBit,
    SubInto,
    SwapReg,
    XorConst,
    XorReg,
)
from .lower_ir import AbstractProgram, fold_binop

#: A bit-level operand: a qubit or a classical constant bit.
Bit = Tuple[str, int]  # ("q", qubit) or ("c", 0/1)


class ScratchPool:
    """Allocates scratch registers above the program's register region."""

    def __init__(self, base: int) -> None:
        self.base = base
        self._next = base
        self._free: Dict[int, List[int]] = {}
        self.high_water = base

    def acquire(self, width: int) -> Register:
        if width <= 0:
            raise LoweringError("scratch width must be positive")
        if self._free.get(width):
            offset = self._free[width].pop()
        else:
            offset = self._next
            self._next += width
            self.high_water = max(self.high_water, self._next)
        return Register("%scratch", offset, width)

    def release(self, reg: Register) -> None:
        self._free.setdefault(reg.width, []).append(reg.offset)


@dataclass(frozen=True)
class MemoryLayout:
    """Qubit placement of the heap: cells 1..heap_cells, each cell_bits wide."""

    heap_cells: int
    cell_bits: int
    base: int = 0

    def cell_register(self, addr: int) -> Register:
        if not 1 <= addr <= self.heap_cells:
            raise LoweringError(f"address {addr} outside heap")
        return Register(
            f"mem[{addr}]", self.base + (addr - 1) * self.cell_bits, self.cell_bits
        )

    @property
    def qubits(self) -> int:
        return self.heap_cells * self.cell_bits


def operand_bits(op: Operand, width: int) -> List[Bit]:
    """An operand as a list of bit-level operands (LSB first)."""
    if isinstance(op, Register):
        if op.width < width:
            raise LoweringError(f"operand {op} narrower than {width} bits")
        return [("q", op.bit(i)) for i in range(width)]
    return [("c", (op >> i) & 1) for i in range(width)]


def _same_register(a: Operand, b: Operand) -> bool:
    return (
        isinstance(a, Register)
        and isinstance(b, Register)
        and a.offset == b.offset
        and a.width == b.width
    )


# ------------------------------------------------------------ bit emitters
def emit_xorn(out: List[Gate], target: int, bits: List[Bit]) -> None:
    """``target ^= parity(bits)`` with duplicate-qubit cancellation."""
    const_parity = 0
    counts: Dict[int, int] = {}
    for kind, value in bits:
        if kind == "c":
            const_parity ^= value
        else:
            counts[value] = counts.get(value, 0) + 1
    for qubit, count in counts.items():
        if count % 2:
            out.append(cnot(qubit, target))
    if const_parity:
        out.append(x(target))


def emit_maj(out: List[Gate], target: int, a: Bit, b: Bit, c: Bit) -> None:
    """``target ^= MAJ(a, b, c)`` (= ab XOR ac XOR bc)."""
    ops = [a, b, c]
    # duplicate qubits: MAJ(x, x, z) = x for any z.
    for i in range(3):
        for j in range(i + 1, 3):
            if ops[i][0] == "q" and ops[i] == ops[j]:
                emit_xorn(out, target, [ops[i]])
                return
    qs = [op for op in ops if op[0] == "q"]
    cs = [op[1] for op in ops if op[0] == "c"]
    if len(cs) == 0:
        out.append(toffoli(qs[0][1], qs[1][1], target))
        out.append(toffoli(qs[0][1], qs[2][1], target))
        out.append(toffoli(qs[1][1], qs[2][1], target))
    elif len(cs) == 1:
        u, v = qs[0][1], qs[1][1]
        out.append(toffoli(u, v, target))
        if cs[0]:
            out.append(cnot(u, target))
            out.append(cnot(v, target))
    elif len(cs) == 2:
        if cs[0] & cs[1]:
            out.append(x(target))
        if cs[0] ^ cs[1]:
            out.append(cnot(qs[0][1], target))
    else:
        if cs[0] + cs[1] + cs[2] >= 2:
            out.append(x(target))


# ----------------------------------------------------- instruction expanders
class InstructionExpander:
    """Expands one abstract instruction at a time, sharing a scratch pool."""

    def __init__(
        self,
        scratch: ScratchPool,
        memory: Optional[MemoryLayout],
        word_width: int,
    ) -> None:
        self.scratch = scratch
        self.memory = memory
        self.word_width = word_width

    # ------------------------------------------------------------- dispatch
    def expand(self, instr: Instr) -> List[Gate]:
        gates = self._expand_uncontrolled(instr)
        if instr.controls:
            gates = [g.with_extra_controls(instr.controls) for g in gates]
        return gates

    def _expand_uncontrolled(self, instr: Instr) -> List[Gate]:
        if isinstance(instr, XorConst):
            return self._xor_const(instr.dst, instr.value)
        if isinstance(instr, XorReg):
            return self._xor_reg(instr.dst, instr.src)
        if isinstance(instr, NotBit):
            return [cnot(instr.src.bit(0), instr.dst.bit(0)), x(instr.dst.bit(0))]
        if isinstance(instr, AndBit):
            return self._and_or(instr.dst, instr.a, instr.b, is_or=False)
        if isinstance(instr, OrBit):
            return self._and_or(instr.dst, instr.a, instr.b, is_or=True)
        if isinstance(instr, EqConst):
            return self._eq_const(instr.dst, instr.src, instr.value, instr.negate)
        if isinstance(instr, EqReg):
            return self._eq_reg(instr.dst, instr.a, instr.b, instr.negate)
        if isinstance(instr, LtInto):
            return self._lt(instr.dst, instr.a, instr.b)
        if isinstance(instr, AddInto):
            return self._add_sub(instr.dst, instr.a, instr.b, subtract=False)
        if isinstance(instr, SubInto):
            return self._add_sub(instr.dst, instr.a, instr.b, subtract=True)
        if isinstance(instr, MulInto):
            return self._mul(instr.dst, instr.a, instr.b)
        if isinstance(instr, SwapReg):
            return self._swap(instr.a, instr.b)
        if isinstance(instr, MemSwapInstr):
            return self._mem_swap(instr.addr, instr.data)
        if isinstance(instr, HadamardInstr):
            return [h(instr.bit.bit(0))]
        raise LoweringError(f"unknown instruction {instr!r}")  # pragma: no cover

    # ------------------------------------------------------------ primitives
    def _xor_const(self, dst: Register, value: int) -> List[Gate]:
        return [x(dst.bit(i)) for i in range(dst.width) if (value >> i) & 1]

    def _xor_reg(self, dst: Register, src: Register) -> List[Gate]:
        if src.width != dst.width:
            raise LoweringError(f"xor width mismatch: {dst} ^= {src}")
        if src.offset == dst.offset:
            raise LoweringError(f"self-xor of register {dst}")
        return [cnot(src.bit(i), dst.bit(i)) for i in range(dst.width)]

    def _and_or(
        self, dst: Register, a: Operand, b: Operand, is_or: bool
    ) -> List[Gate]:
        target = dst.bit(0)
        abit = operand_bits(a, 1)[0]
        bbit = operand_bits(b, 1)[0]
        if abit[0] == "c" and bbit[0] == "c":
            value = (abit[1] | bbit[1]) if is_or else (abit[1] & bbit[1])
            return [x(target)] if value else []
        if abit[0] == "c" or bbit[0] == "c":
            const = abit[1] if abit[0] == "c" else bbit[1]
            qubit = bbit[1] if abit[0] == "c" else abit[1]
            if is_or:
                return [x(target)] if const else [cnot(qubit, target)]
            return [cnot(qubit, target)] if const else []
        if abit == bbit:  # x && x = x || x = x
            return [cnot(abit[1], target)]
        if not is_or:
            return [toffoli(abit[1], bbit[1], target)]
        qa, qb = abit[1], bbit[1]
        return [x(qa), x(qb), toffoli(qa, qb, target), x(qa), x(qb), x(target)]

    def _eq_const(
        self, dst: Register, src: Register, value: int, negate: bool
    ) -> List[Gate]:
        target = dst.bit(0)
        if src.width == 0:
            return [] if negate else [x(target)]
        forward = [
            x(src.bit(i)) for i in range(src.width) if not (value >> i) & 1
        ]
        payload = [mcx([src.bit(i) for i in range(src.width)], target)]
        if negate:
            payload.append(x(target))
        return forward + payload + list(reversed(forward))

    def _eq_reg(
        self, dst: Register, a: Register, b: Register, negate: bool
    ) -> List[Gate]:
        target = dst.bit(0)
        if a.width != b.width:
            raise LoweringError("equality of registers with different widths")
        if a.width == 0 or _same_register(a, b):
            return [] if negate else [x(target)]
        s = self.scratch.acquire(a.width)
        forward: List[Gate] = []
        for i in range(a.width):
            forward.append(cnot(a.bit(i), s.bit(i)))
            forward.append(cnot(b.bit(i), s.bit(i)))
            forward.append(x(s.bit(i)))
        payload = [mcx([s.bit(i) for i in range(s.width)], target)]
        if negate:
            payload.append(x(target))
        gates = forward + payload + list(reversed(forward))
        self.scratch.release(s)
        return gates

    # --------------------------------------------------------------- adders
    def _add_sub(
        self, dst: Register, a: Operand, b: Operand, subtract: bool
    ) -> List[Gate]:
        w = dst.width
        if w == 0:
            return []
        if isinstance(a, int) and isinstance(b, int):
            mask = (1 << w) - 1
            value = (a - b if subtract else a + b) & mask
            return self._xor_const(dst, value)
        if _same_register(a, b):
            if subtract:
                return []
            # a + a = a << 1
            assert isinstance(a, Register)
            return [cnot(a.bit(i - 1), dst.bit(i)) for i in range(1, w)]
        gates: List[Gate] = []
        conj: List[Gate] = []
        a_bits = operand_bits(a, w)
        b_bits = operand_bits(b, w)
        carry_in = 0
        if subtract:
            carry_in = 1
            new_b: List[Bit] = []
            for kind, value in b_bits:
                if kind == "c":
                    new_b.append(("c", value ^ 1))
                else:
                    conj.append(x(value))
                    new_b.append(("q", value))
            b_bits = new_b
        gates.extend(conj)
        gates.extend(self._ripple(dst, a_bits, b_bits, carry_in))
        gates.extend(reversed(conj))
        return gates

    def _ripple(
        self, dst: Register, a_bits: List[Bit], b_bits: List[Bit], carry_in: int
    ) -> List[Gate]:
        """``dst ^= a + b + carry_in`` via an out-of-place ripple-carry adder."""
        w = dst.width
        forward: List[Gate] = []
        carries: List[Bit] = [("c", carry_in)]
        carry_reg = self.scratch.acquire(w - 1) if w > 1 else None
        for i in range(w - 1):
            assert carry_reg is not None
            target = carry_reg.bit(i)
            emit_maj(forward, target, a_bits[i], b_bits[i], carries[i])
            carries.append(("q", target))
        payload: List[Gate] = []
        for i in range(w):
            emit_xorn(payload, dst.bit(i), [a_bits[i], b_bits[i], carries[i]])
        gates = forward + payload + list(reversed(forward))
        if carry_reg is not None:
            self.scratch.release(carry_reg)
        return gates

    def _lt(self, dst: Register, a: Operand, b: Operand) -> List[Gate]:
        w = self.word_width
        target = dst.bit(0)
        if isinstance(a, int) and isinstance(b, int):
            return [x(target)] if a < b else []
        if _same_register(a, b):
            return []
        a_bits = operand_bits(a, w)
        b_bits = operand_bits(b, w)
        conj: List[Gate] = []
        inv_a: List[Bit] = []
        for kind, value in a_bits:
            if kind == "c":
                inv_a.append(("c", value ^ 1))
            else:
                conj.append(x(value))
                inv_a.append(("q", value))
        borrow = self.scratch.acquire(w)
        forward: List[Gate] = []
        prev: Bit = ("c", 0)
        for i in range(w):
            emit_maj(forward, borrow.bit(i), inv_a[i], b_bits[i], prev)
            prev = ("q", borrow.bit(i))
        payload = [cnot(borrow.bit(w - 1), target)]
        gates = (
            conj + forward + payload + list(reversed(forward)) + list(reversed(conj))
        )
        self.scratch.release(borrow)
        return gates

    # ----------------------------------------------------------- multiplier
    def _mul(self, dst: Register, a: Operand, b: Operand) -> List[Gate]:
        w = dst.width
        if w == 0:
            return []
        if isinstance(a, int) and isinstance(b, int):
            return self._xor_const(dst, (a * b) & ((1 << w) - 1))
        if isinstance(b, int):
            a, b = b, a  # prefer a constant multiplier
        forward: List[Gate] = []
        released: List[Register] = []
        if _same_register(a, b):
            assert isinstance(b, Register)
            copy = self.scratch.acquire(w)
            for i in range(w):
                forward.append(cnot(b.bit(i), copy.bit(i)))
            released.append(copy)
            b = copy
        cur: List[Bit] = [("c", 0)] * w
        for i in range(w):
            if isinstance(a, int):
                if not (a >> i) & 1:
                    continue
                addend = [("c", 0)] * i + operand_bits(b, w)[: w - i]
            else:
                amount = w - i
                partial = self.scratch.acquire(amount)
                released.append(partial)
                b_bits = operand_bits(b, w)
                for j in range(amount):
                    kind, value = b_bits[j]
                    if kind == "c":
                        if value:
                            forward.append(cnot(a.bit(i), partial.bit(j)))
                    else:
                        forward.append(toffoli(a.bit(i), value, partial.bit(j)))
                addend = [("c", 0)] * i + [("q", partial.bit(j)) for j in range(amount)]
            acc = self.scratch.acquire(w)
            released.append(acc)
            forward.extend(self._ripple_bits(acc, cur, addend))
            cur = [("q", acc.bit(j)) for j in range(w)]
        payload: List[Gate] = []
        for j in range(w):
            emit_xorn(payload, dst.bit(j), [cur[j]])
        gates = forward + payload + list(reversed(forward))
        for reg in released:
            self.scratch.release(reg)
        return gates

    def _ripple_bits(
        self, dst: Register, a_bits: List[Bit], b_bits: List[Bit]
    ) -> List[Gate]:
        """Like :meth:`_ripple` but recorded for an enclosing uncompute."""
        w = dst.width
        forward: List[Gate] = []
        carries: List[Bit] = [("c", 0)]
        carry_reg = self.scratch.acquire(w - 1) if w > 1 else None
        for i in range(w - 1):
            assert carry_reg is not None
            emit_maj(forward, carry_reg.bit(i), a_bits[i], b_bits[i], carries[i])
            carries.append(("q", carry_reg.bit(i)))
        payload: List[Gate] = []
        for i in range(w):
            emit_xorn(payload, dst.bit(i), [a_bits[i], b_bits[i], carries[i]])
        gates = forward + payload + list(reversed(forward))
        if carry_reg is not None:
            self.scratch.release(carry_reg)
        return gates

    # ------------------------------------------------------- data movement
    def _swap(self, a: Register, b: Register) -> List[Gate]:
        if a.width != b.width:
            raise LoweringError("swap width mismatch")
        if _same_register(a, b):
            return []
        gates: List[Gate] = []
        for i in range(a.width):
            gates.append(cnot(a.bit(i), b.bit(i)))
            gates.append(cnot(b.bit(i), a.bit(i)))
            gates.append(cnot(a.bit(i), b.bit(i)))
        return gates

    def _mem_swap(self, addr: Register, data: Register) -> List[Gate]:
        if self.memory is None:
            raise LoweringError("program uses memory but no heap is configured")
        if data.width > self.memory.cell_bits:
            raise LoweringError(
                f"value of {data.width} bits does not fit a "
                f"{self.memory.cell_bits}-bit memory cell"
            )
        gates: List[Gate] = []
        eq = self.scratch.acquire(1)
        target = eq.bit(0)
        for a in range(1, self.memory.heap_cells + 1):
            cell = self.memory.cell_register(a)
            forward = [
                x(addr.bit(i)) for i in range(addr.width) if not (a >> i) & 1
            ]
            forward.append(
                mcx([addr.bit(i) for i in range(addr.width)], target)
            )
            payload: List[Gate] = []
            for j in range(data.width):
                payload.append(cnot(cell.bit(j), data.bit(j)))
                payload.append(toffoli(target, data.bit(j), cell.bit(j)))
                payload.append(cnot(cell.bit(j), data.bit(j)))
            gates.extend(forward)
            gates.extend(payload)
            gates.extend(reversed(forward))
        self.scratch.release(eq)
        return gates


def expand_program(
    abstract: AbstractProgram,
    config: CompilerConfig,
    cell_bits: int,
) -> Tuple[Circuit, ScratchPool]:
    """Expand a whole abstract program into an MCX-level circuit."""
    memory = (
        MemoryLayout(config.heap_cells, cell_bits, base=0)
        if cell_bits > 0 and config.heap_cells > 0
        else None
    )
    scratch = ScratchPool(abstract.allocator.region_end)
    expander = InstructionExpander(scratch, memory, config.word_width)
    gates: List[Gate] = []
    for instr in abstract.instrs:
        gates.extend(expander.expand(instr))
    width = max(scratch.high_water, abstract.allocator.region_end)
    circuit = Circuit(width, gates)
    for name, reg in abstract.allocator.final_registers().items():
        circuit.add_register(reg)
    if memory is not None:
        for a in range(1, memory.heap_cells + 1):
            circuit.add_register(memory.cell_register(a))
    if scratch.high_water > scratch.base:
        circuit.add_register(
            Register("%scratch", scratch.base, scratch.high_water - scratch.base)
        )
    return circuit, scratch
