"""Functional semantics of the mini ISA.

The timing simulator is execution-driven: every micro-op computes a real
value so that runahead execution (and the runahead buffer's looped
dependence chains) generates *real* memory addresses.  All integer values
are 64-bit two's-complement, represented as Python ints in
``[0, 2**64)``; comparisons interpret them as signed.
"""

from __future__ import annotations

from .uop import ALU_FN_TABLE, TAKEN_FN_TABLE, Instruction, Opcode

MASK64 = (1 << 64) - 1
SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit unsigned value as signed."""
    value &= MASK64
    return value - (1 << 64) if value & SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int to 64-bit unsigned representation."""
    return value & MASK64


# -- per-opcode semantic functions ------------------------------------------
#
# One small module-level function per opcode, bound onto each decoded
# Instruction (``inst.alu_fn`` / ``inst.taken_fn``) via the tables in
# ``repro.isa.uop``.  The cycle loop calls the bound function directly —
# no per-uop opcode dispatch.  Module-level (not closures) keeps
# instructions picklable.

def _sem_add(inst: Instruction, a: int, b: int) -> int:
    return (a + b) & MASK64


def _sem_sub(inst: Instruction, a: int, b: int) -> int:
    return (a - b) & MASK64


def _sem_and(inst: Instruction, a: int, b: int) -> int:
    return a & b


def _sem_or(inst: Instruction, a: int, b: int) -> int:
    return a | b


def _sem_xor(inst: Instruction, a: int, b: int) -> int:
    return a ^ b


def _sem_shl(inst: Instruction, a: int, b: int) -> int:
    return (a << (b & 63)) & MASK64


def _sem_shr(inst: Instruction, a: int, b: int) -> int:
    return (a >> (b & 63)) & MASK64


def _sem_addi(inst: Instruction, a: int, b: int) -> int:
    return (a + inst.imm) & MASK64


def _sem_andi(inst: Instruction, a: int, b: int) -> int:
    return a & inst.imm & MASK64


def _sem_mov(inst: Instruction, a: int, b: int) -> int:
    return a


def _sem_li(inst: Instruction, a: int, b: int) -> int:
    return inst.imm & MASK64


def _sem_mul(inst: Instruction, a: int, b: int) -> int:
    return (a * b) & MASK64


def _sem_div(inst: Instruction, a: int, b: int) -> int:
    if b == 0:
        return 0
    return (to_signed(a) // to_signed(b)) & MASK64


def _sem_zero(inst: Instruction, a: int, b: int) -> int:
    return 0


def _taken_beq(inst: Instruction, a: int, b: int) -> bool:
    return a == b


def _taken_bne(inst: Instruction, a: int, b: int) -> bool:
    return a != b


def _taken_blt(inst: Instruction, a: int, b: int) -> bool:
    return to_signed(a) < to_signed(b)


def _taken_bge(inst: Instruction, a: int, b: int) -> bool:
    return to_signed(a) >= to_signed(b)


ALU_FN_TABLE.update({
    Opcode.ADD: _sem_add,
    Opcode.FADD: _sem_add,
    Opcode.SUB: _sem_sub,
    Opcode.AND: _sem_and,
    Opcode.OR: _sem_or,
    Opcode.XOR: _sem_xor,
    Opcode.SHL: _sem_shl,
    Opcode.SHR: _sem_shr,
    Opcode.ADDI: _sem_addi,
    Opcode.ANDI: _sem_andi,
    Opcode.MOV: _sem_mov,
    Opcode.LI: _sem_li,
    Opcode.MUL: _sem_mul,
    Opcode.FMUL: _sem_mul,
    Opcode.DIV: _sem_div,
    Opcode.FDIV: _sem_div,
    Opcode.NOP: _sem_zero,
    Opcode.HALT: _sem_zero,
})

TAKEN_FN_TABLE.update({
    Opcode.BEQ: _taken_beq,
    Opcode.BNE: _taken_bne,
    Opcode.BLT: _taken_blt,
    Opcode.BGE: _taken_bge,
})


def alu_result(inst: Instruction, a: int, b: int) -> int:
    """Compute the result of a non-memory, non-branch micro-op.

    ``a`` and ``b`` are the values of ``rs1`` and ``rs2`` (0 when unused).
    FP opcodes are evaluated with integer arithmetic — only their latency
    class differs; workload semantics never depend on FP rounding.
    """
    fn = ALU_FN_TABLE.get(inst.opcode)
    if fn is None:
        raise ValueError(f"not an ALU opcode: {inst.opcode}")
    return fn(inst, a, b)


def mem_address(inst: Instruction, base: int) -> int:
    """Effective address of a load/store: ``rs1 + imm``, wrapped to 64 bits."""
    return (base + inst.imm) & MASK64


def branch_taken(inst: Instruction, a: int, b: int) -> bool:
    """Resolve a conditional branch from its source values."""
    fn = TAKEN_FN_TABLE.get(inst.opcode)
    if fn is None:
        raise ValueError(f"not a conditional branch: {inst.opcode}")
    return fn(inst, a, b)


def branch_target(inst: Instruction, pc: int, a: int, taken: bool) -> int:
    """Next PC after a control-flow micro-op.

    ``a`` is the value of ``rs1`` (used by indirect branches); falls
    through to ``pc + 1`` for a not-taken conditional branch.
    """
    op = inst.opcode
    if op in (Opcode.JMP, Opcode.CALL):
        assert inst.target is not None
        return inst.target
    if op in (Opcode.JR, Opcode.RET):
        return a & MASK64
    if inst.is_conditional_branch:
        if taken:
            assert inst.target is not None
            return inst.target
        return pc + 1
    raise ValueError(f"not a branch opcode: {op}")


class DataMemory:
    """Sparse functional data memory, 8-byte word granularity.

    Addresses are byte addresses; accesses are aligned down to 8 bytes
    (the mini ISA only does word accesses).  Unwritten locations read as a
    deterministic pseudo-random value derived from the address, so that
    workloads touching uninitialised memory stay deterministic without the
    generator having to initialise every byte of a multi-megabyte array.
    """

    __slots__ = ("_words", "default_fill")

    def __init__(self, default_fill: str = "hash") -> None:
        self._words: dict[int, int] = {}
        if default_fill not in ("hash", "zero"):
            raise ValueError("default_fill must be 'hash' or 'zero'")
        self.default_fill = default_fill

    @staticmethod
    def _key(addr: int) -> int:
        return (addr & MASK64) >> 3

    def load(self, addr: int) -> int:
        key = (addr & MASK64) >> 3
        # Most loads hit unwritten words (the hash fill): avoid KeyError.
        value = self._words.get(key)
        if value is not None:
            return value
        if self.default_fill == "zero":
            return 0
        # splitmix64-style hash of the word index: deterministic junk.
        z = (key + 0x9E3779B97F4A7C15) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def store(self, addr: int, value: int) -> None:
        self._words[self._key(addr)] = value & MASK64

    def __len__(self) -> int:
        return len(self._words)

    def snapshot(self) -> dict[int, int]:
        """Copy of the backing store (word-index keyed); for tests."""
        return dict(self._words)
