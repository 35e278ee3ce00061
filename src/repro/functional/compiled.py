"""Decode-time compiled instruction semantics.

:func:`repro.functional.simulator.execute` interprets one instruction by
re-testing its ``exec_kind`` and re-loading opcode attributes on every
dynamic instance.  This module moves all of that work to decode time:
:func:`compile_exec` builds, **once per static instruction**, a closure
with the operand register indices, the ALU evaluation function, the
immediate, the memory width and the writeback destination already bound
as cell variables.  Executing a dynamic instance is then a single call
with no dispatch, no attribute chains and no dead branches.

Two closure flavours exist, because the two consumers need different
amounts of observation:

* :func:`compile_exec` — ``closure(state) -> ExecOutcome``, a drop-in
  replacement for ``execute``: identical state mutations *and* an
  identical outcome record (the reuse buffer, value predictor and
  commit-time verifier all consume those fields, so they are pinned by
  the golden corpus and the differential tests);
* :func:`compile_ff` — ``closure(state) -> next_pc``, the fast-forward
  flavour used by warm-up skips: the same state mutations with no
  :class:`ExecOutcome` allocation at all.  Warm-up dominates the limit
  studies (the paper skips billions of instructions; see ISSUE/PAPER
  methodology), so this path is allocation-free by design.

Closures target the two built-in state classes (``ArchState`` and the
timing core's ``SpeculativeState``): both expose ``regs`` as a plain
list and ``memory`` as a :class:`~repro.functional.memory.Memory`.
Memory *writes* go through ``state.write_mem`` so the speculative
state's undo journal keeps working; duck-typed ``StateProtocol`` states
must keep using the interpreted ``execute``.

``tests/functional/test_compiled.py`` pins the equivalence with a
Hypothesis differential test over random programs.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..isa.instruction import (
    Instruction,
    KIND_BRANCH,
    KIND_HILO,
    KIND_JUMP,
    KIND_LOAD,
    KIND_NOP,
    KIND_STORE,
)
from ..isa.opcodes import (
    MASK32,
    REG_RA,
    REG_ZERO,
    div_hi_lo,
    mult_hi_lo,
)
from ..isa.program import Program
from .simulator import ExecOutcome

#: Sentinel returned by :meth:`CompiledProgram.ff_entry` for halt
#: instructions: callers decide whether the halt is executed (functional
#: run) or fetched by the timing front end (core warm-up skip).
HALT = object()

ExecFn = Callable[[object], ExecOutcome]
FFFn = Callable[[object], int]


def compile_exec(inst: Instruction) -> ExecFn:
    """Build the outcome-producing closure for *inst*.

    The returned closure applies exactly the state mutations of
    ``execute(inst, state)`` and returns a field-identical
    :class:`ExecOutcome`.
    """
    op = inst.opcode
    kind = inst.exec_kind
    a_reg = inst.a_reg
    b_reg = inst.b_reg
    imm = inst.imm
    target = inst.target
    next_pc = inst.next_pc

    if kind == KIND_BRANCH:
        eval_fn = op.eval_fn
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                if eval_fn(a, b, imm):
                    return ExecOutcome(inst, a, b, target, taken=True)
                return ExecOutcome(inst, a, b, next_pc, taken=False)
        else:
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                if eval_fn(a, 0, imm):
                    return ExecOutcome(inst, a, 0, target, taken=True)
                return ExecOutcome(inst, a, 0, next_pc, taken=False)
        return run

    if kind == KIND_LOAD:
        nbytes = op.mem_bytes
        signed = op.mem_signed
        rd = inst.rd
        if rd != REG_ZERO:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                addr = (a + imm) & MASK32
                result = state.memory.read(addr, nbytes, signed)
                regs[rd] = result
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   writes=((rd, result),),
                                   mem_addr=addr, mem_value=result)
        else:  # a load to $zero is legal and writes nothing
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                addr = (a + imm) & MASK32
                result = state.memory.read(addr, nbytes, signed)
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   mem_addr=addr, mem_value=result)
        return run

    if kind == KIND_STORE:
        nbytes = op.mem_bytes

        def run(state) -> ExecOutcome:
            regs = state.regs
            a = regs[a_reg]
            b = regs[b_reg]
            addr = (a + imm) & MASK32
            state.write_mem(addr, b, nbytes)
            return ExecOutcome(inst, a, b, next_pc,
                               mem_addr=addr, mem_value=b & MASK32)
        return run

    if kind == KIND_JUMP:
        if op.is_indirect:
            if op.is_call:
                def run(state) -> ExecOutcome:
                    regs = state.regs
                    a = regs[a_reg]
                    link = next_pc & MASK32
                    regs[REG_RA] = link
                    return ExecOutcome(inst, a, 0, a, link,
                                       writes=((REG_RA, link),))
            else:
                def run(state) -> ExecOutcome:
                    a = state.regs[a_reg]
                    return ExecOutcome(inst, a, 0, a)
        else:
            if op.is_call:
                def run(state) -> ExecOutcome:
                    regs = state.regs
                    a = regs[a_reg]
                    link = next_pc & MASK32
                    regs[REG_RA] = link
                    return ExecOutcome(inst, a, 0, target, link,
                                       writes=((REG_RA, link),))
            else:
                def run(state) -> ExecOutcome:
                    return ExecOutcome(inst, state.regs[a_reg], 0, target)
        return run

    if kind == KIND_HILO:
        pair_fn = mult_hi_lo if op.name == "mult" else div_hi_lo
        hi_reg, lo_reg = inst.dest_regs

        def run(state) -> ExecOutcome:
            regs = state.regs
            a = regs[a_reg]
            b = regs[b_reg]
            hi, lo = pair_fn(a, b)
            regs[hi_reg] = hi
            regs[lo_reg] = lo
            return ExecOutcome(inst, a, b, next_pc, lo, hi,
                               writes=((hi_reg, hi), (lo_reg, lo)))
        return run

    if kind == KIND_NOP:  # nop and halt produce nothing
        def run(state) -> ExecOutcome:
            return ExecOutcome(inst, state.regs[a_reg], 0, next_pc)
        return run

    # KIND_ALU (including FP ops and FP compares writing $fcc).
    eval_fn = op.eval_fn
    dest_regs = inst.dest_regs
    rd = dest_regs[0] if dest_regs else REG_ZERO  # never $zero when present
    if rd != REG_ZERO:
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                result = eval_fn(a, b, imm) & MASK32
                regs[rd] = result
                return ExecOutcome(inst, a, b, next_pc, result,
                                   writes=((rd, result),))
        else:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                result = eval_fn(a, 0, imm) & MASK32
                regs[rd] = result
                return ExecOutcome(inst, a, 0, next_pc, result,
                                   writes=((rd, result),))
    else:  # result is still computed and recorded (no writeback)
        if b_reg >= 0:
            def run(state) -> ExecOutcome:
                regs = state.regs
                a = regs[a_reg]
                b = regs[b_reg]
                return ExecOutcome(inst, a, b, next_pc,
                                   eval_fn(a, b, imm) & MASK32)
        else:
            def run(state) -> ExecOutcome:
                a = state.regs[a_reg]
                return ExecOutcome(inst, a, 0, next_pc,
                                   eval_fn(a, 0, imm) & MASK32)
    return run


def compile_ff(inst: Instruction) -> FFFn:
    """Build the fast-forward closure: same mutations, returns next PC.

    Must not be called for halt instructions (the drivers stop at
    :data:`HALT` instead — whether the halt itself counts as executed is
    the caller's convention, see ``FunctionalSimulator.run`` vs
    ``OutOfOrderCore.skip``).
    """
    op = inst.opcode
    kind = inst.exec_kind
    a_reg = inst.a_reg
    b_reg = inst.b_reg
    imm = inst.imm
    target = inst.target
    next_pc = inst.next_pc

    if kind == KIND_BRANCH:
        eval_fn = op.eval_fn
        if b_reg >= 0:
            def ff(state) -> int:
                regs = state.regs
                return target if eval_fn(regs[a_reg], regs[b_reg], imm) \
                    else next_pc
        else:
            def ff(state) -> int:
                return target if eval_fn(state.regs[a_reg], 0, imm) \
                    else next_pc
        return ff

    if kind == KIND_LOAD:
        nbytes = op.mem_bytes
        signed = op.mem_signed
        rd = inst.rd
        if rd != REG_ZERO:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = state.memory.read((regs[a_reg] + imm) & MASK32,
                                             nbytes, signed)
                return next_pc
        else:
            def ff(state) -> int:
                state.memory.read((state.regs[a_reg] + imm) & MASK32,
                                  nbytes, signed)
                return next_pc
        return ff

    if kind == KIND_STORE:
        nbytes = op.mem_bytes

        def ff(state) -> int:
            regs = state.regs
            state.write_mem((regs[a_reg] + imm) & MASK32, regs[b_reg],
                            nbytes)
            return next_pc
        return ff

    if kind == KIND_JUMP:
        if op.is_indirect:
            if op.is_call:
                def ff(state) -> int:  # read target before the $ra link
                    regs = state.regs
                    dest = regs[a_reg]
                    regs[REG_RA] = next_pc & MASK32
                    return dest
            else:
                def ff(state) -> int:
                    return state.regs[a_reg]
        else:
            if op.is_call:
                def ff(state) -> int:
                    state.regs[REG_RA] = next_pc & MASK32
                    return target
            else:
                def ff(state) -> int:
                    return target
        return ff

    if kind == KIND_HILO:
        pair_fn = mult_hi_lo if op.name == "mult" else div_hi_lo
        hi_reg, lo_reg = inst.dest_regs

        def ff(state) -> int:
            regs = state.regs
            regs[hi_reg], regs[lo_reg] = pair_fn(regs[a_reg], regs[b_reg])
            return next_pc
        return ff

    if kind == KIND_NOP:
        def ff(state) -> int:
            return next_pc
        return ff

    eval_fn = op.eval_fn
    dest_regs = inst.dest_regs
    rd = dest_regs[0] if dest_regs else REG_ZERO
    if rd != REG_ZERO:
        if b_reg >= 0:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = eval_fn(regs[a_reg], regs[b_reg], imm) & MASK32
                return next_pc
        else:
            def ff(state) -> int:
                regs = state.regs
                regs[rd] = eval_fn(regs[a_reg], 0, imm) & MASK32
                return next_pc
    else:
        def ff(state) -> int:
            return next_pc
    return ff


class CompiledProgram:
    """Lazy PC -> compiled-closure tables over one program.

    Mirrors :class:`~repro.uarch.decode.DecodeTable`'s laziness: only PCs
    that are actually reached are ever compiled, and invalid PCs
    (``.space`` gaps, addresses off the program) return ``None``.
    """

    __slots__ = ("program", "_exec", "_ff")

    def __init__(self, program: Program):
        self.program = program
        self._exec: Dict[int, Tuple[ExecFn, bool]] = {}
        self._ff: Dict[int, object] = {}

    def exec_entry(self, pc: int) -> Optional[Tuple[ExecFn, bool]]:
        """``(closure, is_halt)`` for *pc*, or ``None`` for a bad PC."""
        entry = self._exec.get(pc)
        if entry is None:
            inst = self.program.fetch(pc)
            if inst is None:
                return None
            entry = (compile_exec(inst), inst.opcode.is_halt)
            self._exec[pc] = entry
        return entry

    def ff_entry(self, pc: int):
        """Fast-forward closure for *pc*, :data:`HALT`, or ``None``."""
        entry = self._ff.get(pc)
        if entry is None:
            inst = self.program.fetch(pc)
            if inst is None:
                return None
            entry = HALT if inst.opcode.is_halt else compile_ff(inst)
            self._ff[pc] = entry
        return entry


# -- the fast-forward dispatch loop ---------------------------------------------

#: :func:`run_ff` outcomes: the instruction budget ran out first, a halt
#: instruction was reached, or the PC left the program.
FF_BUDGET = 0
FF_HALT = 1
FF_BAD_PC = 2

#: Budget meaning "run to halt" (past any reachable instruction count).
FF_UNBOUNDED = 1 << 62


def run_ff(ff_entry: Callable[[int], Optional[object]], halt: object,
           state, pc: int, budget: int,
           execute_halt: bool) -> Tuple[int, int, int]:
    """Drive fast-forward closures from *pc* for at most *budget* steps.

    Every warm-up path — ``OutOfOrderCore.skip``, ``checkpoint.capture``
    and the compiled lane of ``FunctionalSimulator.run`` — is this loop
    over :meth:`CompiledProgram.ff_entry`.  Returns ``(pc, executed,
    status)``.  On ``FF_HALT`` the PC sits on the halt instruction;
    *execute_halt* decides whether the halt counts as executed (the
    functional simulator's convention) or is left for the caller's
    front end (the timing core's and checkpoint capture's convention).
    On ``FF_BAD_PC`` the state reflects every instruction executed
    before the PC went off the program; raising is the caller's job
    (each site wants its own message).
    """
    executed = 0
    while executed < budget:
        fn = ff_entry(pc)
        if fn is None:
            return (pc, executed, FF_BAD_PC)
        if fn is halt:
            if execute_halt:
                executed += 1
            return (pc, executed, FF_HALT)
        pc = fn(state)
        executed += 1
    return (pc, executed, FF_BUDGET)
