"""The in-flight (ROB-resident) dynamic instruction record.

Timing semantics used throughout the core:

* a value with ``ready_cycle == r`` can be consumed by an execution issuing
  at cycle ``r + 1`` or later;
* a value-predicted or reused result is available at the dispatch cycle;
* ``nonspec_cycle`` is the cycle at which the value became non-value-
  speculative (verified); for non-VP configurations this equals the
  completion cycle.  Commit requires it.

One :class:`InflightOp` is built per dispatched instruction from the
pre-decoded :class:`~repro.uarch.decode.StaticOp` of its static
instruction.  The ROB, LSQ, rename map, event heap and wakeup queue hold
references to it.  Lifetime rules (see ``docs/internals.md``):

* squash sets ``squashed``; the event heap, the wakeup queue and the
  producers' consumer lists may still hold the record, and every walk
  over them skips it on that flag;
* commit sets ``committed`` (the rename map may still name the record;
  dispatch reads a committed producer's value from the register file
  instead of linking an edge) and, after the ``on_commit`` observer
  ran, drops the record's forward *and* backward edges — so a
  committed record is referenced only by its still-in-flight consumers
  and becomes garbage when the last of them commits or squashes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..isa.opcodes import REG_HI


class InflightOp:
    """One dynamic instruction from dispatch to commit (or squash)."""

    __slots__ = (
        "seq", "meta", "outcome", "dispatch_cycle",
        "is_load", "is_store", "is_mem", "is_control",
        "producers", "src_values", "consumers",
        "completed", "ready_cycle", "value_ready_cycle", "hi_ready_cycle",
        "nonspec_cycle", "current_value", "current_hi",
        "exec_count", "issued", "completes_at", "issue_read_values",
        "used_values", "used_addr", "stale", "reexec_earliest",
        "in_issue_queue",
        "predicted", "predicted_value", "addr_predicted", "predicted_addr",
        "reused", "addr_reused", "reuse_value", "rb_entry",
        "prediction", "believed_taken", "believed_target",
        "resolved_final", "last_resolution_cycle", "checkpoint",
        "rename_snapshot",
        "current_addr", "addr_known_cycle", "forwarded_from",
        "issue_cycle", "issue_addr", "last_completion_cycle",
        "reuse_hit_full", "reuse_hit_addr",
        "squashed", "committed",
        "__weakref__",  # lets tests watch a record's lifetime
    )

    def __init__(self, seq: int, meta, cycle: int):
        self.seq = seq
        self.meta = meta
        self.outcome = None  # the dispatch-time ExecOutcome
        self.dispatch_cycle = cycle
        # Static classification copied from the shared StaticOp: the
        # issue/commit walks read these on every pass.
        self.is_load = meta.is_load
        self.is_store = meta.is_store
        self.is_mem = meta.is_mem
        self.is_control = meta.is_control

        # Register dataflow, fixed at rename time.
        self.producers: Dict[int, InflightOp] = {}  # src reg -> producer
        self.src_values: Dict[int, int] = {}  # dispatch-time (oracle) values
        self.consumers: List[Tuple[InflightOp, int]] = []  # (consumer, reg)

        # Timing state.
        self.completed = False  # final execution done (commit gating)
        self.ready_cycle: Optional[int] = None  # first value broadcast
        self.value_ready_cycle: Optional[int] = None  # incl. predictions
        self.hi_ready_cycle: Optional[int] = None  # HI of mult/div
        self.nonspec_cycle: Optional[int] = None
        self.current_value: Optional[int] = None
        self.current_hi: Optional[int] = None

        # Execution machinery.
        self.exec_count = 0
        self.issued = False  # an execution is in flight
        self.completes_at: Optional[int] = None
        self.issue_read_values: Optional[Dict[int, int]] = None
        self.used_values: Dict[int, int] = self.src_values  # last read
        self.used_addr: Optional[int] = None  # address last used (mem ops)
        self.stale = False  # inputs changed while executing
        self.reexec_earliest: Optional[int] = None  # pending re-execution
        self.in_issue_queue = False  # resident in the core's wakeup queue

        # Value prediction.
        self.predicted = False
        self.predicted_value: Optional[int] = None
        self.addr_predicted = False
        self.predicted_addr: Optional[int] = None

        # Instruction reuse.
        self.reused = False
        self.addr_reused = False
        self.reuse_value: Optional[int] = None
        self.rb_entry = None  # entry this op inserted (for squash recovery)

        # Control.
        self.prediction = None
        self.believed_taken: Optional[bool] = None
        self.believed_target: Optional[int] = None
        self.resolved_final = False
        self.last_resolution_cycle: Optional[int] = None
        self.checkpoint = None
        self.rename_snapshot = None  # rename-map copy for squash recovery

        # Memory.
        self.current_addr: Optional[int] = None
        self.addr_known_cycle: Optional[int] = None  # stores: disambiguation
        self.forwarded_from: Optional[InflightOp] = None

        self.issue_cycle: Optional[int] = None
        self.issue_addr: Optional[int] = None
        self.last_completion_cycle: Optional[int] = None
        self.reuse_hit_full = False  # statistics flags (Table 3)
        self.reuse_hit_addr = False

        self.squashed = False
        self.committed = False

    # -- static facts (observer convenience; the core reads meta) --------------------

    @property
    def inst(self):
        return self.meta.inst

    @property
    def is_cond_branch(self) -> bool:
        return self.meta.is_branch

    @property
    def needs_checkpoint(self) -> bool:
        return self.meta.needs_checkpoint

    @property
    def executes(self) -> bool:
        return self.meta.executes

    # -- dataflow helpers (cold paths: the core inlines these) -----------------------

    def value_for_reg(self, reg: int) -> Optional[int]:
        """Current broadcast value of my dest *reg* (HI vs LO aware)."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.current_hi
        return self.current_value

    def reg_ready_cycle(self, reg: int) -> Optional[int]:
        """When my dest *reg* became available to consumers."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.hi_ready_cycle
        return self.value_ready_cycle

    def final_value_for_reg(self, reg: int) -> Optional[int]:
        """Value of *reg* once I am non-speculative (oracle along my path)."""
        if reg == REG_HI and self.meta.writes_hi_lo:
            return self.outcome.result_hi
        return self.outcome.result

    def operands_ready(self, issue_cycle: int) -> bool:
        """Can an execution issuing at *issue_cycle* read all inputs?"""
        for reg, producer in self.producers.items():
            ready = producer.reg_ready_cycle(reg)
            if ready is None or ready >= issue_cycle:
                return False
        return True

    def inputs_match_oracle(self, values: Dict[int, int]) -> bool:
        src_values = self.src_values
        return all(values[reg] == src_values[reg] for reg in values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (" squashed" if self.squashed
                 else " committed" if self.committed else "")
        return f"<op#{self.seq} {self.meta.opcode.name}@{self.meta.pc:#x}{state}>"
