"""Lifetime of the per-instruction ``InflightOp`` records.

Each dispatched instruction is one record; the ROB, LSQ, rename map,
event heap and wakeup queue hold references to it.  These tests pin the
three properties the record design rests on, over random programs and
the machine configurations that exercise squash and re-execution:

* **Committed records are released.**  Once every in-flight consumer of
  a committed record has committed or squashed, nothing keeps it alive
  except the core's own naming structures (rename map, in-flight rename
  snapshots, event heap, wakeup queue, a load's ``forwarded_from``).  In
  particular no committed record pins an older one: commit drops the
  backward producer edges, so memory stays bounded by the window rather
  than growing with the committed history.
* **Squashed records are never live.**  The ROB, LSQ and rename map never
  hold a squashed record, and nothing issues, completes, finalizes,
  re-executes or re-queues one — the wakeup queue and event heap keep
  them only until they next walk past and skip them.
* **Occupancy is exact.**  The telemetry interval rows report ROB/LSQ
  occupancy equal to the number of dispatched records that have neither
  committed nor squashed.
"""

import weakref
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa import assemble
from repro.uarch.config import (
    IRValidation,
    base_config,
    hybrid_config,
    ir_config,
    vp_config,
)
from repro.uarch.core import OutOfOrderCore
from repro.workloads.random_program import random_program

CONFIGS = [base_config, ir_config, lambda: ir_config(IRValidation.LATE),
           vp_config, hybrid_config]
CONFIG_IDS = ["base", "ir", "ir-late", "vp", "hybrid"]

MAX_CYCLES = 200_000


class _LifetimeCore(OutOfOrderCore):
    """Core that audits record lifetimes after every cycle."""

    def __init__(self, config, program):
        super().__init__(config, program)
        self.violations = []
        self.records = weakref.WeakSet()  # every dispatched record
        # seq -> number of consumers still in flight
        self.consumers_left = Counter()
        # committed records whose consumers have all left the window
        self.released = {}  # seq -> weakref
        self._committed_refs = {}  # seq -> weakref, still awaited

    # -- bookkeeping -------------------------------------------------------------

    def _dispatch_one(self, fetched):
        op = super()._dispatch_one(fetched)
        self.records.add(op)
        for p in op.producers.values():
            if p.squashed:
                self.violations.append(
                    f"seq={op.seq} linked squashed producer seq={p.seq}")
            self.consumers_left[p.seq] += 1
        return op

    def _consumer_left(self, op):
        for p in op.producers.values():
            self.consumers_left[p.seq] -= 1
            if self.consumers_left[p.seq] == 0:
                ref = self._committed_refs.pop(p.seq, None)
                if ref is not None:
                    self.released[p.seq] = ref

    def _squash_after(self, op, redirect, count, spurious):
        victims = [v for v in self.rob if v.seq > op.seq]
        for victim in victims:
            self._consumer_left(victim)  # edges still linked here
        super()._squash_after(op, redirect, count, spurious)

    def _commit_one(self, op):
        self._consumer_left(op)
        ref = weakref.ref(op)
        if self.consumers_left[op.seq] == 0:
            self.released[op.seq] = ref
        else:
            self._committed_refs[op.seq] = ref
        super()._commit_one(op)

    # -- squashed records must never act ------------------------------------------

    def _flag_if_squashed(self, op, what):
        if op.squashed:
            self.violations.append(f"{what} on squashed seq={op.seq}")

    def _start_execution(self, op, address=None, forwarding=None):
        self._flag_if_squashed(op, "issue")
        super()._start_execution(op, address, forwarding)

    def _on_complete(self, op):
        self._flag_if_squashed(op, "completion")
        super()._on_complete(op)

    def _try_finalize(self, op):
        self._flag_if_squashed(op, "finalize")
        super()._try_finalize(op)

    def _schedule_reexec(self, op, earliest):
        self._flag_if_squashed(op, "re-execution")
        super()._schedule_reexec(op, earliest)

    def _queue_for_issue(self, op):
        self._flag_if_squashed(op, "wakeup")
        super()._queue_for_issue(op)

    # -- per-cycle audit -------------------------------------------------------------

    def _named_by_core(self):
        """Records the core's naming structures may legitimately keep."""
        named = {id(p) for p in self.rename if p is not None}
        for op in self.rob:
            if op.rename_snapshot is not None:
                named.update(id(p) for p in op.rename_snapshot
                             if p is not None)
            if op.forwarded_from is not None:
                named.add(id(op.forwarded_from))
        named.update(id(event[3]) for event in self.events)
        named.update(id(op) for op in self.issue_queue)
        if self.halt_dispatched is not None:
            named.add(id(self.halt_dispatched))
        return named

    def step(self):
        super().step()
        for where, ops in (("ROB", self.rob), ("LSQ", self.lsq),
                           ("rename map",
                            [p for p in self.rename if p is not None])):
            for op in ops:
                if op.squashed:
                    self.violations.append(
                        f"{where} holds squashed seq={op.seq} "
                        f"at cycle {self.cycle}")
        if not self.released:
            return
        named = self._named_by_core()
        for seq, ref in list(self.released.items()):
            op = ref()
            if op is None:
                del self.released[seq]  # reclaimed: the property holds
            elif id(op) not in named:
                self.violations.append(
                    f"committed seq={seq} still reachable at cycle "
                    f"{self.cycle} after its last consumer left")
                del self.released[seq]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**18), size=st.integers(10, 60),
       config=st.sampled_from(CONFIGS))
def test_committed_records_released_and_squashed_never_live(seed, size,
                                                            config):
    program = assemble(random_program(seed, size=size))
    core = _LifetimeCore(config(), program)
    core.run(max_cycles=MAX_CYCLES)
    assert core.halted, "generated program failed to halt"
    assert not core.violations, core.violations[:5]


def test_loop_carried_chain_does_not_pin_history():
    """A loop-carried dependence links every iteration to the previous
    one.  Were committed records to keep their producer edges, the
    in-flight head of the chain would pin the whole committed history;
    with the commit-time drop, only a window's worth stays alive."""
    program = assemble("""
    main: li $s0, 400
    loop: addi $s0, $s0, -1
          add $t0, $t0, $s0
          bnez $s0, loop
          halt
    """)
    core = OutOfOrderCore(vp_config(), program)
    refs = []
    core.on_commit = lambda op, cycle: refs.append(weakref.ref(op))
    peak = 0

    def step():
        nonlocal peak
        OutOfOrderCore.step(core)
        alive = sum(1 for ref in refs if ref() is not None)
        peak = max(peak, alive)

    core.step = step
    core.run(max_cycles=MAX_CYCLES)
    assert core.halted
    assert len(refs) > 1000
    # Bound: the window plus the rename map's names, far below the
    # >1000 committed records a leak would keep.
    assert peak <= core.config.rob_size + 2 * len(core.rename), peak


class _OccupancyCore(_LifetimeCore):
    """Records live ROB/LSQ counts, taken from the records themselves,
    at every telemetry sample."""

    def enable_telemetry(self, *args, **kwargs):
        sink = super().enable_telemetry(*args, **kwargs)
        self.expected = []

        def on_sample(boundary, committed):
            live = [op for op in self.records
                    if not op.committed and not op.squashed]
            self.expected.append(
                (len(live), sum(1 for op in live if op.is_mem)))

        sink.on_sample = on_sample
        return sink


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_telemetry_occupancy_rows_match_live_records(config):
    program = assemble(random_program(3, size=40))
    core = _OccupancyCore(config(), program)
    core.enable_telemetry(interval=16, events=False)
    core.run(max_cycles=MAX_CYCLES)
    assert not core.violations, core.violations[:5]
    series = core.telemetry.series
    rows = list(zip(series.column("rob_occupancy"),
                    series.column("lsq_occupancy")))
    assert len(rows) > 1, "telemetry produced no interval rows"
    # The trailing partial interval is flushed by finalize(), which does
    # not fire on_sample; every boundary sample is compared.
    assert rows[:len(core.expected)] == core.expected
    assert any(rob for rob, _ in rows), "the window never filled"
