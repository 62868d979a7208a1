"""Cycle-level out-of-order core with a full register renaming subsystem.

The pipeline models exactly the machinery the paper's bug study needs:

* N-wide fetch with a bimodal branch predictor (wrong-path speculation),
* N-wide rename against the RRS arrays of Figure 1 (FL / RAT / ROB / RHT /
  CKPT), including same-cycle same-Ldst groups,
* out-of-order issue/execute over a merged physical register file with real
  values (so rename bugs corrupt dataflow organically, as in Figure 2),
* in-order commit with Pdst reclamation to the Free List,
* multi-cycle flush recovery behind a pluggable strategy
  (:mod:`repro.core.recovery`): the paper's checkpoint restore + RHT walks
  by default, with ROB-walk and checkpoint-free schemes as config axes.

Stages are evaluated in reverse pipeline order each cycle so structural
hazards behave like hardware reading last cycle's state. All RRS port
traffic flows through control signals that a bug injector can suppress
(:mod:`repro.core.rrs.signals`), and through observer events that the
detectors consume (:mod:`repro.core.rrs.ports`).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.branch import BimodalPredictor, GSharePredictor
from repro.core.config import CoreConfig
from repro.core.errors import DeadlockError, MemoryFault, SimulatorAssertion
from repro.core.lsq import DataMemory, StoreQueue
from repro.core.recovery import make_recovery_strategy
from repro.core.regfile import PhysicalRegisterFile
from repro.core.rrs.checkpoint import CheckpointTable
from repro.core.rrs.free_list import make_free_list
from repro.core.rrs.ports import RRSObserver, listeners, overrides_hook
from repro.core.rrs.rat import RegisterAliasTable
from repro.core.rrs.rht import RegisterHistoryTable
from repro.core.rrs.rob import ReorderBuffer
from repro.core.rrs.signals import SignalFabric
from repro.core.uop import Uop, UopState
from repro.isa.instructions import (
    Instruction,
    NUM_LOGICAL_REGS,
    Opcode,
    WORD_MASK,
)
from repro.isa.program import Program
from repro.isa.semantics import branch_taken, execute_op


def _zero_idiom(inst: Instruction) -> bool:
    """Zero idioms renameable to the shared zero register (V.E)."""
    if inst.opcode is Opcode.LI and inst.imm == 0:
        return True
    return (
        inst.opcode in (Opcode.XOR, Opcode.SUB) and inst.rs1 == inst.rs2
    )


#: Sentinel finish cycle: "no in-flight op ever completes". Large enough
#: that ``_min_finish - 1`` still exceeds any reachable cycle budget.
_NEVER = 1 << 62

#: When non-None, cores constructed afterwards accumulate per-stage wall
#: time (ns) into this dict; see :func:`enable_stage_profiling`. A module
#: global rather than per-core state so the zero-overhead default path
#: stays a plain method call.
STAGE_PROFILE: Optional[Dict[str, int]] = None

_PROFILE_BUCKETS = (
    "fetch",
    "rename",
    "issue",
    "execute",
    "commit",
    "flush",
    "recovery",
    "observer",
    "fast_forward",
    "cycles",
)


def enable_stage_profiling() -> Dict[str, int]:
    """Turn on per-stage wall-time attribution for cores built afterwards.

    Returns the live accumulator dict: exclusive ns per pipeline-stage
    bucket, plus a ``cycles`` count of profiled steps. Profiled cores pay
    a ``perf_counter_ns`` pair and a wrapper call per stage call, so this
    is for traced measurement (``perfbench/run.py --trace 1``), never the
    timed runs.
    """
    global STAGE_PROFILE
    STAGE_PROFILE = {bucket: 0 for bucket in _PROFILE_BUCKETS}
    return STAGE_PROFILE


def disable_stage_profiling() -> None:
    """Turn stage profiling back off (cores built afterwards are clean)."""
    global STAGE_PROFILE
    STAGE_PROFILE = None


def _timed(fn, profile: Dict[str, int], bucket: str, stack: List[int]):
    """``fn`` with its wall time, minus that of timed calls nested inside
    it, added to ``profile[bucket]``. ``stack`` holds the nested time of
    every timed call in progress."""
    perf = time.perf_counter_ns

    def timed(*args, **kwargs):
        stack.append(0)
        started = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - started
            profile[bucket] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

    return timed


@dataclass
class RunResult:
    """Outcome of a (possibly truncated) simulation.

    The commit trace is split into the committed PC sequence and the cycle
    stamps so the classifier can distinguish the paper's *Performance*
    class (same instructions, different cycles) from *Control Flow
    Deviation* (different instructions) cheaply.
    """

    program_name: str
    cycles: int
    halted: bool
    output: List[int]
    commit_pcs: List[int]
    commit_cycles: List[int]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return len(self.commit_pcs)


class OoOCore:
    """The simulated core. One instance runs one program once."""

    def __init__(
        self,
        program: Program,
        config: Optional[CoreConfig] = None,
        observers: Sequence[RRSObserver] = (),
        fabric: Optional[SignalFabric] = None,
        parity_protect: bool = False,
    ) -> None:
        self.program = program
        self.config = config or CoreConfig()
        self.fabric = fabric or SignalFabric()
        self.observers: List[RRSObserver] = list(observers)

        cfg = self.config
        self.zero_pdst = cfg.zero_pdst
        # Optional per-entry parity on the PdstID storage (the orthogonal
        # protection of Section V.D; see repro.idld.parity).
        self.parity: Dict[str, object] = {}
        if parity_protect:
            from repro.idld.parity import ParityStore

            self.parity = {
                "FL": ParityStore("FL"),
                "RAT": ParityStore("RAT"),
                "ROB": ParityStore("ROB"),
            }
        # The arrays' port dispatch lists are bound by _bind_observers.
        self.free_list = make_free_list(
            cfg.free_list_discipline, cfg.free_list_entries, self.fabric,
            (), parity=self.parity.get("FL"),
        )
        self.rat = RegisterAliasTable(
            NUM_LOGICAL_REGS, cfg.num_physical_regs, self.fabric, (),
            zero_pdst=self.zero_pdst, parity=self.parity.get("RAT"),
        )
        self.rob = ReorderBuffer(
            cfg.rob_entries, self.fabric, (),
            zero_pdst=self.zero_pdst, parity=self.parity.get("ROB"),
        )
        self.rht = RegisterHistoryTable(cfg.rht_entries, self.fabric, ())
        self.ckpt = CheckpointTable(cfg.num_checkpoints, self.fabric, ())
        # One extra physical register backs the hardwired zero when the
        # zero-idiom optimization is on; it stays outside the token set.
        prf_size = cfg.num_physical_regs + (1 if self.zero_pdst is not None else 0)
        self.prf = PhysicalRegisterFile(prf_size)
        self.memory = DataMemory(cfg.memory_limit, program.initial_memory)
        self.store_queue = StoreQueue(cfg.store_queue_entries)
        if cfg.predictor_kind == "gshare":
            self.predictor = GSharePredictor(
                cfg.predictor_entries, cfg.predictor_history_bits
            )
        else:
            self.predictor = BimodalPredictor(cfg.predictor_entries)
        self.recovery_strategy = make_recovery_strategy(
            cfg.recovery_strategy, self
        )
        #: ``(profile, stack)`` of a profiled core (see _profile_stages).
        self._stage_timing: Optional[Tuple[Dict[str, int], List[int]]] = None
        self._bind_observers()
        if STAGE_PROFILE is not None:
            self._profile_stages(STAGE_PROFILE)
        # Static per-PC decode tables. Latency, issue-queue occupancy and
        # the zero-idiom test depend only on the instruction, yet rename
        # and issue consulted them for every uop; indexing by PC takes the
        # enum hashing and attribute chains off the per-cycle path.
        instructions = program.instructions
        self._latency_of = tuple(
            cfg.latencies.get(inst.opcode, 1) for inst in instructions
        )
        self._needs_queue = tuple(
            self._needs_issue_queue(inst) for inst in instructions
        )
        self._zero_idiom_of = tuple(
            _zero_idiom(inst) for inst in instructions
        )
        self._sources_of = tuple(
            inst.source_registers() for inst in instructions
        )
        # Occupancy threshold for the emergency-checkpoint guard in step().
        self._rht_emergency = cfg.rht_entries - cfg.width
        self.reset()

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Power-on: logical register i maps to Pdst i; the rest are free."""
        cfg = self.config
        initial_rat = list(range(NUM_LOGICAL_REGS))
        initial_free = list(range(NUM_LOGICAL_REGS, cfg.num_physical_regs))
        self.rat.reset(initial_rat)
        self.free_list.reset(initial_free)
        self.rob.reset()
        self.rht.reset()
        self.ckpt.reset(initial_rat)
        self.prf.reset()
        self.memory = DataMemory(cfg.memory_limit, self.program.initial_memory)
        self.store_queue.reset()
        self.predictor.reset()

        self.cycle = 0
        self.fabric.cycle = 0
        self.halted = False
        self.fetch_pc = 0
        self.fetch_stalled = False
        self.fetch_queue: Deque[Uop] = deque()
        self.issue_queue: List[Uop] = []
        # Actionable subsequence of issue_queue (seq order): uops worth an
        # issue attempt this cycle. Source-blocked uops leave the scan and
        # re-enter via the wakeup scoreboard when their pdst is written.
        self._issue_scan: List[Uop] = []
        self.executing: List[Tuple[int, Uop]] = []
        # Lower bound on the earliest finish cycle in ``executing``
        # (exactly the min when maintained by _execute_stage; a stale-low
        # value only costs a harmless extra stage evaluation). Gates the
        # execute stage and bounds fast-forward jumps.
        self._min_finish = _NEVER
        #: Cycles elapsed through fast-forward jumps rather than steps.
        #: Deliberately NOT in ``stats`` (and so absent from save_state):
        #: skipping must be invisible to every state digest.
        self.ff_cycles_skipped = 0
        self.pending_flushes: List[Uop] = []
        # Issue wakeup scoreboard: pdst -> uops whose issue attempt stalled
        # on that (not-ready) source. A blocked uop is skipped by the issue
        # stage until the pdst is written; skipping is behavior-identical
        # because a source-blocked issue attempt has no side effects.
        self._wakeups: Dict[int, List[Uop]] = {}
        #: In-progress recovery state; shape is strategy-specific.
        self.recovery = None
        self.allocs_since_checkpoint = 0
        self.output: List[int] = []
        self.commit_pcs: List[int] = []
        self.commit_cycles: List[int] = []
        self.last_progress_cycle = 0
        self.stats: Dict[str, int] = {
            "fetched": 0,
            "renamed": 0,
            "flushes": 0,
            "mispredicts": 0,
            "checkpoints": 0,
            "checkpoints_skipped": 0,
            "recovery_cycles": 0,
            "load_replays": 0,
        }
        for obs in self.observers:
            obs.power_on(
                cfg.num_physical_regs,
                NUM_LOGICAL_REGS,
                list(initial_free),
                list(initial_rat),
            )
            # Slot 0 anchors the power-on architectural state.
            obs.checkpoint_content(0, 0)
            obs.checkpoint_meta(0, 0)

    def _bind_observers(self) -> None:
        """Build every dispatch list derived from :attr:`observers`.

        Per-event lists hold only the observers that override a hook, so a
        hook nobody overrides costs nothing per event. The core's own lists,
        the fast-forward replays and the FL, RAT, ROB and CKPT port lists
        are all built here: construction calls this once and
        :meth:`detach` again, and a profiled core re-wraps its per-cycle
        hooks here, so it keeps its timing wrappers across a detach.
        """
        observers = self.observers
        self._on_recovery_begin = listeners(observers, "recovery_begin")
        self._on_recovery_end = listeners(observers, "recovery_end")
        self._on_flush_initiated = listeners(observers, "flush_initiated")
        self._on_checkpoint_restored = listeners(
            observers, "checkpoint_restored"
        )
        self._on_load_replay = listeners(observers, "load_replay")
        self._on_pipeline_empty = listeners(observers, "pipeline_empty")
        self._on_cycle_end = listeners(observers, "cycle_end")
        for array in (self.free_list, self.rat, self.rob, self.ckpt):
            array.bind(observers)
        # Quiescence-aware fast-forward: legal only when every attached
        # per-cycle listener is bulk-replayable under the protocol in
        # ports.py. One unproven listener disables skipping for this core
        # entirely (the conservative fallback is exactly today's per-cycle
        # behavior, so an unknown observer can never change an outcome).
        ff_enabled = True
        replays: List = []
        for obs in observers:
            if overrides_hook(obs, "pipeline_empty") or overrides_hook(
                obs, "cycle_end"
            ):
                replay = getattr(obs, "fast_forward", None)
                if replay is None:
                    ff_enabled = False
                    replays = []
                    break
                replays.append(replay)
        self._ff_replay: Tuple = tuple(replays)
        self.fast_forward_enabled = ff_enabled
        if self._stage_timing is not None:
            profile, stack = self._stage_timing
            self._on_pipeline_empty = [
                _timed(hook, profile, "observer", stack)
                for hook in self._on_pipeline_empty
            ]
            self._on_cycle_end = [
                _timed(hook, profile, "observer", stack)
                for hook in self._on_cycle_end
            ]

    def detach(self, observer: RRSObserver) -> None:
        """Deliver no further event of any kind to ``observer``.

        The observer keeps the state it has; the core's state is untouched,
        so the run goes on exactly as it would with the observer attached.
        Detaching never turns fast-forward on when it was off.
        """
        self.observers = [obs for obs in self.observers if obs is not observer]
        enabled = self.fast_forward_enabled
        self._bind_observers()
        self.fast_forward_enabled = enabled and self.fast_forward_enabled

    def _profile_stages(self, profile: Dict[str, int]) -> None:
        """Attribute wall time to pipeline stages without a second stepper.

        Every stage method :meth:`step` calls, the recovery strategy's
        step, the per-cycle observer hooks and the fast-forward jump are
        shadowed on this instance by timing wrappers, so the profiled core
        runs the very same :meth:`step`; only unprofiled cores keep the
        plain method calls.
        """
        stack: List[int] = []
        self._stage_timing = (profile, stack)
        for name, bucket in (
            ("_commit_stage", "commit"),
            ("_execute_stage", "execute"),
            ("_flush_arbitration", "flush"),
            ("_issue_stage", "issue"),
            ("_rename_stage", "rename"),
            ("_fetch_stage", "fetch"),
            ("_try_fast_forward", "fast_forward"),
        ):
            method = getattr(self, name)
            setattr(self, name, _timed(method, profile, bucket, stack))
        strategy = self.recovery_strategy
        strategy.step = _timed(strategy.step, profile, "recovery", stack)
        self._bind_observers()  # now with timed per-cycle hooks
        step = self.step

        def counted_step() -> None:
            profile["cycles"] += 1
            step()

        self.step = counted_step  # type: ignore[method-assign]

    # -- main loop ----------------------------------------------------------------

    def run(self, max_cycles: int = 2_000_000) -> RunResult:
        """Simulate until HALT commits or ``max_cycles`` elapse.

        Raises:
            SimulatorAssertion: The *Assert* outcome class.
            MemoryFault: The *Crash* outcome class.
            DeadlockError: Folded into the *Timeout* class by the campaign.
        """
        self.run_cycles(max_cycles)
        return self.result()

    def run_cycles(self, until_cycle: int) -> None:
        """Advance until ``self.cycle >= until_cycle`` or HALT commits.

        The stepping loop of :meth:`run` (same deadlock check) without the
        :meth:`result` construction, so callers that interleave simulation
        with state inspection — the differential convergence loop — don't
        pay an O(trace) trace copy per pause.
        """
        ff = self.fast_forward_enabled
        fabric = self.fabric
        deadlock_cycles = self.config.deadlock_cycles
        fetch_cap = self.config.fetch_buffer_entries
        step = self.step  # possibly the profiled instance binding
        while not self.halted and self.cycle < until_cycle:
            step()
            if self.cycle - self.last_progress_cycle > deadlock_cycles:
                raise DeadlockError(self.cycle)
            # Quiescence-aware fast-forward. The cheap discriminators run
            # inline so a busy core pays one int compare per cycle: a step
            # that made progress can never open a quiescent span, and a
            # front end still fetching changes state every cycle. The full
            # (stage-by-stage) quiescence proof lives in
            # _try_fast_forward, which jumps only when every stage is
            # provably a no-op until the next event.
            if (
                ff
                and self.last_progress_cycle != self.cycle
                and self.recovery is None
                and not self.pending_flushes
                and not self.halted
                and self.cycle < until_cycle
                and (
                    self.fetch_stalled
                    or len(self.fetch_queue) >= fetch_cap
                )
                and not fabric.any_armed
            ):
                self._try_fast_forward(until_cycle)

    def _try_fast_forward(self, until_cycle: int) -> None:
        """Bulk-advance over a span of provably event-free cycles.

        Caller (run_cycles) has already established: not halted, no
        recovery in progress, no pending flush, the signal fabric idle,
        and a fetch stage that cannot act (stalled or buffer full). This
        method completes the quiescence proof stage by stage -- commit,
        checkpoint anchor, rename, issue -- and jumps ``self.cycle`` to
        the earliest future event: the next execute completion, the
        deadlock horizon, or ``until_cycle``. Per-cycle observer hooks
        over the span are replayed in bulk through each listener's
        ``fast_forward`` method (ports.py protocol); per-cycle detector
        state and every save_state digest are exactly what step-by-step
        execution would have produced, or the jump is not taken.
        """
        rob = self.rob
        cfg = self.config
        if rob.empty:
            # The emergency checkpoint would mutate CKPT/RHT state.
            if self.rht.occupancy >= self.rht.capacity - cfg.width:
                return
            pipeline_empty = True
        else:
            slot = rob.head_slot
            uop = slot.uop if slot is not None else None
            if uop is not None and uop.state is UopState.DONE:
                return  # commit would make progress
            pipeline_empty = False
        if not self.ckpt.retire_settled(rob.head_pos, self.rht.head_pos):
            return  # anchor maintenance might still mutate CKPT/RHT
        if self.fetch_queue:
            # Rename must be structurally blocked on the head uop (gate
            # order mirrors _rename_stage: any one blocking gate stops
            # the whole group before the checkpoint-interval capture).
            if not rob.full and self.rht.occupancy < self.rht.capacity:
                head = self.fetch_queue[0]
                inst = head.inst
                eliminated = (
                    self.zero_pdst is not None
                    and self._zero_idiom_of[head.pc]
                )
                blocked = (
                    (
                        inst.writes_register
                        and not eliminated
                        and self.free_list.count <= 0
                    )
                    or (
                        self._needs_queue[head.pc]
                        and not eliminated
                        and len(self.issue_queue) >= cfg.issue_queue_entries
                    )
                    or (inst.is_store and self.store_queue.full)
                )
                if not blocked:
                    return  # rename would make progress
        # Issue: every actionable uop must stay un-issuable for the whole
        # span. Nothing writes the PRF before the next completion, so
        # source readiness is frozen; commit and rename are blocked, so
        # the store queue is frozen and a replay-stalled load stays
        # stalled. Source-blocked uops are left in the scan un-parked:
        # parking is save_state-invisible and the next real step re-parks
        # them with zero side effects.
        stalled_loads = 0
        prf = self.prf
        is_ready = prf.is_ready
        for uop in self._issue_scan:
            source_blocked = False
            for pdst in uop.src_pdsts:
                if not is_ready(pdst):
                    source_blocked = True
                    break
            if source_blocked:
                continue
            inst = uop.inst
            if not inst.is_load:
                return  # would issue
            address = (prf.read(uop.src_pdsts[0]) + inst.imm) & WORD_MASK
            must_stall, _ = self.store_queue.forward_for_load(
                uop.seq, address
            )
            if not must_stall:
                return  # the load would issue
            stalled_loads += 1
        if stalled_loads and self._on_load_replay:
            return  # per-cycle replay events are not bulk-replayable
        cycle = self.cycle
        target = until_cycle
        if self._min_finish - 1 < target:
            target = self._min_finish - 1
        deadlock_at = self.last_progress_cycle + cfg.deadlock_cycles + 1
        wedged = deadlock_at <= target
        if wedged:
            target = deadlock_at
        span = target - cycle
        if span <= 0:
            return
        self.cycle = target
        self.fabric.cycle = target
        if stalled_loads:
            # Each replay-stalled load retries (and counts) every cycle.
            self.stats["load_replays"] += stalled_loads * span
        for replay in self._ff_replay:
            replay(cycle, target, pipeline_empty)
        self.ff_cycles_skipped += span
        if wedged:
            # Mirror the lockstep loop exactly: hooks for the deadlock
            # cycle have fired (above) before the raise.
            raise DeadlockError(target)

    def result(self) -> RunResult:
        stats = dict(self.stats)
        stats["cycles"] = self.cycle
        return RunResult(
            program_name=self.program.name,
            cycles=self.cycle,
            halted=self.halted,
            output=list(self.output),
            commit_pcs=list(self.commit_pcs),
            commit_cycles=list(self.commit_cycles),
            stats=stats,
        )

    def step(self) -> None:
        """Advance one clock cycle."""
        cycle = self.cycle + 1
        self.cycle = cycle
        fabric = self.fabric
        fabric.cycle = cycle
        if self.recovery is not None:
            self.recovery_strategy.step()
            self.stats["recovery_cycles"] += 1
            self.last_progress_cycle = cycle
        else:
            self._commit_stage()
        # Stage gates: each skipped call is one the stage body would have
        # early-returned from (execute: nothing in flight finishes before
        # _min_finish; flush/issue: empty work lists), so gating is pure
        # call-overhead removal with identical state evolution.
        if self._min_finish <= cycle:
            self._execute_stage()
        if self.pending_flushes:
            self._flush_arbitration()
        if self._issue_scan:
            self._issue_stage()
        rob = self.rob
        if self.recovery is None and not self.halted:
            # Emergency-checkpoint guard inlined: it only ever applies to
            # an empty ROB with a nearly-full RHT, so the common cycle
            # pays two pointer compares instead of a call + properties.
            rht = self.rht
            if (
                rht._tail - rht._head >= self._rht_emergency
                and rob._tail - rob._head <= 0
            ):
                self._maybe_emergency_checkpoint()
            self._rename_stage()
            self._fetch_stage()
        if (
            self._on_pipeline_empty
            and rob._tail - rob._head <= 0
            and self.recovery is None
        ):
            for hook in self._on_pipeline_empty:
                hook(cycle)
        for hook in self._on_cycle_end:
            hook(cycle)
        if fabric.undefined_pdst is not None and self.recovery is None:
            # A corrupted RAT write named a register that does not exist.
            # The cycle-end hooks (IDLD's check among them) have seen this
            # cycle; no hardware behaviour is defined past it, so the run
            # ends here, before run_cycles can fast-forward. A write inside
            # a recovery flow ends the run when the flow ends instead
            # (RecoveryStrategy._finish), after IDLD's flow-end check.
            self.assert_defined_pdst()

    def assert_defined_pdst(self) -> None:
        """Raise the *Assert* outcome if a RAT write drove a PdstID that
        names no physical register (see
        :attr:`~repro.core.rrs.signals.SignalFabric.undefined_pdst`)."""
        driven = self.fabric.undefined_pdst
        if driven is not None:
            raise SimulatorAssertion(
                self.cycle,
                f"RAT write port drove PdstID {driven}, "
                f"outside 0..{self.config.num_physical_regs - 1}",
            )

    # -- commit -------------------------------------------------------------------

    def _commit_stage(self, blocked: Optional[set] = None) -> None:
        # Hot path: the head peek and occupancy test read the ROB ring
        # directly (the head_slot property plus two property reads per
        # attempt were a measurable slice of commit time); commit_read()
        # still drives the reclaim bus with its gating and events intact.
        rob = self.rob
        slots = rob._slots
        rob_capacity = rob.capacity
        cycle = self.cycle
        done = UopState.DONE
        committed = 0
        for _ in range(self.config.width):
            head = rob._head
            if rob._tail - head <= 0:
                break
            uop: Uop = slots[head % rob_capacity].uop
            if uop is None or uop.state is not done:
                break
            if blocked is not None and id(uop) in blocked:
                # Checkpoint-free drain: stop at a resolved mispredict whose
                # own flush is still pending -- the work behind it is
                # wrong-path and must never commit.
                break
            inst = uop.inst
            if uop.fault is not None:
                raise MemoryFault(cycle, uop.fault)
            if inst.is_store:
                self.memory.committed_write(cycle, uop.mem_address, uop.result)
                self.store_queue.release(uop.seq)
            elif inst.is_load:
                self.memory.check_committed_read(cycle, uop.mem_address)
            elif inst.opcode is Opcode.OUT:
                self.output.append(uop.result)
            reclaim_has_dest, reclaim_pdst = rob.commit_read()
            if reclaim_has_dest:
                self.free_list.push(reclaim_pdst)
            self.commit_pcs.append(uop.pc)
            self.commit_cycles.append(cycle)
            committed += 1
            if inst.is_halt:
                self.halted = True
                break
        if committed:
            self.last_progress_cycle = cycle
        # Anchor maintenance: retire old checkpoints, free RHT entries.
        # retire_settled is a pure memo peek; when it holds, retire_anchor
        # and advance_head would both no-op, so skipping them is identical.
        if not self.ckpt.retire_settled(rob._head, self.rht._head):
            anchor = self.ckpt.retire_anchor(rob._head)
            if anchor is not None:
                self.rht.advance_head(anchor.rht_pos)

    # -- execute ---------------------------------------------------------------------

    def _execute_stage(self) -> None:
        if not self.executing:
            self._min_finish = _NEVER
            return
        cycle = self.cycle
        still: List[Tuple[int, Uop]] = []
        min_finish = _NEVER
        for finish, uop in self.executing:
            if uop.state is UopState.SQUASHED:
                continue
            if finish <= cycle:
                self._complete(uop)
            else:
                still.append((finish, uop))
                if finish < min_finish:
                    min_finish = finish
        self.executing = still
        self._min_finish = min_finish

    def _complete(self, uop: Uop) -> None:
        inst = uop.inst
        pdst = uop.pdst
        if pdst is not None:
            # Writeback inlined: this is the hottest producer path.
            prf = self.prf
            prf._values[pdst] = uop.result
            prf._ready[pdst] = True
            waiters = self._wakeups.pop(pdst, None)
            if waiters is not None:
                for waiter in waiters:
                    waiter.wait_pdst = None
                    if waiter.state is not UopState.SQUASHED:
                        self._scan_insert(waiter)
        uop.state = UopState.DONE
        uop.done_cycle = self.cycle
        if inst.is_branch:
            mispredicted = (
                uop.taken != uop.predicted_taken
                or uop.actual_target != uop.predicted_target
            )
            self.predictor.update(uop.pred_state, uop.taken, mispredicted)
            if mispredicted:
                self.stats["mispredicts"] += 1
                self.pending_flushes.append(uop)

    # -- flush arbitration ----------------------------------------------------------------

    def _flush_arbitration(self) -> None:
        if not self.pending_flushes:
            return
        self.pending_flushes = [
            u for u in self.pending_flushes if u.state is not UopState.SQUASHED
        ]
        if self.recovery is not None or not self.pending_flushes:
            return
        offender = min(self.pending_flushes, key=lambda u: u.seq)
        self.pending_flushes.remove(offender)
        self._begin_recovery(offender)

    def _begin_recovery(self, offender: Uop) -> None:
        self.stats["flushes"] += 1
        for hook in self._on_recovery_begin:
            hook(self.cycle)
        f_seq = offender.seq
        rht_tail_at_flush = self.rht.tail_pos
        # Squash younger in-flight work everywhere.
        squashed = len(self.fetch_queue)
        self.fetch_queue = deque()
        for uop in self.issue_queue:
            if uop.seq > f_seq:
                uop.state = UopState.SQUASHED
        self.issue_queue = [u for u in self.issue_queue if u.seq <= f_seq]
        self._issue_scan = [
            u for u in self.issue_queue if u.wait_pdst is None
        ]
        for _, uop in self.executing:
            if uop.seq > f_seq:
                uop.state = UopState.SQUASHED
        self.executing = [(c, u) for c, u in self.executing if u.seq <= f_seq]
        min_finish = _NEVER
        for finish, _surv in self.executing:
            if finish < min_finish:
                min_finish = finish
        self._min_finish = min_finish
        # Every renamed in-flight uop owns a ROB slot, so the ROB walk (plus
        # the not-yet-renamed fetch queue) counts each squash exactly once.
        for slot in self.rob.live_slots():
            if slot.seq > f_seq and slot.uop is not None:
                slot.uop.state = UopState.SQUASHED
                squashed += 1
        for hook in self._on_flush_initiated:
            hook(self.cycle, f_seq, squashed)
        self.store_queue.squash_after(f_seq)
        # Everything from the ROB squash onward is scheme-specific.
        self.recovery_strategy.begin(offender, f_seq, rht_tail_at_flush)

    # -- issue / execute entry -----------------------------------------------------------------

    def _scan_insert(self, uop: Uop) -> None:
        """Re-enter a woken uop into the actionable scan at its seq slot."""
        scan = self._issue_scan
        seq = uop.seq
        if not scan or scan[-1].seq <= seq:
            scan.append(uop)
            return
        lo, hi = 0, len(scan)
        while lo < hi:
            mid = (lo + hi) // 2
            if scan[mid].seq < seq:
                lo = mid + 1
            else:
                hi = mid
        scan.insert(lo, uop)

    def _issue_stage(self) -> None:
        scan = self._issue_scan
        if not scan:
            return
        issued = 0
        width = self.config.issue_width
        keep: List[Uop] = []
        keep_append = keep.append
        changed = False
        # The issue attempt is inlined (formerly _try_issue): it runs once
        # per actionable uop per cycle, and nothing inside the loop writes
        # the PRF, so every port below is a loop invariant.
        prf = self.prf
        prf_read = prf.read
        is_ready = prf.is_ready
        wakeups = self._wakeups
        store_queue = self.store_queue
        memory_read = self.memory.read
        memory_limit = self.config.memory_limit
        latency_of = self._latency_of
        executing_append = self.executing.append
        cycle = self.cycle
        min_finish = self._min_finish
        stats = self.stats
        on_load_replay = self._on_load_replay
        executing_state = UopState.EXECUTING
        for i, uop in enumerate(scan):
            if issued >= width:
                # Width exhausted: the rest stays actionable, untried --
                # exactly what the full queue walk did.
                keep.extend(scan[i:])
                break
            inst = uop.inst
            # Wakeup check: park on the first not-ready source in operand
            # order.
            wait = None
            for pdst in uop.src_pdsts:
                if not is_ready(pdst):
                    wait = pdst
                    break
            if wait is not None:
                # Source-blocked: parked in the wakeup scoreboard.
                uop.wait_pdst = wait
                waiters = wakeups.get(wait)
                if waiters is None:
                    wakeups[wait] = [uop]
                else:
                    waiters.append(uop)
                changed = True
                continue
            if inst.is_load:
                # Loads check store-queue ordering before anything else: a
                # stalled load retries every cycle (replay counts and
                # events must match the unoptimized engine), so its path
                # reads only the address base instead of building the full
                # operand list.
                address = (prf_read(uop.src_pdsts[0]) + inst.imm) & WORD_MASK
                must_stall, forwarded = store_queue.forward_for_load(
                    uop.seq, address
                )
                if must_stall:
                    stats["load_replays"] += 1
                    for hook in on_load_replay:
                        hook(cycle, uop.seq)
                    # Replay-stalled load: must retry (and count) every
                    # cycle.
                    keep_append(uop)
                    continue
                uop.mem_address = address
                if address >= memory_limit:
                    uop.fault = address
                    uop.result = 0
                else:
                    uop.result = (
                        forwarded if forwarded is not None
                        else memory_read(address)
                    )
            else:
                values = [prf_read(p) for p in uop.src_pdsts]
                if inst.is_store:
                    address = (values[0] + inst.imm) & WORD_MASK
                    uop.mem_address = address
                    uop.result = values[1]
                    if address >= memory_limit:
                        uop.fault = address
                    store_queue.resolve(uop.seq, address, values[1])
                elif inst.is_branch:
                    uop.taken = branch_taken(inst.opcode, values[0], values[1])
                    uop.actual_target = (
                        inst.target if uop.taken else uop.pc + 1
                    )
                elif inst.opcode is Opcode.OUT:
                    uop.result = values[0]
                elif inst.opcode is Opcode.LI:
                    uop.result = inst.imm & WORD_MASK
                elif inst.uses_immediate:
                    uop.result = execute_op(inst.opcode, values[0], inst.imm)
                else:
                    uop.result = execute_op(inst.opcode, values[0], values[1])
            uop.state = executing_state
            finish = cycle + latency_of[uop.pc]
            executing_append((finish, uop))
            if finish < min_finish:
                min_finish = finish
            issued += 1
            changed = True
        self._min_finish = min_finish
        if changed:
            self._issue_scan = keep
        if issued:
            self.last_progress_cycle = self.cycle
            # Issued uops are EXECUTING now; everything still waiting keeps
            # its queue slot (and its claim on the issue-queue capacity).
            waiting = UopState.WAITING
            self.issue_queue = [
                u for u in self.issue_queue if u.state is waiting
            ]

    # -- rename --------------------------------------------------------------------------

    def _maybe_emergency_checkpoint(self) -> None:
        """Keep the RHT drainable when checkpoint slots ran dry.

        If nothing is in flight, the speculative RAT *is* the architectural
        RAT, so a checkpoint at the commit point is always legal; taking one
        lets the anchor advance and the RHT head move (see checkpoint.py).
        """
        if (
            self.rob.empty
            and self.rht.occupancy >= self.rht.capacity - self.config.width
        ):
            slot = self.ckpt.take(
                self.rob.head_pos,
                self.rht.tail_pos,
                self.rat.snapshot(),
                force=True,
            )
            if slot is not None:
                anchor = self.ckpt.retire_anchor(self.rob.head_pos)
                if anchor is not None:
                    self.rht.advance_head(anchor.rht_pos)

    def _rename_stage(self) -> None:
        fetch_queue = self.fetch_queue
        if not fetch_queue:
            return
        cfg = self.config
        rob = self.rob
        rht = self.rht
        rat = self.rat
        free_list = self.free_list
        issue_queue = self.issue_queue
        store_queue = self.store_queue
        ckpt = self.ckpt
        stats = self.stats
        rob_capacity = rob.capacity
        rht_capacity = rht.capacity
        iq_capacity = cfg.issue_queue_entries
        ckpt_interval = cfg.checkpoint_interval
        zero_pdst = self.zero_pdst
        zero_elim = zero_pdst is not None
        zero_idiom_of = self._zero_idiom_of
        needs_queue_of = self._needs_queue
        sources_of = self._sources_of
        # Per-uop rename work is inlined (formerly _rename_one) so the port
        # bindings below are hoisted once per cycle instead of once per
        # renamed instruction.
        rat_read = rat.read
        rat_write = rat.write
        rht_log = rht.log
        rob_allocate = rob.allocate
        free_pop = free_list.pop
        prf_mark = self.prf.mark_pending
        iq_append = issue_queue.append
        scan_append = self._issue_scan.append
        popleft = fetch_queue.popleft
        cycle = self.cycle
        waiting = UopState.WAITING
        done = UopState.DONE
        renamed = 0
        for _ in range(cfg.width):
            if not fetch_queue:
                break
            # Structural gates first (all pure checks, so the order among
            # them is free): a back-pressured cycle breaks before paying
            # for the per-instruction idiom/queue classification. The ROB
            # and RHT occupancy tests read the ring pointers directly;
            # FL count must go through the property because a suppressed
            # (bug-gated) pop freezes it mid-group.
            if rob._tail - rob._head >= rob_capacity:
                break
            if rht._tail - rht._head >= rht_capacity:
                break
            uop = fetch_queue[0]
            inst = uop.inst
            pc = uop.pc
            eliminated = zero_elim and zero_idiom_of[pc]
            needs_queue = needs_queue_of[pc] and not eliminated
            if inst.writes_register and not eliminated and free_list.count <= 0:
                break
            if needs_queue and len(issue_queue) >= iq_capacity:
                break
            if inst.is_store and store_queue.full:
                break
            if self.allocs_since_checkpoint >= ckpt_interval:
                taken = ckpt.take(rob._tail, rht._tail, rat.snapshot())
                if taken is not None:
                    stats["checkpoints"] += 1
                    self.allocs_since_checkpoint = 0
                else:
                    stats["checkpoints_skipped"] += 1
            popleft()
            seq = rob._tail
            uop.seq = seq
            if eliminated:
                # Eliminated at rename: no Pdst allocation, no execution.
                # The RAT points the destination at the shared zero
                # register with the duplicate-marking signal asserted.
                rd = inst.rd
                evicted = rat_read(rd)
                rat.write_zero_idiom(rd)
                rht_log(True, rd, zero_pdst)
                rob_allocate(seq, uop, True, evicted, zero_pdst)
                uop.pdst = None
                uop.evicted_pdst = evicted
                uop.src_pdsts = []
                uop.state = done
                uop.done_cycle = cycle
            else:
                uop.src_pdsts = [rat_read(s) for s in sources_of[pc]]
                if inst.writes_register:
                    rd = inst.rd
                    pdst = free_pop()
                    evicted = rat_read(rd)
                    rat_write(rd, pdst)
                    # The RHT taps the allocation bus before the RAT write
                    # port, so it logs the *uncorrupted* identifier
                    # (Section III.B: a corrupted PdstID "is possible to
                    # recover... from RHT").
                    rht_log(True, rd, pdst)
                    rob_allocate(seq, uop, True, evicted, pdst)
                    prf_mark(pdst)
                    uop.pdst = pdst
                    uop.evicted_pdst = evicted
                else:
                    rht_log(False, 0, 0)
                    rob_allocate(seq, uop, False, 0, -1)
                if inst.is_store:
                    store_queue.allocate(seq)
                if needs_queue:
                    uop.state = waiting
                    iq_append(uop)
                    scan_append(uop)
                else:
                    uop.state = done
                    uop.done_cycle = cycle
            renamed += 1
            self.allocs_since_checkpoint += 1
        if renamed:
            stats["renamed"] += renamed
            self.last_progress_cycle = cycle

    @staticmethod
    def _needs_issue_queue(inst: Instruction) -> bool:
        return inst.opcode not in (Opcode.NOP, Opcode.JMP, Opcode.HALT)

    # -- fetch ------------------------------------------------------------------------------

    def _fetch_stage(self) -> None:
        if self.fetch_stalled:
            return
        cfg = self.config
        fetch_queue = self.fetch_queue
        buffer_entries = cfg.fetch_buffer_entries
        instructions = self.program.instructions
        program_len = len(self.program)
        cycle = self.cycle
        pc = self.fetch_pc
        fetched = 0
        for _ in range(cfg.width):
            if len(fetch_queue) >= buffer_entries:
                break
            if not 0 <= pc < program_len:
                self.fetch_stalled = True
                break
            inst = instructions[pc]
            uop = Uop(seq=-1, pc=pc, inst=inst, fetch_cycle=cycle)
            fetched += 1
            fetch_queue.append(uop)
            if inst.is_halt:
                self.fetch_stalled = True
                break
            if inst.is_jump:
                pc = inst.target
            elif inst.is_branch:
                predicted, uop.pred_state = self.predictor.predict(pc)
                uop.predicted_taken = predicted
                target = inst.target if predicted else pc + 1
                uop.predicted_target = target
                pc = target
            else:
                pc += 1
        self.fetch_pc = pc
        if fetched:
            self.stats["fetched"] += fetched

    # -- warm-start snapshot/restore ----------------------------------------------------------

    def save_state(self, light_trace: bool = False) -> dict:
        """Capture the complete dynamic core state as plain containers.

        In-flight :class:`Uop` objects are interned so the identity sharing
        between the fetch/issue/execute queues, the flush list, and the ROB
        slots survives a round trip. ``inst`` references are not stored;
        they are re-derived from each uop's ``pc`` on load.

        With ``light_trace`` the (monotonically growing) output and commit
        traces are stored as *lengths* only; :meth:`load_state` then slices
        the prefixes out of the golden :class:`RunResult` the snapshot came
        from. This keeps per-snapshot cost O(pipeline), not O(trace).
        """
        uops: List[Uop] = []
        index: Dict[int, int] = {}

        def ref(uop: Optional[Uop]) -> int:
            if uop is None:
                return -1
            key = id(uop)
            pos = index.get(key)
            if pos is None:
                pos = len(uops)
                index[key] = pos
                uops.append(uop)
            return pos

        fetch_queue = tuple(ref(u) for u in self.fetch_queue)
        issue_queue = tuple(ref(u) for u in self.issue_queue)
        executing = tuple((finish, ref(u)) for finish, u in self.executing)
        pending_flushes = tuple(ref(u) for u in self.pending_flushes)
        rob = self.rob.save_state(ref)
        recovery = self.recovery_strategy.save_recovery()
        if light_trace:
            trace = (len(self.output), len(self.commit_pcs))
        else:
            trace = (
                list(self.output),
                list(self.commit_pcs),
                list(self.commit_cycles),
            )
        return {
            "cycle": self.cycle,
            "halted": self.halted,
            "fetch_pc": self.fetch_pc,
            "fetch_stalled": self.fetch_stalled,
            "allocs_since_checkpoint": self.allocs_since_checkpoint,
            "last_progress_cycle": self.last_progress_cycle,
            "stats": dict(self.stats),
            "light_trace": light_trace,
            "trace": trace,
            "uops": tuple(u.save_state() for u in uops),
            "fetch_queue": fetch_queue,
            "issue_queue": issue_queue,
            "executing": executing,
            "pending_flushes": pending_flushes,
            "recovery": recovery,
            "rob": rob,
            "free_list": self.free_list.save_state(),
            "rat": self.rat.save_state(),
            "rht": self.rht.save_state(),
            "ckpt": self.ckpt.save_state(),
            "prf": self.prf.save_state(),
            "memory": self.memory.save_state(),
            "store_queue": self.store_queue.save_state(),
            "predictor": self.predictor.save_state(),
            "parity": {
                name: store.save_state()
                for name, store in self.parity.items()
            },
        }

    def load_state(
        self,
        state: dict,
        trace_source: Optional[RunResult] = None,
    ) -> None:
        """Restore a :meth:`save_state` snapshot into this core.

        The core must have been constructed over the same program and
        config the snapshot came from. The fabric's clock is synchronized
        but its armings are untouched, so a freshly-armed injection fabric
        resumes with its bug still pending.
        """
        instructions = self.program.instructions
        uops = [
            Uop.from_state(data, instructions[data[1]])
            for data in state["uops"]
        ]
        self.cycle = state["cycle"]
        self.fabric.cycle = state["cycle"]
        self.halted = state["halted"]
        self.fetch_pc = state["fetch_pc"]
        self.fetch_stalled = state["fetch_stalled"]
        self.allocs_since_checkpoint = state["allocs_since_checkpoint"]
        self.last_progress_cycle = state["last_progress_cycle"]
        self.stats = dict(state["stats"])
        self.fetch_queue = deque(uops[i] for i in state["fetch_queue"])
        self.issue_queue = [uops[i] for i in state["issue_queue"]]
        # Restored uops all carry wait_pdst=None, so the whole queue starts
        # actionable; blocked ones re-park on their first (side-effect-free)
        # failed attempt.
        self._issue_scan = list(self.issue_queue)
        self.executing = [(finish, uops[i]) for finish, i in state["executing"]]
        min_finish = _NEVER
        for finish, _u in self.executing:
            if finish < min_finish:
                min_finish = finish
        self._min_finish = min_finish
        self.pending_flushes = [uops[i] for i in state["pending_flushes"]]
        # Restored uops come back with wait_pdst=None: each blocked uop
        # retries once (a no-side-effect failure) and re-blocks, so the
        # scoreboard never needs to be part of the snapshot.
        self._wakeups = {}
        self.recovery = self.recovery_strategy.load_recovery(state["recovery"])
        if state["light_trace"]:
            if trace_source is None:
                raise ValueError(
                    "light-trace snapshot needs the golden RunResult it "
                    "was captured from"
                )
            out_len, committed = state["trace"]
            self.output = list(trace_source.output[:out_len])
            self.commit_pcs = list(trace_source.commit_pcs[:committed])
            self.commit_cycles = list(trace_source.commit_cycles[:committed])
        else:
            output, commit_pcs, commit_cycles = state["trace"]
            self.output = list(output)
            self.commit_pcs = list(commit_pcs)
            self.commit_cycles = list(commit_cycles)
        self.rob.load_state(state["rob"], uops)
        self.free_list.load_state(state["free_list"])
        self.rat.load_state(state["rat"])
        self.rht.load_state(state["rht"])
        self.ckpt.load_state(state["ckpt"])
        self.prf.load_state(state["prf"])
        self.memory.load_state(state["memory"])
        self.store_queue.load_state(state["store_queue"])
        self.predictor.load_state(state["predictor"])
        for name, sub in state["parity"].items():
            if name in self.parity:
                self.parity[name].load_state(sub)

    def fingerprint(self) -> tuple:
        """A cheap structural digest used as a convergence pre-filter.

        Every component is a function of :meth:`save_state`-visible state
        (never of ``stats``, which the differential deep compare excludes):
        if two states are structurally equal their fingerprints are equal,
        so a fingerprint mismatch cheaply rules out the expensive deep
        compare without ever ruling out a true convergence. The free-list
        count comes last: the relabelling check
        (:func:`repro.bugs.differential.relabelled`) compares the rest and
        reads how many identifiers the variant lacks from it.
        """
        return (
            self.halted,
            self.fetch_pc,
            self.fetch_stalled,
            len(self.output),
            len(self.commit_pcs),
            len(self.fetch_queue),
            len(self.issue_queue),
            len(self.executing),
            len(self.pending_flushes),
            self.recovery is None,
            self.allocs_since_checkpoint,
            self.last_progress_cycle,
            self.rht.occupancy,
            self.free_list.count,
        )

    # -- probes -------------------------------------------------------------------------------

    def rrs_id_census(self) -> Dict[int, int]:
        """Count where every PdstID currently lives across FL/RAT/ROB.

        The closed-loop invariant (Section V.A) says this is exactly
        {0..P-1}, once each, whenever the pipeline is quiescent. The
        persistence probe (Figure 4) calls this after HALT commits.
        """
        census: Dict[int, int] = {}
        for pdst in self.free_list.contents():
            census[pdst] = census.get(pdst, 0) + 1
        for pdst in self.rat.snapshot():
            if pdst != self.zero_pdst:
                census[pdst] = census.get(pdst, 0) + 1
        for pdst in self.rob.live_evicted_ids():
            census[pdst] = census.get(pdst, 0) + 1
        return census

    def census_is_clean(self) -> bool:
        """True when every PdstID appears exactly once in the census."""
        census = self.rrs_id_census()
        if len(census) != self.config.num_physical_regs:
            return False
        return all(count == 1 for count in census.values())
