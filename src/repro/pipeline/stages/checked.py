"""Checked-invariants mode: an end-of-cycle stage asserting the machine
stays bounded and conserves µops.

Off by default; install it through the ``extra_stages`` seam::

    sim = Simulator(config, trace, extra_stages=[InvariantChecker])

Anchored after ``bookkeep``, it observes each *complete* cycle and
raises :class:`InvariantViolation` (a :class:`SimulationError`) naming
the cycle and the structure the moment one of these breaks:

* **capacity** — the ROB, IQ, load queue, store queue and frontend
  (pipe plus virtual wrong-path µops) hold no more than their declared
  :class:`~repro.common.config.CoreConfig` capacities;
* **conservation** — fetched µops = committed + in flight (frontend +
  ROB) + squashed (frontend redirects + ROB squashes). The ledger is
  exact from a cold start; after a checkpoint restore it re-baselines
  (squash counts are observation-only and not checkpointed) and must
  then stay balanced;
* **commit order** — retired µops' ``seq`` numbers strictly increase;
* **calendars** — no scoreboard, latch or replay calendar holds a key
  at or before the cycle just completed: such an entry would never be
  popped, so it would leak and pin the idle-skip horizon.

It reads shared structures and never writes them, so a checked run's
``SimStats`` are bit-identical to an unchecked one's; it declares no
horizon of its own (``next_event`` is never), so checked runs exercise
the driver's idle-cycle skip too — skipped cycles change no state. The
cost (an ROB snapshot per cycle) is why it is opt-in.
"""

from __future__ import annotations

from typing import List, Optional

from repro.isa.uop import MicroOp
from repro.pipeline.stages.base import NEVER, SimulationError, Stage


class InvariantViolation(SimulationError):
    """A checked invariant failed; ``cycle`` and ``structure`` say where."""

    def __init__(self, cycle: int, structure: str, detail: str) -> None:
        super().__init__(f"invariant violated at cycle {cycle} in {structure}: {detail}")
        self.cycle = cycle
        self.structure = structure


class InvariantChecker(Stage):
    """Per-cycle capacity, µop-conservation and commit-order assertions."""

    name = "check_invariants"
    after = "bookkeep"

    def __init__(self, sim) -> None:
        """Bind the structures and their declared capacities."""
        super().__init__(sim)
        core = sim.config.core
        self.frontend = sim.fetch
        self.rob = sim.rob
        self.capacities = (
            ("rob", core.rob_entries),
            ("iq", core.iq_entries),
            ("lq", core.lq_entries),
            ("sq", core.sq_entries),
            ("frontend", core.fetch_queue_entries),
        )
        self.calendars = (
            ("exec_latch", sim.exec_latch.slots),
            ("completion_latch", sim.completion_latch.slots),
            ("scoreboard", sim.scoreboard.events),
            ("replay", sim.replay.events),
        )
        self._reset(balance=0)

    def _reset(self, balance: Optional[int]) -> None:
        # ``None`` re-baselines on the next tick (after a restore).
        self._balance = balance
        self._rob_snapshot: Optional[List[MicroOp]] = None
        self._retired = self.rob.retired
        self._last_commit_seq = -1

    def _ledger(self) -> int:
        """fetched − committed − in flight − squashed (0 when conserved)."""
        frontend, rob = self.frontend, self.rob
        fetched = frontend.fetched_correct + frontend.fetched_wrong
        in_flight = frontend.occupancy + len(rob)
        return fetched - rob.retired - in_flight - frontend.squashed - rob.squashed

    def tick(self, now: int) -> None:
        """Check the cycle that just completed."""
        occupancy = self.sim.occupancy()
        for structure, capacity in self.capacities:
            if occupancy[structure] > capacity:
                raise InvariantViolation(
                    now, structure, f"occupancy {occupancy[structure]} exceeds capacity {capacity}"
                )
        balance = self._ledger()
        if self._balance is None:
            self._balance = balance
        elif balance != self._balance:
            raise InvariantViolation(
                now,
                "conservation",
                f"fetched - committed - in flight - squashed = {balance}, "
                f"expected {self._balance}",
            )
        self._check_commit_order(now)
        for structure, calendar in self.calendars:
            if calendar and min(calendar) <= now:
                raise InvariantViolation(
                    now, structure, f"calendar entry for past cycle {min(calendar)} never pops"
                )

    def next_event(self, now: int) -> int:
        """Never: a pure observer, and skipped cycles change no state."""
        return NEVER

    def _check_commit_order(self, now: int) -> None:
        # Commit ticks first, so this cycle's retirees are the head of
        # the ROB as the previous cycle left it.
        rob = self.rob
        retired = rob.retired - self._retired
        self._retired = rob.retired
        snapshot = self._rob_snapshot
        if snapshot is not None and retired:
            if retired > len(snapshot):
                raise InvariantViolation(
                    now, "commit", f"{retired} µops retired from a {len(snapshot)}-entry ROB"
                )
            last = self._last_commit_seq
            for uop in snapshot[:retired]:
                if uop.seq <= last:
                    raise InvariantViolation(
                        now, "commit", f"seq {uop.seq} retired after seq {last}"
                    )
                last = uop.seq
            self._last_commit_seq = last
        self._rob_snapshot = list(rob)

    # -- state protocol (repro.checkpoint) -------------------------------

    def load_state_dict(self, state, ctx) -> None:
        """A restore replaces the machine under the checker: re-baseline."""
        self._reset(balance=None)
