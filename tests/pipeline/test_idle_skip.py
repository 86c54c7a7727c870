"""Idle-cycle skipping against the plain-tick oracle.

:meth:`Simulator.run` jumps over cycles in which every stage's tick
would be a no-op; :meth:`Simulator.step` stays the one-cycle reference.
Every scenario here runs twice — once through the real ``run`` and once
through a plain ``step`` loop (the pre-skip ``run``) — and must give the
same ``SimStats`` and the same machine-state digest at every ``run``
return.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.checkpoint.sampling import SamplingSpec, run_sampled_chained
from repro.core.presets import make_config
from repro.experiments.engine import cell_payload, simulate_payload
from repro.isa.rv32i.corpus import bundled_workload
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import Commit, InvariantChecker, SimulationError, Stage, Writeback
from repro.pipeline.stages.base import NEVER, declares_next_event
from repro.telemetry.probes import OccupancyProbe
from repro.telemetry.stages import TelemetryWriteback
from repro.traces.registry import resolve_workload
from repro.workloads.suite import get_workload

from tests.golden.test_golden_results import CELLS, VOLUMES

SKIP_RUN = Simulator.run
PLAIN_STEP = Simulator.step


def plain_run(sim, max_uops=None, max_cycles=None):
    """The oracle: tick every cycle (``run`` before idle skipping)."""
    stats = sim.stats
    uop_budget = float("inf") if max_uops is None else max_uops
    cycle_budget = float("inf") if max_cycles is None else max_cycles
    while not sim.done and stats.committed_uops < uop_budget and stats.cycles < cycle_budget:
        sim.step()
    return stats


def state_digest(sim) -> str:
    return hashlib.sha256(pickle.dumps(sim.state_dict(), protocol=4)).hexdigest()


class Recording:
    """Runs a scenario with a given ``run`` implementation, logging
    stats and state digest at every ``run`` return and counting
    ``step`` calls."""

    def __init__(self, monkeypatch, run_impl):
        self.log = []
        self.steps = 0
        recording = self

        def run(sim, max_uops=None, max_cycles=None):
            stats = run_impl(sim, max_uops, max_cycles)
            recording.log.append((stats.to_dict(), state_digest(sim)))
            return stats

        def step(sim):
            recording.steps += 1
            PLAIN_STEP(sim)

        monkeypatch.setattr(Simulator, "run", run)
        monkeypatch.setattr(Simulator, "step", step)


def against_oracle(monkeypatch, scenario):
    """Run ``scenario()`` skipping and plain; assert identical results
    and logs; return (skip recording, plain recording)."""
    recordings = []
    results = []
    for run_impl in (SKIP_RUN, plain_run):
        recording = Recording(monkeypatch, run_impl)
        results.append(scenario())
        recordings.append(recording)
    skip, plain = recordings
    assert results[0] == results[1]
    assert skip.log == plain.log
    assert skip.log, "scenario never called run()"
    return skip, plain


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_golden_cells_match_plain_ticking(monkeypatch, cell_id):
    cell = CELLS[cell_id]
    payload = cell_payload(
        cell["preset"], get_workload(cell["workload"]), banked=cell["banked"], **VOLUMES
    )
    skip, plain = against_oracle(monkeypatch, lambda: simulate_payload(payload))
    assert skip.steps <= plain.steps


@pytest.mark.parametrize("workload", ["libquantum", "ptr-chase"])
@pytest.mark.parametrize("preset", ["SpecSched_4", "SpecSched_4_Crit"])
def test_memory_bound_cells_match_plain_ticking(monkeypatch, workload, preset):
    resolved = resolve_workload(workload)

    def scenario():
        sim = Simulator(make_config(preset), resolved.build_trace(1))
        sim.functional_warmup(resolved.build_trace(1), 5_000)
        return sim.run_with_warmup(500, 2_000).to_dict()

    skip, plain = against_oracle(monkeypatch, scenario)
    if workload == "libquantum":
        assert skip.steps < plain.steps      # the skip did fire


def test_rv32i_kernel_matches_plain_ticking_under_the_checker(monkeypatch):
    workload = bundled_workload("memcpy-stream")

    def scenario():
        sim = Simulator(
            make_config("Baseline_0"), workload.build_trace(1), extra_stages=[InvariantChecker]
        )
        return sim.run_with_warmup(300, 2_000).to_dict()

    against_oracle(monkeypatch, scenario)


def test_sampled_chained_cell_matches_plain_ticking(monkeypatch):
    spec = SamplingSpec(
        intervals=2, interval_uops=600, warmup_uops=200, period_uops=6_000, offset_uops=4_000
    )

    def scenario():
        result = run_sampled_chained("mcf", "SpecSched_4_Crit", spec, seed=1)
        return [stats.to_dict() for stats in result.interval_stats]

    skip, plain = against_oracle(monkeypatch, scenario)
    assert skip.steps < plain.steps


def test_max_cycles_stops_at_the_same_cycle(monkeypatch):
    workload = get_workload("mcf")

    def scenario():
        sim = Simulator(make_config("SpecSched_4"), workload.build_trace(1))
        sim.functional_warmup(workload.build_trace(1), 5_000)
        stops = []
        # A budget every 97 cycles lands inside DRAM-miss gaps too.
        for budget in range(97, 6_000, 97):
            sim.run(max_cycles=budget)
            stops.append((sim.stats.cycles, sim.now))
        assert [cycles for cycles, _ in stops] == list(range(97, 6_000, 97))
        return stops

    skip, plain = against_oracle(monkeypatch, scenario)
    assert skip.steps < plain.steps


class StuckCommit(Commit):
    """A wedged machine: commit never retires (and says so)."""

    def tick(self, now):
        pass

    def next_event(self, now):
        return NEVER


def test_wedged_machine_deadlocks_at_the_same_cycle(monkeypatch):
    def scenario():
        sim = Simulator(
            make_config("SpecSched_4"),
            get_workload("gzip").build_trace(1),
            stage_overrides={"commit": StuckCommit},
        )
        sim.DEADLOCK_LIMIT = 20_000
        with pytest.raises(SimulationError, match="no commit for 20000 cycles") as info:
            sim.run(max_cycles=50_000)
        return str(info.value), sim.stats.to_dict(), state_digest(sim)

    recordings = []
    results = []
    for run_impl in (SKIP_RUN, plain_run):
        recordings.append(Recording(monkeypatch, run_impl))
        results.append(scenario())
    assert results[0] == results[1]
    assert "at cycle 20001" in results[0][0]
    skip, plain = recordings
    assert skip.steps * 10 < plain.steps


class TickCounter(Stage):
    """An undeclared extra stage: counts its ticks."""

    name = "tick_counter"
    after = "bookkeep"

    def __init__(self, sim):
        super().__init__(sim)
        self.ticks = 0

    def tick(self, now):
        self.ticks += 1


def test_undeclared_extra_stage_keeps_plain_ticking(monkeypatch):
    recording = Recording(monkeypatch, SKIP_RUN)
    sim = Simulator(
        make_config("SpecSched_4"), get_workload("mcf").build_trace(1), extra_stages=[TickCounter]
    )
    sim.run(max_uops=1_500)
    assert sim.stage("tick_counter").ticks == sim.stats.cycles == recording.steps


def test_occupancy_probe_histograms_match_plain_ticking(monkeypatch):
    def scenario():
        sim = Simulator(
            make_config("SpecSched_4_Crit"),
            get_workload("libquantum").build_trace(1),
            extra_stages=[OccupancyProbe],
        )
        sim.run(max_uops=1_500)
        probe = sim.stage(OccupancyProbe.name)
        assert probe.cycles == sim.stats.cycles
        return probe.summary()

    skip, plain = against_oracle(monkeypatch, scenario)
    assert skip.steps == plain.steps


def test_restored_run_continues_like_an_uninterrupted_one():
    workload = get_workload("mcf")
    config = make_config("SpecSched_4_Crit")
    reference = Simulator(config, workload.build_trace(1))
    reference.run(max_uops=3_000)

    first = Simulator(config, workload.build_trace(1))
    first.run(max_uops=1_200)
    restored = Simulator(config, workload.build_trace(1))
    calendars = (restored.scoreboard.events, restored.replay.events)
    restored.load_state_dict(pickle.loads(pickle.dumps(first.state_dict())))
    # Restores refill the calendars in place: references bound by the
    # stages (and by run) stay valid.
    assert (restored.scoreboard.events, restored.replay.events) == calendars
    assert restored.scoreboard.events is calendars[0]
    assert restored.replay.events is calendars[1]
    restored.run(max_uops=3_000)
    assert restored.stats.to_dict() == reference.stats.to_dict()
    assert state_digest(restored) == state_digest(reference)


class TestDeclaresNextEvent:
    def test_default_stages_declare(self):
        sim = Simulator(make_config("SpecSched_4"), get_workload("gzip").build_trace(1))
        assert all(declares_next_event(stage) for stage in sim.stages)

    def test_base_default_and_tick_override_do_not(self):
        class LateTick(Writeback):
            def tick(self, now):
                super().tick(now)

        sim = Simulator(
            make_config("SpecSched_4"),
            get_workload("gzip").build_trace(1),
            stage_overrides={"writeback": LateTick},
            extra_stages=[TickCounter],
        )
        assert not declares_next_event(sim.stage("writeback"))
        assert not declares_next_event(sim.stage("tick_counter"))

    def test_telemetry_writeback_redeclares(self):
        sim = Simulator(
            make_config("SpecSched_4"),
            get_workload("gzip").build_trace(1),
            stage_overrides={"writeback": TelemetryWriteback},
        )
        assert declares_next_event(sim.stage("writeback"))

    def test_instance_patched_tick_does_not(self):
        sim = Simulator(make_config("SpecSched_4"), get_workload("gzip").build_trace(1))
        commit = sim.stage("commit")
        commit.tick = lambda now: None
        assert not declares_next_event(commit)
