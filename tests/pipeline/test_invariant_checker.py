"""Checked-invariants mode: the golden cells and the RV32I corpus run
clean under :class:`InvariantChecker`, and each invariant it guards
actually trips when the machine is broken on purpose."""

from __future__ import annotations

import json

import pytest

from repro.core.presets import make_config
from repro.isa.rv32i.corpus import BUNDLED, bundled_workload
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import InvariantChecker, InvariantViolation, SimulationError
from repro.workloads.suite import get_workload

from tests.golden.test_golden_results import CELLS, GOLDEN_PATH, VOLUMES


@pytest.mark.parametrize("cell_id", sorted(CELLS))
def test_golden_cells_pass_checked_and_match_goldens(cell_id):
    cell = CELLS[cell_id]
    workload = get_workload(cell["workload"])
    seed = VOLUMES["seed"]
    sim = Simulator(make_config(cell["preset"], banked=cell["banked"]),
                    workload.build_trace(seed), extra_stages=[InvariantChecker])
    sim.functional_warmup(workload.build_trace(seed), VOLUMES["functional_warmup_uops"])
    stats = sim.run_with_warmup(VOLUMES["warmup_uops"], VOLUMES["measure_uops"])
    # Observation only: the checked run reproduces the golden counters.
    assert stats.to_dict() == json.loads(GOLDEN_PATH.read_text())[cell_id]


@pytest.mark.parametrize("name", sorted(BUNDLED))
@pytest.mark.parametrize("preset", ["Baseline_0", "SpecSched_4_Crit"])
def test_rv32i_kernels_pass_checked(name, preset):
    workload = bundled_workload(name)
    sim = Simulator(make_config(preset), workload.build_trace(1), extra_stages=[InvariantChecker])
    stats = sim.run_with_warmup(500, 2_500)
    # The warmup can overshoot its budget by part of a retire group.
    assert stats.committed_uops > 2_500 - sim.config.core.retire_width


def test_checker_is_anchored_after_bookkeep_and_owns_no_state():
    sim = Simulator(make_config("SpecSched_4"), get_workload("gzip").build_trace(1),
                    extra_stages=[InvariantChecker])
    names = [stage.name for stage in sim.stages]
    assert names[names.index("bookkeep") + 1] == "check_invariants"
    sim.run(max_uops=500)
    assert "stages" not in sim.state_dict()   # checkpoint layout unchanged


def _checked_sim(workload="gzip", preset="SpecSched_4"):
    return Simulator(make_config(preset), get_workload(workload).build_trace(1),
                     extra_stages=[InvariantChecker])


def test_unbounded_fetch_trips_the_frontend_capacity():
    sim = _checked_sim("libquantum", "SpecSched_4_Crit")
    sim.fetch._fetch_limit = 10**9           # the pre-bound frontend
    with pytest.raises(InvariantViolation) as info:
        sim.run(max_uops=3_000)
    assert info.value.structure == "frontend"
    assert f"cycle {info.value.cycle}" in str(info.value)
    assert isinstance(info.value, SimulationError)


def test_a_leaked_uop_trips_conservation():
    sim = _checked_sim()
    sim.run(max_uops=300)
    sim.fetch.pipe.pop()                     # a µop vanishes, uncounted
    with pytest.raises(InvariantViolation) as info:
        sim.step()
    assert info.value.structure == "conservation"
    assert info.value.cycle == sim.now      # raised mid-step


def test_out_of_order_retirement_trips_commit_order():
    sim = _checked_sim()
    sim.run(max_uops=300)
    while len(sim.rob) < 2:
        sim.step()
    first, second = list(sim.rob)[:2]
    second.seq = first.seq                   # a duplicate commit seq
    with pytest.raises(InvariantViolation) as info:
        sim.run(max_uops=sim.stats.committed_uops + 500)
    assert info.value.structure == "commit"


@pytest.mark.parametrize("calendar", ["scoreboard", "replay", "exec_latch", "completion_latch"])
def test_a_past_calendar_key_trips_the_calendar_check(calendar):
    sim = _checked_sim()
    sim.run(max_uops=300)
    dicts = {
        "scoreboard": sim.scoreboard.events,
        "replay": sim.replay.events,
        "exec_latch": sim.exec_latch.slots,
        "completion_latch": sim.completion_latch.slots,
    }
    dicts[calendar][sim.now - 1] = []      # an entry no consumer will pop
    with pytest.raises(InvariantViolation) as info:
        sim.step()
    assert info.value.structure == calendar


def test_checked_runs_skip_idle_cycles():
    sim = _checked_sim("mcf", "SpecSched_4_Crit")
    steps = 0
    step = sim.step

    def counted():
        nonlocal steps
        steps += 1
        step()

    sim.step = counted
    sim.run(max_uops=2_000)
    assert steps < sim.stats.cycles


def test_restore_rebaselines_the_ledger():
    sim = _checked_sim("mcf", "SpecSched_4_Crit")
    sim.run(max_uops=2_000)
    assert sim.fetch.squashed + sim.rob.squashed > 0
    restored = _checked_sim("mcf", "SpecSched_4_Crit")
    restored.load_state_dict(sim.state_dict())   # squash counts start over
    restored.run(max_uops=4_000)
    sim.run(max_uops=4_000)
    assert restored.stats.to_dict() == sim.stats.to_dict()
