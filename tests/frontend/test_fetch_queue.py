"""The bounded frontend: fetch respects ``fetch_queue_entries``.

Before the bound, fetch ran ahead of a stalled backend without limit: on
libquantum the pipe grew past 350k µops while ~9k committed, and
``run_sampled_chained`` carried that stale pipe across fast-forwards
(72k fetched-but-uncommitted µops after interval 1, 263k after interval
4), so every later interval measured the wrong region of the stream.
"""

from __future__ import annotations

import pickle

import pytest

from repro.checkpoint.sampling import SamplingSpec, run_sampled_chained
from repro.common.config import CoreConfig
from repro.common.stats import SimStats
from repro.core.presets import make_config
from repro.frontend.branch_unit import BranchUnit
from repro.frontend.fetch import REDIRECT_BUBBLE, FetchStage
from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import InvariantChecker
from repro.traces.registry import resolve_workload


def alu(pc):
    return MicroOp(0, pc, OpClass.INT_ALU, srcs=[1], dst=2)


def make_fetch(uops, delay=4):
    core = CoreConfig(issue_to_execute_delay=delay)
    return FetchStage(ListTrace(uops), BranchUnit(), core, SimStats())


def mispredicting_branch(pc=0x10):
    # Taken, but a cold BTB predicts fall-through: a mispredict.
    return MicroOp(0, pc, OpClass.BRANCH, srcs=[1], taken=True, target=0x40)


@pytest.mark.parametrize("delay,entries", [(4, 104), (0, 136), (6, 88)])
def test_capacity_is_depth_plus_two_groups(delay, entries):
    core = CoreConfig(issue_to_execute_delay=delay)
    assert core.fetch_queue_entries == entries
    assert make_fetch([], delay).capacity == entries


def test_capacity_is_derived_not_a_config_field():
    # No new knob: config hashes of every preset stay what they were.
    assert "fetch_queue_entries" not in make_config("SpecSched_4").to_dict()["core"]


def test_correct_path_fetch_stalls_when_full():
    f = make_fetch([alu(i) for i in range(1000)])
    for cycle in range(100):             # Rename never drains the pipe
        f.tick(cycle)
    assert len(f.pipe) == f.capacity == 104
    assert f.fetched_correct == f.capacity   # the trace cursor stopped too
    f.deliver(10_000, 8)                 # one group of room...
    f.tick(100)
    assert len(f.pipe) == f.capacity     # ...refilled at once
    f.deliver(10_000, 7)                 # less than a group: still stalled
    f.tick(101)
    assert len(f.pipe) == f.capacity - 7


def test_wrong_path_fetch_stalls_when_full():
    f = make_fetch([alu(0), mispredicting_branch()] + [alu(i) for i in range(50)])
    f.tick(0)
    assert f.wrong_path
    for cycle in range(1, 200):
        f.tick(cycle)
    # Virtual groups count toward occupancy exactly like built µops.
    assert f.occupancy == len(f.pipe) + f._wp_pending
    assert f.capacity - f.width < f.occupancy <= f.capacity
    stalled_at = f.fetched_wrong
    f.tick(200)
    assert f.fetched_wrong == stalled_at
    # Delivery frees room whether the µops were virtual or built, so
    # the stall lifts on the cycle eager fetch would resume too.
    f.deliver(10_000, 8)
    assert f.occupancy <= f.capacity - f.width
    f.tick(201)
    assert f.fetched_wrong == stalled_at + f.width


def test_redirect_drains_a_full_queue_and_fetch_resumes():
    f = make_fetch([alu(0), mispredicting_branch()] + [alu(i) for i in range(200)])
    for cycle in range(100):
        f.tick(cycle)
    full = f.occupancy
    assert full > f.capacity - f.width
    f.redirect(100)
    assert f.occupancy == 0 and not f.pipe and not f.wrong_path
    assert f.squashed == full
    f.tick(100 + REDIRECT_BUBBLE)
    assert len(f.pipe) == f.width        # fetching the correct path again
    assert all(not u.wrong_path for _, u in f.pipe)


def _sim_with_full_frontend(config, workload):
    sim = Simulator(config, workload.build_trace(1))
    while sim.fetch.occupancy <= sim.fetch.capacity - sim.fetch.width:
        sim.step()
    return sim


def test_state_roundtrip_with_a_full_queue_is_bit_identical():
    workload = resolve_workload("libquantum")
    config = make_config("SpecSched_4_Crit")
    reference = _sim_with_full_frontend(config, workload)
    full = reference.fetch.occupancy
    state = pickle.loads(pickle.dumps(reference.state_dict(), protocol=4))
    reference.run(max_uops=reference.stats.committed_uops + 2_000)

    restored = Simulator(config, workload.build_trace(1), extra_stages=[InvariantChecker])
    restored.load_state_dict(state)
    assert restored.fetch.occupancy == full
    assert restored.state_dict() == state
    restored.run(max_uops=restored.stats.committed_uops + 2_000)
    assert restored.stats.to_dict() == reference.stats.to_dict()
    assert restored.state_dict() == reference.state_dict()


def _uncommitted_correct_path(sim) -> int:
    """Correct-path µops taken from the trace but not yet committed."""
    fetch = sim.fetch
    return (
        sum(1 for _, uop in fetch.pipe if not uop.wrong_path)
        + sum(1 for uop in sim.rob if not uop.wrong_path)
        + len(fetch.replay_queue)
    )


def test_sampled_chained_libquantum_carries_no_stale_pipe(monkeypatch):
    """Frozen regression: across four chained intervals on libquantum the
    fetched-but-uncommitted window stays within the machine's bounds."""
    observed = []
    plain_run = Simulator.run

    def recording_run(self, *args, **kwargs):
        stats = plain_run(self, *args, **kwargs)
        observed.append(_uncommitted_correct_path(self))
        return stats

    monkeypatch.setattr(Simulator, "run", recording_run)
    spec = SamplingSpec(
        intervals=4, interval_uops=1_000, warmup_uops=250, period_uops=5_000, offset_uops=10_000
    )
    result = run_sampled_chained("libquantum", "SpecSched_4_Crit", spec, seed=1)
    assert len(result.interval_stats) == 4
    assert len(observed) == 8            # warmup + measured run per interval
    core = make_config("SpecSched_4_Crit").core
    bound = core.fetch_queue_entries + core.rob_entries
    assert max(observed) <= bound, observed
