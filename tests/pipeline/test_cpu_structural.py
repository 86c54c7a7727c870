"""Structural limits: widths, queue capacities, PRF pressure, commit."""

import pytest

from repro.isa.trace import ListTrace
from repro.pipeline.cpu import SimulationError, Simulator

from tests.conftest import alu, load, run_to_completion, spec_config, store


def independent_alus(n):
    return [alu([2], 4, pc=0x100 + i) for i in range(n)]


def test_issue_width_caps_throughput():
    cfg = spec_config(delay=0, num_alu=4)
    sim = Simulator(cfg, ListTrace(independent_alus(400)))
    run_to_completion(sim, max_cycles=50_000)
    # 4 ALUs bound sustained throughput even with 6-issue.
    assert sim.stats.committed_uops / sim.stats.cycles <= 4.01


def test_retire_width_bound():
    cfg = spec_config(delay=0)
    sim = Simulator(cfg, ListTrace(independent_alus(600)))
    run_to_completion(sim, max_cycles=50_000)
    assert sim.stats.committed_uops / sim.stats.cycles <= 8.0


def test_small_rob_limits_inflight():
    cfg = spec_config(delay=4, rob_entries=64, iq_entries=16)
    sim = Simulator(cfg, ListTrace(independent_alus(200)))
    occupancies = []
    while not sim.done:
        sim.step()
        occupancies.append(sim.occupancy())
    assert max(o["rob"] for o in occupancies) <= 64
    assert max(o["iq"] for o in occupancies) <= 16
    assert sim.stats.committed_uops == 200


def test_lsq_capacity_respected():
    cfg = spec_config(delay=4, lq_entries=8, sq_entries=4)
    uops = []
    for i in range(40):
        uops.append(load(0x1000 + 64 * (i % 4), dst=4, pc=0x100 + i))
        uops.append(store(0x8000 + 64 * (i % 4), pc=0x200 + i))
    sim = Simulator(cfg, ListTrace(uops))
    highwater_lq = highwater_sq = 0
    while not sim.done:
        sim.step()
        occ = sim.occupancy()
        highwater_lq = max(highwater_lq, occ["lq"])
        highwater_sq = max(highwater_sq, occ["sq"])
        if sim.stats.cycles > 50_000:
            raise AssertionError("stuck")
    assert highwater_lq <= 8 and highwater_sq <= 4
    assert sim.stats.committed_uops == 80


def test_serial_chain_unbothered_by_small_iq():
    cfg = spec_config(delay=4, iq_entries=4)
    uops = [alu([2], 4)] + [alu([4], 4, pc=0x101 + i) for i in range(50)]
    sim = Simulator(cfg, ListTrace(uops))
    run_to_completion(sim, max_cycles=50_000)
    assert sim.stats.committed_uops == 51


def test_deadlock_guard_raises():
    cfg = spec_config(delay=4)
    sim = Simulator(cfg, ListTrace(independent_alus(4)))
    sim.DEADLOCK_LIMIT = 100
    # Wedge the machine artificially: block commit forever.
    sim.stage("commit").tick = lambda now: None
    with pytest.raises(SimulationError):
        sim.run(max_cycles=10_000)


def test_run_with_warmup_returns_delta():
    cfg = spec_config(delay=4)
    sim = Simulator(cfg, ListTrace(independent_alus(300)))
    stats = sim.run_with_warmup(100, 100)
    assert 90 <= stats.committed_uops <= 120   # retire-width granularity
    assert stats.cycles < sim.stats.cycles


def test_occupancy_snapshot_keys():
    cfg = spec_config()
    sim = Simulator(cfg, ListTrace(independent_alus(4)))
    occ = sim.occupancy()
    assert set(occ) == {"rob", "iq", "recovery", "lq", "sq", "frontend"}
