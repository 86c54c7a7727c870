"""Property-based tests on whole-pipeline invariants: random but valid
hand traces must always drain, commit exactly once per µop, and never
violate the operand-validity assertion baked into the core."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.opclass import OpClass
from repro.isa.trace import ListTrace
from repro.isa.uop import MicroOp
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import InvariantChecker

from tests.conftest import spec_config

# Valid architectural registers for generated traces (2..9 int window).
REGS = st.integers(min_value=2, max_value=9)
ADDRS = st.integers(min_value=0, max_value=1 << 16).map(lambda x: x * 8)


@st.composite
def micro_op(draw, pc):
    kind = draw(st.sampled_from(
        ["alu", "alu", "alu", "load", "load", "store", "mul", "branch"]))
    if kind == "alu":
        return MicroOp(0, pc, OpClass.INT_ALU,
                       srcs=[draw(REGS)], dst=draw(REGS))
    if kind == "mul":
        return MicroOp(0, pc, OpClass.INT_MUL,
                       srcs=[draw(REGS), draw(REGS)], dst=draw(REGS))
    if kind == "load":
        return MicroOp(0, pc, OpClass.LOAD, srcs=[draw(REGS)],
                       dst=draw(REGS), mem_addr=draw(ADDRS))
    if kind == "store":
        return MicroOp(0, pc, OpClass.STORE, srcs=[draw(REGS), draw(REGS)],
                       mem_addr=draw(ADDRS))
    taken = draw(st.booleans())
    return MicroOp(0, pc, OpClass.BRANCH, srcs=[draw(REGS)],
                   taken=taken, target=pc + 0x40 if taken else pc + 1)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    return [draw(micro_op(0x100 + i)) for i in range(n)]


CONFIGS = [
    spec_config(delay=0),
    spec_config(delay=4, banked=True),
    spec_config(delay=4, banked=True, shifting=True),
    spec_config(delay=6, speculative=False),
    spec_config(delay=4, banked=True, shifting=True, criticality=True,
                hit_miss="filter_ctr"),
]


class TestPipelineTotality:
    @given(traces(), st.sampled_from(range(len(CONFIGS))))
    @settings(max_examples=40, deadline=None)
    def test_every_trace_drains_and_commits_exactly_once(self, uops, cfg_i):
        """No deadlock, no lost or duplicated µops, operand validity holds,
        and every checked invariant holds each cycle (the core raises
        SimulationError otherwise)."""
        sim = Simulator(CONFIGS[cfg_i], ListTrace(uops),
                        extra_stages=[InvariantChecker])
        sim.run(max_cycles=30_000)
        assert sim.done
        assert sim.stats.committed_uops == len(uops)

    @given(traces())
    @settings(max_examples=20, deadline=None)
    def test_determinism(self, uops):
        def run():
            sim = Simulator(CONFIGS[2],
                            ListTrace([u.clone_arch(0) for u in uops]))
            sim.run(max_cycles=30_000)
            return (sim.stats.cycles, sim.stats.issued_total,
                    sim.stats.replayed_total)
        assert run() == run()

    @given(traces())
    @settings(max_examples=20, deadline=None)
    def test_structural_occupancy_bounds(self, uops):
        cfg = spec_config(delay=4, banked=True, rob_entries=32, iq_entries=8)
        sim = Simulator(cfg, ListTrace(uops))
        while not sim.done and sim.stats.cycles < 30_000:
            sim.step()
            occ = sim.occupancy()
            assert occ["rob"] <= 32
            assert occ["iq"] <= 8
        assert sim.done

    @given(traces(), st.sampled_from(range(len(CONFIGS))),
           st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_idle_skip_matches_plain_ticking(self, uops, cfg_i, split):
        """``run`` (which skips quiescent cycles) and a plain ``step``
        loop leave identical stats and machine state, both at a
        mid-run cycle budget and at the end."""
        def observe(sim):
            return sim.stats.to_dict(), pickle.dumps(sim.state_dict())

        def skipping():
            sim = Simulator(CONFIGS[cfg_i],
                            ListTrace([u.clone_arch(0) for u in uops]))
            sim.run(max_cycles=split)
            mid = observe(sim)
            sim.run(max_cycles=30_000)
            return mid, observe(sim)

        def plain():
            sim = Simulator(CONFIGS[cfg_i],
                            ListTrace([u.clone_arch(0) for u in uops]))
            marks = []
            for budget in (split, 30_000):
                while not sim.done and sim.stats.cycles < budget:
                    sim.step()
                marks.append(observe(sim))
            return tuple(marks)

        assert skipping() == plain()
