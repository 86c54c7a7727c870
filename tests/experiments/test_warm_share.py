"""Shared functional warmup: one warming pass per group within a batch.

:func:`run_cells` executes inline batches group-major and lets every
cell after the first of a warming group restore the group's snapshot
instead of re-running :meth:`Simulator.functional_warmup`. The share is
only admissible while it is invisible in the results, so the oracle is
the natively warmed run: full machine state after warmup and the cell's
stats must match it exactly, on every workload kind.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.common.config import SimConfig
from repro.common.serialize import stable_hash
from repro.experiments import engine
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    cell_payload,
    functional_warmup_group,
    run_cells,
    simulate_payload,
    warming_group,
)
from repro.pipeline.cpu import Simulator
from repro.pipeline.stages import InvariantChecker
from repro.telemetry.manifest import manifests_dir, read_manifests
from repro.traces.format import capture
from repro.traces.registry import (
    TraceWorkload,
    resolve_workload,
    workload_from_payload,
    workload_identity,
)
from repro.traces.scenario import ScenarioSpec

SCENARIO_DIR = Path(__file__).parents[2] / "examples" / "scenarios"

VOLUMES = dict(warmup_uops=200, measure_uops=800,
               functional_warmup_uops=6_000, seed=4)

#: The fig8 series the share has to tell apart: ``Baseline_0`` is
#: unbanked (its own memory config); the other two differ only in
#: scheduling policy, filter included.
SERIES = (("Baseline_0", False), ("SpecSched_4", True),
          ("SpecSched_4_Crit", True))


def _recorded(tmp_path, name: str, uops: int) -> TraceWorkload:
    path = tmp_path / f"{name}-{uops}.trc"
    capture(resolve_workload(name).build_trace(VOLUMES["seed"]), path, uops,
            wp_seed=VOLUMES["seed"])
    return TraceWorkload(path)


def _workload(kind: str, tmp_path):
    timed = VOLUMES["warmup_uops"] + VOLUMES["measure_uops"] + 4_096
    if kind == "spec":
        return resolve_workload("mcf")
    if kind == "trace":
        return _recorded(tmp_path, "gzip",
                         VOLUMES["functional_warmup_uops"] + timed)
    if kind == "short-trace":
        # Shorter than the functional warmup: warming ends early.
        assert timed < VOLUMES["functional_warmup_uops"]
        return _recorded(tmp_path, "gzip", timed)
    if kind == "rv32i":
        return resolve_workload("ptr-chase")
    assert kind == "scenario"
    return ScenarioSpec.from_file(SCENARIO_DIR / "pointer-chase-storm.toml")


KINDS = ("spec", "trace", "short-trace", "rv32i", "scenario")


def _payload(preset: str, workload, banked: bool = True):
    return cell_payload(preset, workload, banked=banked, **VOLUMES)


def _warmed(payload, warm_states):
    """A simulator for ``payload`` after its (possibly shared) warmup."""
    config = SimConfig.from_dict(payload["config"]).validate()
    workload = workload_from_payload(payload["workload"])
    sim = Simulator(config, workload.build_trace(payload["seed"]),
                    extra_stages=[InvariantChecker])
    engine._functional_warmup(sim, workload, payload["seed"], payload,
                              warm_states)
    return sim


def _grid(workloads):
    return [_payload(preset, workload, banked)
            for preset, banked in SERIES for workload in workloads]


# ---------------------------------------------------------------------------
# Oracle: a shared restore is a native warmup


@pytest.mark.parametrize("kind", KINDS)
def test_shared_restore_state_equals_native_warmup(kind, tmp_path):
    workload = _workload(kind, tmp_path)
    donor = _payload("SpecSched_4", workload)
    sharer = _payload("SpecSched_4_Crit", workload)
    warm_states = {}
    _warmed(donor, warm_states)
    assert set(warm_states) == {functional_warmup_group(donor)}
    shared = _warmed(sharer, warm_states)
    native = _warmed(sharer, None)
    assert shared.state_dict() == native.state_dict()


@pytest.mark.parametrize("kind", KINDS)
def test_run_cells_grid_equals_per_cell_simulation(kind, tmp_path):
    payloads = _grid([_workload(kind, tmp_path), resolve_workload("gzip")])
    stats = run_cells(payloads, options=EngineOptions(jobs=1),
                      cache=ResultCache(None))
    assert [s.to_dict() for s in stats] == [simulate_payload(p)
                                            for p in payloads]


# ---------------------------------------------------------------------------
# Scope: one warm per group per call, nothing kept after it


def test_warmup_runs_once_per_group_per_call(monkeypatch):
    warms = []
    native = Simulator.functional_warmup

    def counted(sim, *args, **kwargs):
        warms.append(sim.config.name)
        return native(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "functional_warmup", counted)
    seen = []
    plain = engine.simulate_payload

    def spy(payload, *args, warm_states=None, **kwargs):
        assert warm_states is not None and len(warm_states) <= 1
        seen.append(warm_states)
        result = plain(payload, *args, warm_states=warm_states, **kwargs)
        assert len(warm_states) <= 1
        return result

    monkeypatch.setattr(engine, "simulate_payload", spy)
    payloads = _grid([resolve_workload("gzip"), resolve_workload("mcf")])
    for _ in range(2):
        warms.clear()
        run_cells(payloads, options=EngineOptions(jobs=1),
                  cache=ResultCache(None))
        # Per workload: Baseline_0 alone, SpecSched_4 + _Crit together.
        assert sorted(warms) == ["Baseline_0", "Baseline_0",
                                 "SpecSched_4", "SpecSched_4"]
    assert len(seen) == 2 * len(payloads)
    assert len({id(states) for states in seen}) == 2   # one per call
    assert all(not states for states in seen)         # every blob dropped


def test_simulate_payload_alone_warms_natively(monkeypatch):
    warms = []
    native = Simulator.functional_warmup
    monkeypatch.setattr(Simulator, "functional_warmup",
                        lambda sim, *a, **k: warms.append(1)
                        or native(sim, *a, **k))
    payload = _payload("SpecSched_4", resolve_workload("gzip"))
    assert simulate_payload(payload) == simulate_payload(payload)
    assert len(warms) == 2


# ---------------------------------------------------------------------------
# Grouping


def test_grouping_separates_memory_configs_not_schedulers():
    workload = resolve_workload("gzip")
    baseline, spec4, crit = (_payload(preset, workload, banked)
                             for preset, banked in SERIES)
    assert functional_warmup_group(baseline) != functional_warmup_group(spec4)
    # The filter differs, but functional warmup never trains it.
    assert spec4["config"]["sched"] != crit["config"]["sched"]
    assert functional_warmup_group(spec4) == functional_warmup_group(crit)
    other_seed = cell_payload("SpecSched_4", workload,
                              **dict(VOLUMES, seed=VOLUMES["seed"] + 1))
    assert functional_warmup_group(other_seed) \
        != functional_warmup_group(spec4)
    longer = cell_payload("SpecSched_4", workload,
                          **dict(VOLUMES, functional_warmup_uops=7_000))
    assert functional_warmup_group(longer) != functional_warmup_group(spec4)


def test_cells_without_functional_warmup_have_no_group():
    workload = resolve_workload("gzip")
    cold = cell_payload("SpecSched_4", workload,
                        **dict(VOLUMES, functional_warmup_uops=0))
    assert functional_warmup_group(cold) is None
    sampled = dict(_payload("SpecSched_4", workload), sampling={})
    assert functional_warmup_group(sampled) is None


def test_warming_group_is_the_chained_sampling_key():
    """The helper reproduces the partition key chained sampling used
    inline, so its chains (and checkpoint digests) stay unchanged."""
    payload = _payload("SpecSched_4_Crit", resolve_workload("gzip"))
    assert warming_group(payload) == stable_hash({
        "workload": workload_identity(payload["workload"]),
        "seed": payload["seed"],
        "memory": payload["config"]["memory"],
        "branch": payload["config"]["branch"],
    })


def test_manifests_record_the_warm_state(tmp_path):
    cache_dir = tmp_path / "cache"
    payloads = _grid([resolve_workload("gzip")])
    run_cells(payloads, options=EngineOptions(jobs=1),
              cache=ResultCache(cache_dir))
    states = {r["config"]: r["warm_state"]
              for r in read_manifests(manifests_dir(cache_dir))}
    assert states == {"Baseline_0": "native", "SpecSched_4": "native",
                      "SpecSched_4_Crit": "shared"}
    run_cells(payloads, options=EngineOptions(jobs=1),
              cache=ResultCache(cache_dir))
    records = read_manifests(manifests_dir(cache_dir))
    assert {r["warm_state"] for r in records} == {"none"}   # cache hits


# ---------------------------------------------------------------------------
# The pool shares nothing and agrees bit for bit


def test_pool_returns_identical_stats():
    payloads = _grid([resolve_workload("gzip"), resolve_workload("mcf")])
    inline = run_cells(payloads, options=EngineOptions(jobs=1),
                       cache=ResultCache(None))
    pooled = run_cells(payloads, options=EngineOptions(jobs=2),
                       cache=ResultCache(None))
    assert [s.to_dict() for s in pooled] == [s.to_dict() for s in inline]


# ---------------------------------------------------------------------------
# A shared restore passes the checked-invariants mode


def test_shared_restore_runs_clean_under_invariant_checker():
    workload = resolve_workload("libquantum")
    donor = _payload("SpecSched_4", workload)
    sharer = _payload("SpecSched_4_Crit", workload)
    warm_states = {}
    simulate_payload(donor, warm_states=warm_states)
    sim = _warmed(sharer, warm_states)
    stats = sim.run_with_warmup(sharer["warmup_uops"],
                                sharer["measure_uops"])
    assert stats.to_dict() == simulate_payload(sharer)
