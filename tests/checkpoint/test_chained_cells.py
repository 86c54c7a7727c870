"""Checkpoint-chained sampling cells: equivalence with from-zero cells,
the content-addressed store's reuse/tamper/version behavior, and the
cache-key contract for producing cells."""

from __future__ import annotations

import collections
import struct
import weakref

import pytest

from repro.checkpoint import format as checkpoint_format
from repro.checkpoint import rebase as checkpoint_rebase
from repro.checkpoint.format import (
    CHECKPOINT_SUFFIX,
    load_checkpoint,
    read_info,
)
from repro.checkpoint.rebase import rebase_checkpoint
from repro.checkpoint.sampling import (
    SamplingError,
    SamplingSpec,
    chained_cell_payloads,
    run_sampled,
    run_sampled_cells_chained,
)
from repro.common.config import SimConfig
from repro.core.presets import make_config
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    base_cell_payload,
    cell_key,
    produce_payload,
)
from repro.experiments.runner import Settings, run_sweep
from repro.pipeline.cpu import Simulator
from repro.traces.registry import resolve_workload

SPEC = SamplingSpec(intervals=3, interval_uops=600, warmup_uops=200,
                    period_uops=2_500, offset_uops=3_000)
OFF = EngineOptions(jobs=1, cache_dir="off")


def _base(preset="SpecSched_4", workload="gzip", banked=True):
    return base_cell_payload(
        make_config(preset, banked=banked), resolve_workload(workload),
        warmup_uops=SPEC.warmup_uops, measure_uops=SPEC.interval_uops,
        functional_warmup_uops=0, seed=1)


# ---------------------------------------------------------------------------
# Equivalence


@pytest.mark.parametrize("preset", ["Baseline_0", "SpecSched_4_Combined"])
def test_chained_cells_bit_identical_to_legacy_cells(tmp_path, preset):
    legacy = run_sampled("gzip", preset, SPEC, seed=1, options=OFF)
    chained = run_sampled_cells_chained("gzip", preset, SPEC, seed=1,
                                        options=OFF, store=tmp_path)
    assert [s.to_dict() for s in chained.interval_stats] == \
        [s.to_dict() for s in legacy.interval_stats]


def test_sweep_cells_mode_matches_chained_default(tmp_path):
    table = {
        "name": "mode-smoke",
        "baseline": "base",
        "series": [{"label": "base", "preset": "Baseline_0"},
                   {"label": "spec", "preset": "SpecSched_4"}],
        "workloads": ["gzip"],
    }
    settings = Settings(workloads=("gzip",))
    grids = {}
    for mode in ("cells", "cells-chained"):
        sweep = Sweep.from_dict(
            dict(table, sampling=dict(SPEC.to_dict(), mode=mode)))
        assert sweep.sampling_mode() == mode
        result = run_sweep(sweep, settings=settings, options=OFF,
                           cache=ResultCache(None))
        grids[mode] = {(label, "gzip"): result.get(label, "gzip").to_dict()
                       for label in ("base", "spec")}
    assert grids["cells"] == grids["cells-chained"]


def test_sweep_rejects_unknown_sampling_mode():
    with pytest.raises(ValueError, match="unknown sampling mode"):
        Sweep.from_dict({
            "name": "bad-mode", "baseline": "base",
            "series": [{"label": "base", "preset": "Baseline_0"}],
            "sampling": dict(SPEC.to_dict(), mode="telepathy"),
        }).validate()


# ---------------------------------------------------------------------------
# Store behavior


def test_store_entries_are_reused_across_runs(tmp_path):
    first = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                      options=OFF, store=tmp_path)
    entries = sorted(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))
    assert len(entries) == SPEC.intervals
    stamps = {p: p.stat().st_mtime_ns for p in entries}
    again = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                      options=OFF, store=tmp_path)
    assert {p: p.stat().st_mtime_ns for p in entries} == stamps
    assert [s.to_dict() for s in again.interval_stats] == \
        [s.to_dict() for s in first.interval_stats]


def test_tampered_store_entry_is_regenerated(tmp_path):
    reference = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                          options=OFF, store=tmp_path)
    victim = sorted(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF                    # corrupt the compressed payload
    victim.write_bytes(bytes(blob))
    healed = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                       options=OFF, store=tmp_path)
    assert [s.to_dict() for s in healed.interval_stats] == \
        [s.to_dict() for s in reference.interval_stats]
    load_checkpoint(victim)             # regenerated file verifies again


def test_version_bumped_store_entry_is_regenerated(tmp_path):
    reference = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                          options=OFF, store=tmp_path)
    victim = sorted(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))[0]
    blob = bytearray(victim.read_bytes())
    blob[4:6] = struct.pack("<H", 99)   # foreign FORMAT_VERSION
    victim.write_bytes(bytes(blob))
    healed = run_sampled_cells_chained("gzip", "SpecSched_4", SPEC, seed=1,
                                       options=OFF, store=tmp_path)
    assert [s.to_dict() for s in healed.interval_stats] == \
        [s.to_dict() for s in reference.interval_stats]
    assert load_checkpoint(victim).info.digest


def test_chained_cells_without_store_or_cache_refused():
    with pytest.raises(SamplingError, match="checkpoint store"):
        chained_cell_payloads([_base()], SPEC, options=OFF)


# ---------------------------------------------------------------------------
# Cache-key contract


def test_checkpoint_store_location_not_in_cell_key(tmp_path):
    base = _base()
    here = produce_payload(base, SPEC.interval_offset(0), tmp_path / "a")
    there = produce_payload(base, SPEC.interval_offset(0), tmp_path / "b")
    assert here["checkpoint_store"] != there["checkpoint_store"]
    assert cell_key(here) == cell_key(there)
    # ...while the produce position is an input and must be keyed.
    other = produce_payload(base, SPEC.interval_offset(1), tmp_path / "a")
    assert cell_key(other) != cell_key(here)


def test_rebased_chains_share_one_warming_pass(tmp_path):
    bases = [_base("Baseline_0"), _base("SpecSched_4")]
    payloads = chained_cell_payloads(bases, SPEC, options=OFF,
                                     store=tmp_path)
    assert len(payloads) == len(bases) * SPEC.intervals
    # One chain of produced checkpoints plus one rebased file per
    # interval for the second config — not two independent chains.
    entries = sorted(tmp_path.glob(f"*{CHECKPOINT_SUFFIX}"))
    assert len(entries) == 2 * SPEC.intervals
    digests = {p.name: load_checkpoint(p).info for p in entries}
    rebased = [info for info in digests.values()
               if info.provenance.get("mode") == "rebase"]
    assert len(rebased) == SPEC.intervals
    for payload in payloads:
        assert payload["checkpoint"]["digest"]
        assert payload["sampling"]["spec"] == SPEC.to_dict()


#: The fig8 series: Baseline_0 unbanked warms its own chain (its memory
#: config differs); SpecSched_4 and Crit rebase from the Combined chain.
FIG8_GRID = [("Baseline_0", False), ("SpecSched_4", True),
             ("SpecSched_4_Combined", True), ("SpecSched_4_Crit", True)]


def test_rebase_is_chain_major(tmp_path, monkeypatch):
    bases = [_base(preset, workload, banked)
             for workload in ("gzip", "mcf") for preset, banked in FIG8_GRID]
    store = tmp_path / "store"
    # Warm the chains, then drop the rebased files: the spied call below
    # is served every producing cell from the store and only rebases.
    first = chained_cell_payloads(bases, SPEC, options=OFF, store=store)
    for path in store.glob(f"*{CHECKPOINT_SUFFIX}"):
        if read_info(path).provenance["mode"] == "rebase":
            path.unlink()

    loads = collections.Counter()
    decoded = []
    alive = []                           # decoded checkpoints alive per load
    builds = collections.Counter()
    real_load = checkpoint_format.load_checkpoint
    real_init = Simulator.__init__

    def spy_load(path):
        alive.append(sum(ref() is not None for ref in decoded))
        ckpt = real_load(path)
        loads[str(path)] += 1
        decoded.append(weakref.ref(ckpt))
        return ckpt

    def spy_init(sim, config, *args, **kwargs):
        builds[config.name] += 1
        real_init(sim, config, *args, **kwargs)

    monkeypatch.setattr(checkpoint_format, "load_checkpoint", spy_load)
    monkeypatch.setattr(checkpoint_rebase, "load_checkpoint", spy_load)
    monkeypatch.setattr(Simulator, "__init__", spy_init)
    payloads = chained_cell_payloads(bases, SPEC, options=OFF, store=store)
    assert decoded and all(ref() is None for ref in decoded)
    assert max(alive) == 1               # only the chain checkpoint in use
    monkeypatch.undo()

    assert payloads == first
    infos = {str(p): read_info(p) for p in store.glob(f"*{CHECKPOINT_SUFFIX}")}
    chain_paths = {path for path, info in infos.items()
                   if info.provenance["mode"] == "functional"}
    sources = collections.Counter(
        info.provenance["source_digest"] for info in infos.values()
        if info.provenance["mode"] == "rebase")
    assert len(chain_paths) == 2 * 2 * SPEC.intervals
    assert len(infos) - len(chain_paths) == 2 * 2 * SPEC.intervals
    for path in chain_paths:
        # One store-verify load per chain checkpoint, plus exactly one
        # decode for rebasing when its chain serves other configs.
        rebased_from = sources[infos[path].digest]
        assert rebased_from in (0, 2)
        assert loads[path] == 1 + (rebased_from > 0)
    for path in set(infos) - chain_paths:
        assert loads[path] == 1          # post-write verify only
    # One fresh target machine per (chain, target), not per interval.
    assert builds == {"SpecSched_4": 2, "SpecSched_4_Crit": 2}

    # Oracle: every ref rebased on its own, straight from its path.
    by_digest = {info.digest: path for path, info in infos.items()}
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    for number, payload in enumerate(payloads):
        info = infos[payload["checkpoint"]["path"]]
        if info.provenance["mode"] != "rebase":
            continue
        target = SimConfig.from_dict(payload["config"]).validate()
        expected = rebase_checkpoint(
            by_digest[info.provenance["source_digest"]], target,
            oracle / f"{number}{CHECKPOINT_SUFFIX}")
        assert expected.digest == info.digest == \
            payload["checkpoint"]["digest"]
