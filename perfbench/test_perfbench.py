"""Tiny-volume tests of the benchmark harness (``perfbench/run.py``)."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from repro.pipeline.cpu import Simulator

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_DETAILED = dict(warmup_uops=100, measure_uops=300,
                     functional_warmup_uops=500)
TINY = {
    "fig8-membound": dataclasses.replace(
        harness.WORKLOADS["fig8-membound"], workloads=("libquantum",),
        **TINY_DETAILED),
    "fig8-compute-replay": dataclasses.replace(
        harness.WORKLOADS["fig8-compute-replay"], workloads=("gzip",),
        **TINY_DETAILED),
    "sampled-sweep": dataclasses.replace(
        harness.WORKLOADS["sampled-sweep"], workloads=("ptr-chase",),
        sampling={"intervals": 2, "interval_uops": 200, "warmup_uops": 50,
                  "period_uops": 400, "offset_uops": 400,
                  "mode": "cells-chained"}),
}


@pytest.fixture
def pinned(monkeypatch, tmp_path):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    for key, value in harness.pinned_env(tmp_path / "work").items():
        monkeypatch.setenv(key, value)
    return tmp_path


def run_tiny(root: Path, capsys, workload: str, trace: int):
    code = harness.main(["--workload", workload, "--seconds", "0",
                         "--trace", str(trace)], root,
                        workloads=TINY, setup_repeats=1)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


def check_printed(lines, result, workload: str, trace: int) -> None:
    """Every declared metric is in the result line and the summary, with
    its unit, and every cell passed its checks."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * TINY[workload].cells
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"] for line in lines)


def test_end_to_end_metrics_printed_with_units(pinned, capsys):
    lines, result = run_tiny(pinned, capsys, "fig8-compute-replay", 0)
    check_printed(lines, result, "fig8-compute-replay", 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_layers_and_shows_each_workloads_skew(
        pinned, capsys):
    run_before = Simulator.run
    metrics = {}
    for workload in TINY:
        lines, result = run_tiny(pinned, capsys, workload, 1)
        check_printed(lines, result, workload, 1)
        metrics[workload] = {name: m["value"]
                             for name, m in result["metrics"].items()}
    # Every traced rep put the wrapped entry points back.
    assert Simulator.run is run_before
    replay, membound = metrics["fig8-compute-replay"], metrics["fig8-membound"]
    sampled = metrics["sampled-sweep"]
    for name in ("checkpoint.save_s", "checkpoint.load_s",
                 "checkpoint.restore_s", "checkpoint.rebase_s",
                 "isa.rv32i.exec_s"):
        assert replay[name] == membound[name] == 0
        assert sampled[name] > 0
    assert replay["traces.decode_s"] > 0 and replay["traces.capture_s"] > 0
    assert membound["traces.decode_s"] == sampled["traces.decode_s"] == 0
    assert replay["workloads.gen_s"] == 0 < membound["workloads.gen_s"]
    assert membound["frontend.fetch_yield"] < replay["frontend.fetch_yield"]


def test_corrupted_digest_and_short_commit_fail_their_cells(pinned):
    workload = TINY["fig8-compute-replay"]
    prepared = harness.prepare(workload, 1, pinned / "setup")
    rep = harness.run_rep(workload, prepared, pinned / "rep",
                          harness.Speedometer())
    assert len(rep.cells) == workload.cells
    reference = {}
    assert harness.check_cells(rep.cells, workload.cells, reference) == 0

    corrupted = dataclasses.replace(rep.cells[0], digest="0" * 64)
    short = dataclasses.replace(
        rep.cells[1], committed_uops=rep.cells[1].expected_uops
        - rep.cells[1].tolerance)
    cells = [corrupted, short] + rep.cells[2:]
    assert harness.check_cells(cells, workload.cells, dict(reference)) == 2
    # A cell that never reported counts too.
    assert harness.check_cells(rep.cells[1:], workload.cells,
                               dict(reference)) == 1


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig8-membound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
