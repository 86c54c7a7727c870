"""The benchmark's workloads, timed runs, output checks and metrics.

Each workload is one declarative :class:`~repro.experiments.engine.Sweep`
executed through :func:`repro.experiments.runner.run_sweep` — the path
``repro sweep FILE`` takes — serially (``jobs=1``), against a fresh
empty result cache and checkpoint store every time. A run repeats the
sweep ("a rep") until its time budget is spent and reports medians over
reps; every simulated cell of every rep is checked (see
:func:`check_cells`).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
plain reps with reps under the outside-in span recorder
(:mod:`perfbench.spans`) and reports per-layer metrics from the traced
reps plus the traced/plain wall ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.checkpoint.sampling import SamplingSpec
from repro.common.serialize import stable_hash
from repro.common.stats import SimStats
from repro.experiments.engine import (
    EngineOptions,
    ResultCache,
    Sweep,
    SweepSeries,
)
from repro.experiments.runner import Settings, clear_cache, run_sweep
from repro.perf.bench import calibrate, provenance
from repro.pipeline.cpu import SimulationError
from repro.telemetry.manifest import peak_rss_kb
from repro.traces import format as trace_format
from repro.traces.registry import resolve_workload

#: Fresh processes a run times its set-up in; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Host speed every timing is scaled to, in ops/s of :func:`spin_speed`'s
#: loop (about this benchmark's 2-core dev VM when uncontended).
REFERENCE_OPS_PER_S = 10_000_000
#: Loop iterations per host-speed sample (about 15 ms).
SPEED_SAMPLE_OPS = 150_000
#: Recorded traces hold this many µops beyond what a cell reads, so the
#: frontend's run-ahead never meets the end of the stream.
TRACE_MARGIN_UOPS = 4_096

FIG8_SERIES = (
    SweepSeries("Baseline_0", "Baseline_0", banked=False),
    SweepSeries("SpecSched_4", "SpecSched_4"),
    SweepSeries("SpecSched_4_Combined", "SpecSched_4_Combined"),
    SweepSeries("SpecSched_4_Crit", "SpecSched_4_Crit"),
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload's sweep shape (``BENCHMARK.json`` records
    why each was chosen)."""

    name: str
    series: Tuple[SweepSeries, ...]
    workloads: Tuple[str, ...]
    warmup_uops: int = 0
    measure_uops: int = 0
    functional_warmup_uops: int = 0
    #: A ``[sampling]`` table (cells-chained mode) — or ``None`` for
    #: detailed cells.
    sampling: Optional[Dict[str, Any]] = None
    #: Capture each workload to a ``.trc`` in set-up and replay it.
    replay: bool = False

    @property
    def grid_cells(self) -> int:
        return len(self.series) * len(self.workloads)

    @property
    def cells(self) -> int:
        """Measured cells per rep (interval cells when sampled)."""
        intervals = self.sampling["intervals"] if self.sampling else 1
        return self.grid_cells * intervals

    @property
    def trace_uops(self) -> int:
        return (max(self.functional_warmup_uops,
                    self.warmup_uops + self.measure_uops)
                + TRACE_MARGIN_UOPS)

    def sweep(self, workloads: Tuple[str, ...], seed: int) -> Sweep:
        return Sweep(
            name=self.name, baseline=self.series[0].label,
            series=self.series, workloads=workloads,
            warmup_uops=self.warmup_uops, measure_uops=self.measure_uops,
            functional_warmup_uops=self.functional_warmup_uops,
            seed=seed, sampling=self.sampling).validate()

    def span_uops(self) -> int:
        """Stream µops one grid cell covers: the sampled span, or the
        functional warmup plus detailed volume of a detailed cell."""
        if self.sampling:
            return SamplingSpec.from_dict({
                key: value for key, value in self.sampling.items()
                if key != "mode"}).span_uops
        return (self.functional_warmup_uops + self.warmup_uops
                + self.measure_uops)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="fig8-membound",
        series=(SweepSeries("SpecSched_4", "SpecSched_4"),
                SweepSeries("SpecSched_4_Crit", "SpecSched_4_Crit")),
        workloads=("mcf", "libquantum", "omnetpp"),
        # libquantum's unbounded frontend grows with the run: at 4k
        # measured µops a rep stays near 6 s and 180 MB.
        warmup_uops=1_000, measure_uops=4_000,
        functional_warmup_uops=20_000),
    Workload(
        name="fig8-compute-replay",
        series=FIG8_SERIES,
        workloads=("gzip", "xalancbmk", "swim"),
        # 12k measured µops: at 4k the three streams' summed cycles
        # spread 8% across seeds (1.4% at 12k), which cycles_per_s shows.
        warmup_uops=1_000, measure_uops=12_000,
        functional_warmup_uops=20_000, replay=True),
    Workload(
        name="sampled-sweep",
        series=FIG8_SERIES,
        workloads=("gzip", "mcf", "ptr-chase"),
        # Four intervals: at two, the grid's summed cycles spread 11%
        # across seeds (4% at four), which cycles_per_s shows.
        sampling={"intervals": 4, "interval_uops": 1_000,
                  "warmup_uops": 300, "period_uops": 20_000,
                  "offset_uops": 20_000, "mode": "cells-chained"}),
)}


def pinned_env(work: Path) -> Dict[str, str]:
    """Every ``REPRO_*`` knob the library reads, pinned for the benchmark
    (anything else named ``REPRO_*`` is cleared by the caller).

    The sweep's own volumes and the explicit engine options override the
    rest, but an inherited ``REPRO_WARMING=scalar`` would time another
    warming tier and an inherited cache would serve cells unsimulated.
    """
    return {
        "REPRO_JOBS": "1",
        "REPRO_BACKEND": "local",
        "REPRO_WARMING": "vectorized",
        "REPRO_CACHE_DIR": "off",
        "XDG_CACHE_HOME": str(work / "xdg-cache"),
        "TMPDIR": str(work / "tmp"),
    }


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Prepared:
    """A workload ready to time: its sweep and its own directory."""

    sweep: Sweep
    directory: Path


def prepare(workload: Workload, seed: int, directory: Path) -> Prepared:
    """Resolve the workload's inputs (capturing traces for replay) and
    build its sweep under ``directory``."""
    directory.mkdir(parents=True)
    names = workload.workloads
    if workload.replay:
        paths = []
        for name in names:
            path = directory / f"{name}.trc"
            # Through the module, so the traced run's wrapper sees it.
            trace_format.capture(resolve_workload(name).build_trace(seed),
                                 path, workload.trace_uops, wp_seed=seed)
            paths.append(str(path))
        names = tuple(paths)
    return Prepared(sweep=workload.sweep(names, seed), directory=directory)


# ---------------------------------------------------------------------------
# Reps and checks


class RecordingCache(ResultCache):
    """A result cache that also keeps every stored cell: with the cache
    fresh and empty, every measured cell is simulated and stored exactly
    once, so the stores are the rep's complete cell list."""

    def __init__(self, directory: Path) -> None:
        super().__init__(directory)
        self.cells: List[Tuple[Dict[str, Any], SimStats]] = []

    def put(self, key, stats, payload=None) -> None:
        super().put(key, stats, payload)
        self.cells.append((payload, stats))


@dataclass
class Cell:
    """One measured cell's outcome, reduced to what the checks need."""

    identity: str
    expected_uops: int
    committed_uops: int
    tolerance: int
    digest: str
    stats: SimStats


def stats_digest(stats: SimStats) -> str:
    """sha256 of the cell's counters (``SimStats.to_dict``)."""
    return hashlib.sha256(json.dumps(
        stats.to_dict(), sort_keys=True).encode()).hexdigest()


def cell_from(payload: Dict[str, Any], stats: SimStats) -> Cell:
    config = payload["config"]
    workload = payload["workload"]
    name = workload.get("name") or workload.get("spec", {}).get("name")
    sampling = payload.get("sampling")
    index = sampling["index"] if sampling else "-"
    expected = (sampling["spec"]["interval_uops"] if sampling
                else payload["measure_uops"])
    return Cell(
        identity=f"{config['name']}@{stable_hash(config)[:10]}/{name}/{index}",
        expected_uops=expected, committed_uops=stats.committed_uops,
        tolerance=config["core"]["retire_width"], digest=stats_digest(stats),
        stats=stats)


def check_cells(cells: List[Cell], expected_cells: int,
                reference: Dict[str, str]) -> int:
    """Failed-cell count of one rep.

    A cell fails when it commits other than its measured volume (the
    run stops within one retire group of it), when its digest differs
    from ``reference`` (the first rep's digests), or when it is missing
    or duplicated. ``reference`` gains the digests of cells it lacks.
    """
    failed = 0
    seen = set()
    for cell in cells:
        bad = (cell.identity in seen
               or abs(cell.committed_uops - cell.expected_uops)
               >= cell.tolerance
               or reference.setdefault(cell.identity, cell.digest)
               != cell.digest)
        seen.add(cell.identity)
        failed += bad
    return failed + max(0, expected_cells - len(seen))


@dataclass
class Rep:
    #: Seconds the sweep took, host-speed samples excluded.
    wall_s: float
    #: Mean host speed over the sweep, in ops/s (see :class:`Speedometer`).
    speed: float
    cells: List[Cell]
    failed: int = 0

    @property
    def scaled_s(self) -> float:
        return scaled(self.wall_s, self.speed)


def scaled(seconds: float, speed: float) -> float:
    """``seconds`` measured at host ``speed``, rescaled to
    :data:`REFERENCE_OPS_PER_S`.

    The host's speed swings with its other tenants: on the dev VM the
    speed samples and the sweep both ran 1.5x slower for minutes at a
    time, and a run's timings only compare with another's once both are
    brought to one speed.
    """
    return seconds * speed / REFERENCE_OPS_PER_S


def spin_speed() -> float:
    """Host speed now: ops/s of the fixed pure-Python integer loop that
    :func:`repro.perf.bench.calibrate` times, run here without touching
    the garbage collector so a sample taken mid-sweep leaves the heap
    as it was."""
    start = perf_counter()
    x = 0
    for i in range(SPEED_SAMPLE_OPS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return SPEED_SAMPLE_OPS / (perf_counter() - start)


class Speedometer:
    """Host speed over a timed block, sampled at its edges and whenever
    :meth:`sample` is called inside it (the sweep's per-cell progress
    callback). The block's speed is the time-weighted mean of the
    samples, each segment between two samples credited with their mean;
    the samples' own time is taken out of the block's seconds.
    """

    def __init__(self) -> None:
        self.last = spin_speed()
        #: Every sample taken, for run-wide scaling.
        self.history = [self.last]

    def __enter__(self) -> "Speedometer":
        self.samples = [self.last]
        self.segments: List[float] = []
        self.mark = perf_counter()
        return self

    def sample(self) -> None:
        self.segments.append(perf_counter() - self.mark)
        self.last = spin_speed()
        self.samples.append(self.last)
        self.history.append(self.last)
        self.mark = perf_counter()

    def __exit__(self, *exc) -> None:
        self.sample()
        self.seconds = sum(self.segments)
        weighted = sum(segment * (before + after) / 2 for segment, before, after
                       in zip(self.segments, self.samples, self.samples[1:]))
        self.speed = weighted / self.seconds


def run_rep(workload: Workload, prepared: Prepared, directory: Path,
            speedometer: Speedometer, recorder=None) -> Rep:
    """One cold sweep: fresh cache + checkpoint store under ``directory``."""
    cache = RecordingCache(directory / "cache")
    options = EngineOptions(jobs=1, cache_dir=str(directory / "cache"))
    settings = Settings(workloads=prepared.sweep.workloads)

    def progress(done, total, manifest) -> None:
        if recorder is None:
            speedometer.sample()
        else:       # a span of its own keeps it out of its caller's self time
            with recorder.span("speed_sample"):
                speedometer.sample()

    clear_cache()
    gc.collect()
    with speedometer:
        try:
            if recorder is None:
                run_sweep(prepared.sweep, settings=settings, options=options,
                          cache=cache, progress=progress)
            else:
                with recorder.span("sweep"):
                    run_sweep(prepared.sweep, settings=settings,
                              options=options, cache=cache, progress=progress)
        except SimulationError:
            traceback.print_exc()
    shutil.rmtree(directory, ignore_errors=True)
    return Rep(speedometer.seconds, speedometer.speed,
               [cell_from(p, s) for p, s in cache.cells])


def summed_stats(cells: List[Cell]) -> SimStats:
    """Counter-wise sum of the cells' stats (ratios recompute from it)."""
    total = SimStats()
    for cell in cells:
        for name, value in cell.stats.__dict__.items():
            if name not in ("extra", "telemetry"):    # non-counter tables
                setattr(total, name, getattr(total, name) + value)
    return total


def rep_metrics(workload: Workload, rep: Rep) -> Dict[str, float]:
    committed = sum(cell.committed_uops for cell in rep.cells)
    cycles = sum(cell.stats.cycles for cell in rep.cells)
    seconds = rep.scaled_s
    return {
        "detailed_uops_per_s": committed / seconds,
        "cycles_per_s": cycles / seconds,
        "sampled_span_uops_per_s": (workload.grid_cells
                                    * workload.span_uops() / seconds),
    }


def median_metrics(per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(values[name] for values in per_rep)
            for name in per_rep[0]}


# ---------------------------------------------------------------------------
# The run


@dataclass
class Run:
    """Everything one invocation measured."""

    workload: str
    seed: int
    trace: bool
    #: Unscaled seconds of each fresh-process set-up.
    setup_s: List[float]
    #: Median of every host-speed sample the run took, in ops/s.
    speed: float
    plain: List[Rep]
    traced: List[Rep]
    layer: List[Dict[str, float]]
    spans: Optional[Dict[str, Any]]
    attempted: int
    failed: int
    digests: Dict[str, str]


def set_up_in_fresh_process(workload: Workload, seed: int,
                            directory: Path) -> None:
    """Start a fresh interpreter on this benchmark and let it set up into
    ``directory`` (imports, input resolution, trace capture), then exit."""
    subprocess.run([sys.executable, str(Path(__file__).with_name("run.py")),
                    "--workload", workload.name, "--seed", str(seed),
                    "--setup-only", str(directory)],
                   check=True, stdout=subprocess.DEVNULL)


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, setup_repeats: int = SETUP_REPEATS) -> Run:
    """Time the set-up ``setup_repeats`` times, set up this process, then
    repeat the sweep until ``seconds`` have passed."""
    from perfbench.spans import SpanRecorder, layer_metrics

    speedometer = Speedometer()
    setup_times = []
    for attempt in range(setup_repeats):
        directory = work / f"setup-{attempt}"
        with speedometer:
            set_up_in_fresh_process(workload, seed, directory)
        setup_times.append(speedometer.seconds)
        shutil.rmtree(directory, ignore_errors=True)
    recorder = SpanRecorder() if trace else None
    uninstall = recorder.install() if recorder else None
    try:
        prepared = prepare(workload, seed, work / "setup")
    finally:
        if uninstall:
            uninstall()
    capture_s = recorder.self_seconds("capture") if recorder else 0.0

    reference: Dict[str, str] = {}
    plain: List[Rep] = []
    traced: List[Rep] = []
    layer: List[Dict[str, float]] = []
    spans = None
    started = perf_counter()
    index = 0
    while True:
        use_recorder = trace and len(traced) < len(plain)
        directory = work / f"rep-{index}"
        index += 1
        if use_recorder:
            recorder = SpanRecorder()
            uninstall = recorder.install()
            try:
                rep = run_rep(workload, prepared, directory, speedometer,
                              recorder)
            finally:
                uninstall()
            metrics = layer_metrics(recorder, summed_stats(rep.cells))
            metrics["traces.capture_s"] = capture_s
            layer.append(metrics)
            spans = recorder.to_dict()
            traced.append(rep)
        else:
            rep = run_rep(workload, prepared, directory, speedometer)
            plain.append(rep)
        rep.failed = check_cells(rep.cells, workload.cells, reference)
        enough = len(plain) + len(traced) >= 2 and (not trace or traced)
        if enough and perf_counter() - started >= seconds:
            break
    shutil.rmtree(prepared.directory, ignore_errors=True)
    reps = plain + traced
    return Run(
        workload=workload.name, seed=seed, trace=trace,
        setup_s=setup_times, speed=statistics.median(speedometer.history),
        plain=plain, traced=traced, layer=layer, spans=spans,
        attempted=workload.cells * len(reps),
        failed=sum(rep.failed for rep in reps),
        digests=dict(sorted(reference.items())))


def result_metrics(workload: Workload, run: Run) -> Dict[str, Dict[str, Any]]:
    """The final line's ``metrics`` object for this run."""
    if run.trace:
        values = median_metrics(run.layer)
        plain_wall = statistics.median(rep.scaled_s for rep in run.plain)
        traced_wall = statistics.median(rep.scaled_s for rep in run.traced)
        values["trace.overhead_ratio"] = traced_wall / plain_wall
    else:
        values = median_metrics(
            [rep_metrics(workload, rep) for rep in run.plain])
        values["peak_rss_mb"] = peak_rss_kb() / 1024.0
        # Scaled by the whole run's speed: the samples around one short
        # child process scatter by 2x (exit and start-up disturb them).
        values["setup_s"] = scaled(statistics.median(run.setup_s), run.speed)
    units = declared_units("per_layer" if run.trace else "end_to_end")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def declared_units(section: str) -> Dict[str, str]:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    return {entry["name"]: entry["unit"]
            for entry in json.loads(path.read_text())[section]}


def write_record(run: Run, metrics, out_dir: Path, extra) -> Path:
    """Keep the run's provenance, per-rep walls, digests and spans."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / (f"{run.workload}-seed{run.seed}-"
                      f"trace{int(run.trace)}.json")
    record = {
        "workload": run.workload, "seed": run.seed, "trace": run.trace,
        "metrics": metrics, "provenance": extra,
        "setup_s": run.setup_s,
        "plain_wall_s": [rep.wall_s for rep in run.plain],
        "plain_speed_ops_per_s": [rep.speed for rep in run.plain],
        "traced_wall_s": [rep.wall_s for rep in run.traced],
        "traced_speed_ops_per_s": [rep.speed for rep in run.traced],
        "attempted": run.attempted, "failed": run.failed,
        "digests": run.digests, "layer_per_rep": run.layer,
        "spans": run.spans,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Host-cost benchmark of the speculative-scheduling "
                    "simulator (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up into DIR and exit (see set_up_in_fresh_process).
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str], root: Path,
         workloads: Dict[str, Workload] = WORKLOADS,
         setup_repeats: int = SETUP_REPEATS) -> int:
    """Run one workload; print a summary and, last, the result line."""
    args = parse_args(argv)
    workload = workloads[args.workload]
    if args.setup_only:
        prepare(workload, args.seed, Path(args.setup_only))
        return 0
    work = root / ".perfbench" / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        run = execute(workload, args.seed, args.seconds, bool(args.trace),
                      work, setup_repeats)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result_metrics(workload, run)
    settings = Settings(workloads=workload.workloads,
                        warmup_uops=workload.warmup_uops,
                        measure_uops=workload.measure_uops,
                        functional_warmup_uops=workload.functional_warmup_uops,
                        seed=args.seed)
    extra = dict(provenance(settings), nproc=os.cpu_count(),
                 calibration_ops_per_sec=calibrate(),
                 median_speed_ops_per_s=run.speed,
                 reference_ops_per_sec=REFERENCE_OPS_PER_S,
                 sampling=workload.sampling)
    path = write_record(run, metrics, root / ".perfbench" / "results", extra)
    run_digest = hashlib.sha256(json.dumps(
        run.digests, sort_keys=True).encode()).hexdigest()
    print(f"workload {workload.name}  seed {args.seed}  "
          f"reps {len(run.plain)}+{len(run.traced)} traced  "
          f"median rep {statistics.median(r.wall_s for r in run.plain):.3f} s  "
          f"host speed {run.speed:.4g} ops/s  "
          f"git {extra['git_sha'][:12]}")
    print(f"digest {run_digest}  ({len(run.digests)} cells; per-cell "
          f"digests in {path.relative_to(root)})")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0
