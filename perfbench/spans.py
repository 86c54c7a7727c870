"""Outside-in span recorder for the benchmark's traced run.

The recorder wraps the public entry points of each layer from outside
the library (class attributes and module functions are swapped for
timing wrappers, then put back); no module under ``src/`` is edited and
an untraced run executes none of this code.

Every call through a wrapped entry point opens a frame holding its name,
start time and the time its child calls covered. On return the frame
closes as

* a **span** — ``(name, start, end, parent index, self seconds, items)``
  kept in :attr:`SpanRecorder.spans` — for coarse boundaries (engine
  batches, cache lookups, simulator runs, warming, checkpoint I/O), or
* a **leaf** — folded into :attr:`SpanRecorder.leaves` under
  ``(name, parent name)`` as calls / seconds / self seconds / items — for
  the per-µop and per-cycle boundaries (trace-source methods and
  ``Simulator.step``), which fire millions of times per run; one record
  per call would hold hundreds of megabytes.

A frame's self time is its duration minus the time its child frames
covered. ``items`` is the count recorded at the same boundary (µops a
trace-source call returned, µops a run committed, bytes a checkpoint
write produced).

Per-stage times come through the simulator's existing ``phase_profile``
hook: every :class:`~repro.pipeline.cpu.Simulator` built while the
recorder is installed gets the recorder's
:class:`~repro.perf.instrument.PhaseProfile`, and its profiled ``step``
is wrapped to count cycles that changed nothing (see
:meth:`SpanRecorder._probe_step`).
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.checkpoint import format as checkpoint_format
from repro.checkpoint import rebase as checkpoint_rebase
from repro.checkpoint.format import Checkpoint
from repro.common.stats import SimStats
from repro.experiments import engine
from repro.experiments.engine import ResultCache
from repro.isa.rv32i.workload import Rv32iTrace
from repro.isa.uop import MicroOp
from repro.perf.instrument import PHASES, PhaseProfile
from repro.pipeline.cpu import Simulator
from repro.traces import format as trace_format
from repro.traces.format import FileTrace
from repro.traces.scenario import ScenarioTrace
from repro.workloads.spec import WorkloadTrace

#: Trace-source classes -> the layer whose cost their calls are.
TRACE_LAYERS = {
    WorkloadTrace: "workloads",
    ScenarioTrace: "workloads",
    FileTrace: "traces",
    Rv32iTrace: "isa.rv32i",
}
TRACE_METHODS = ("next_uop", "next_block", "next_record_block",
                 "wrong_path_uop", "skip_wrong_path")
#: Trace-source methods that return correct-path µops.
CORRECT_PATH = ("next_uop", "next_block", "next_record_block")
#: The stage whose tick makes each trace-source call inside
#: ``Simulator.step``: fetch pulls the stream, Rename materializes
#: wrong-path filler (``FetchStage.peek``), Execute resolves the
#: mispredict that discards the rest (``FetchStage.redirect``).
CALLING_STAGE = {"next_uop": "fetch", "next_block": "fetch",
                 "next_record_block": "fetch",
                 "wrong_path_uop": "rename", "skip_wrong_path": "execute"}

STEP = "Simulator.step"
RUN = "Simulator.run"
WARMING = ("Simulator.functional_warmup", "Simulator.fast_forward")


def _uops_returned(args, kwargs, result, token) -> int:
    """µops a trace-source call handed out (a µop, a list, or a record
    block; ``None`` at end of stream)."""
    if result is None:
        return 0
    return 1 if isinstance(result, MicroOp) else len(result)


def _committed_before(args, kwargs) -> int:
    return args[0].stats.committed_uops


def _committed_since(args, kwargs, result, before) -> int:
    return args[0].stats.committed_uops - before


def _bytes_written(position: int, name: str) -> Callable:
    """Item counter: size of the file a writer's ``position``-th
    argument (or keyword ``name``) names, read after the call."""
    def count(args, kwargs, result, token) -> int:
        path = args[position] if len(args) > position else kwargs[name]
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    return count


class SpanRecorder:
    """In-memory spans, leaf aggregates and counters for one traced rep."""

    def __init__(self) -> None:
        self.spans: List[Optional[Tuple]] = []
        self.leaves: Dict[Tuple[str, Optional[str]], List[float]] = {}
        self.profile = PhaseProfile()
        self.cycles = 0
        self.no_progress_cycles = 0
        self.probe_seconds = 0.0
        self._stack: List[list] = []

    # -- frames ----------------------------------------------------------

    def _open(self, name: str, leaf: bool) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        index = -1
        if not leaf:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, index, parent]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list, items: int) -> None:
        end = perf_counter()
        self._stack.pop()
        name, start, covered, index, parent = frame
        duration = end - start
        if parent is not None:
            parent[2] += duration
        if index < 0:
            key = (name, parent[0] if parent is not None else None)
            agg = self.leaves.get(key)
            if agg is None:
                agg = self.leaves[key] = [0, 0.0, 0.0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - covered
            agg[3] += items
        else:
            self.spans[index] = (name, start, end,
                                 parent[3] if parent is not None else -1,
                                 duration - covered, items)

    def wrap(self, name: str, fn: Callable, *, leaf: bool = False,
             count: Optional[Callable] = None,
             pre: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span (or leaf) called ``name``.

        ``pre(args, kwargs)`` runs before the call; ``count(args, kwargs,
        result, token)`` turns the outcome (and ``pre``'s token) into the
        boundary's item count.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            frame = self._open(name, leaf)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(frame, count(args, kwargs, result, token)
                            if count is not None else 0)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around a block."""
        frame = self._open(name, leaf=False)
        try:
            yield
        finally:
            self._close(frame, 0)

    def _probe_step(self, sim: Simulator, step: Callable) -> Callable:
        """``sim``'s profiled ``step`` as a leaf, plus a no-progress probe.

        A cycle made no progress when it left ``committed_uops``,
        ``issued_total``, ``l1d_accesses`` and ``Simulator.occupancy()``
        all unchanged. The probe's own time is added to the calling
        frame's covered time and to :attr:`probe_seconds`, so it is
        billed to neither the step nor ``Simulator.run``'s self time.
        """
        occupancy = sim.occupancy

        def traced_step() -> None:
            t0 = perf_counter()
            stats = sim.stats
            before = (stats.committed_uops, stats.issued_total,
                      stats.l1d_accesses, occupancy())
            frame = self._open(STEP, leaf=True)
            t1 = frame[1]
            try:
                step()
            finally:
                self._close(frame, 0)
            t2 = perf_counter()
            stats = sim.stats
            if before == (stats.committed_uops, stats.issued_total,
                          stats.l1d_accesses, occupancy()):
                self.no_progress_cycles += 1
            self.cycles += 1
            probe = (t1 - t0) + (perf_counter() - t2)
            self.probe_seconds += probe
            if self._stack:
                self._stack[-1][2] += probe

        return traced_step

    # -- installation ----------------------------------------------------

    def install(self) -> Callable[[], None]:
        """Swap every traced entry point for its wrapper; returns the
        function that puts the originals back."""
        undo: List[Tuple[Any, str, Any]] = []

        def patch_attr(owner, attr: str, replacement) -> None:
            undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
            setattr(owner, attr, replacement)

        def patch_function(module, attr: str, name: str, **kw) -> None:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, **kw)
            # Modules that imported the function by name hold their own
            # binding; rebind those too.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    patch_attr(mod, attr, wrapped)

        for cls in TRACE_LAYERS:
            for method in TRACE_METHODS:
                original = getattr(cls, method, None)
                if original is None:
                    continue
                count = (_uops_returned if method in CORRECT_PATH
                         or method == "wrong_path_uop" else None)
                patch_attr(cls, method, self.wrap(
                    f"{cls.__name__}.{method}", original, leaf=True,
                    count=count))

        patch_attr(Simulator, "run", self.wrap(
            RUN, Simulator.run, pre=_committed_before,
            count=_committed_since))
        for name in WARMING:
            attr = name.split(".", 1)[1]
            patch_attr(Simulator, attr, self.wrap(name, getattr(Simulator, attr)))
        original_init = Simulator.__init__

        @functools.wraps(original_init)
        def init(sim, *args, **kwargs):
            if len(args) < 4 and kwargs.get("phase_profile") is None:
                kwargs["phase_profile"] = self.profile
            original_init(sim, *args, **kwargs)
            sim.step = self._probe_step(sim, sim.step)

        patch_attr(Simulator, "__init__", init)

        patch_attr(Checkpoint, "restore",
                   self.wrap("Checkpoint.restore", Checkpoint.restore))
        patch_attr(ResultCache, "get",
                   self.wrap("ResultCache.get", ResultCache.get))
        patch_attr(ResultCache, "put",
                   self.wrap("ResultCache.put", ResultCache.put))

        patch_function(checkpoint_format, "save_checkpoint", "save_checkpoint",
                       count=_bytes_written(1, "path"))
        patch_function(checkpoint_format, "load_checkpoint", "load_checkpoint")
        patch_function(checkpoint_rebase, "rebase_checkpoint",
                       "rebase_checkpoint", count=_bytes_written(2, "output"))
        patch_function(trace_format, "capture", "capture")
        patch_function(engine, "run_cells", "run_cells")
        patch_function(engine, "run_produce_cells", "run_produce_cells")

        def uninstall() -> None:
            for owner, attr, original in reversed(undo):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            undo.clear()

        return uninstall

    # -- reading ---------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        """Total self time of every span and leaf called ``name``."""
        total = sum(span[4] for span in self.spans
                    if span is not None and span[0] == name)
        return total + sum(agg[2] for (leaf, _), agg in self.leaves.items()
                           if leaf == name)

    def span_items(self, name: str) -> int:
        return sum(span[5] for span in self.spans
                   if span is not None and span[0] == name)

    def span_calls(self, name: str) -> int:
        return sum(1 for span in self.spans
                   if span is not None and span[0] == name)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump: spans, leaf aggregates, counters."""
        return {
            "spans": [{"name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "self_s": s[4], "items": s[5]}
                      for s in self.spans if s is not None],
            "leaves": [{"name": name, "parent": parent, "calls": agg[0],
                        "seconds": agg[1], "self_s": agg[2], "items": agg[3]}
                       for (name, parent), agg in self.leaves.items()],
            "cycles": self.cycles,
            "no_progress_cycles": self.no_progress_cycles,
            "probe_s": self.probe_seconds,
            "stage_s": dict(self.profile.seconds),
        }


_MISSING = object()


def _trace_leaves(recorder: SpanRecorder):
    """``(class, method, parent, aggregate)`` for every trace-source leaf
    called from outside the trace layer (a base-class ``next_block``
    looping ``next_uop`` would count its µops twice otherwise)."""
    by_name = {cls.__name__: cls for cls in TRACE_LAYERS}
    for (name, parent), agg in recorder.leaves.items():
        cls_name, _, method = name.partition(".")
        if cls_name not in by_name:
            continue
        nested = parent is not None and parent.partition(".")[0] in by_name
        yield by_name[cls_name], method, parent, agg, nested


def layer_metrics(recorder: SpanRecorder, stats: SimStats) -> Dict[str, float]:
    """Per-layer metrics of one traced rep.

    ``stats`` is the counter-wise sum of every measured cell's
    :class:`SimStats`; the simulated-machine metrics derive from it and
    must not move under a simulator-only change.
    """
    layer_s = {layer: 0.0 for layer in TRACE_LAYERS.values()}
    layer_uops = {layer: 0 for layer in TRACE_LAYERS.values()}
    stage_trace_s = {stage: 0.0 for stage in PHASES}
    pulled = 0
    warmed = 0
    for cls, method, parent, agg, nested in _trace_leaves(recorder):
        layer = TRACE_LAYERS[cls]
        layer_s[layer] += agg[2]
        if nested:
            continue
        if parent == STEP:
            stage_trace_s[CALLING_STAGE[method]] += agg[1]
            if method in CORRECT_PATH:
                pulled += agg[3]
        elif parent in WARMING and method in CORRECT_PATH:
            warmed += agg[3]
        layer_uops[layer] += agg[3]

    stage_s = {stage: recorder.profile.seconds.get(stage, 0.0)
               - stage_trace_s[stage] for stage in PHASES}
    run_s = recorder.self_seconds(RUN) + recorder.self_seconds(STEP)
    committed_in_run = recorder.span_items(RUN)
    cycles = recorder.cycles
    warming_s = sum(recorder.self_seconds(name) for name in WARMING)
    committed = stats.committed_uops
    per_kuop = 1000.0 / committed if committed else 0.0
    filter_lookups = (stats.filter_sure_hit + stats.filter_sure_miss
                      + stats.filter_deferred)

    metrics = {
        "workloads.gen_s": layer_s["workloads"],
        "workloads.uops_generated": layer_uops["workloads"],
        "frontend.fetch_yield": committed_in_run / pulled if pulled else 0.0,
        "frontend.mispredicts_per_kuop": stats.branch_mispredicts * per_kuop,
        "traces.decode_s": layer_s["traces"],
        "traces.uops_decoded": layer_uops["traces"],
        "isa.rv32i.exec_s": layer_s["isa.rv32i"],
        "pipeline.run_s": run_s,
        "pipeline.cycles": cycles,
        "pipeline.ns_per_cycle": 1e9 * run_s / cycles if cycles else 0.0,
        "pipeline.no_progress_cycle_share": (
            recorder.no_progress_cycles / cycles if cycles else 0.0),
        "warming.s": warming_s,
        "warming.uops_per_s": warmed / warming_s if warming_s else 0.0,
        "checkpoint.save_s": recorder.self_seconds("save_checkpoint"),
        "checkpoint.load_s": recorder.self_seconds("load_checkpoint"),
        "checkpoint.restore_s": recorder.self_seconds("Checkpoint.restore"),
        "checkpoint.rebase_s": recorder.self_seconds("rebase_checkpoint"),
        "checkpoint.saves": recorder.span_calls("save_checkpoint"),
        "checkpoint.bytes_written": (recorder.span_items("save_checkpoint")
                                     + recorder.span_items("rebase_checkpoint")),
        "engine.overhead_s": (recorder.self_seconds("run_cells")
                              + recorder.self_seconds("run_produce_cells")),
        "engine.cache_put_s": recorder.self_seconds("ResultCache.put"),
        "engine.cache_get_s": recorder.self_seconds("ResultCache.get"),
        "memory.l1d_miss_rate": stats.l1d_miss_rate,
        "memory.dram_reads_per_kuop": stats.dram_reads * per_kuop,
        "backend.replays_per_kuop": stats.replayed_total * per_kuop,
        "backend.issued_per_committed": (stats.issued_total / committed
                                         if committed else 0.0),
        "core.filter_deferred_share": (stats.filter_deferred / filter_lookups
                                       if filter_lookups else 0.0),
    }
    for stage in PHASES:
        metrics[f"pipeline.stage.{stage}_s"] = stage_s[stage]
    return metrics
