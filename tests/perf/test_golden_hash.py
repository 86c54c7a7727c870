"""Golden-hash lock: the optimized kernel is bit-identical to the
pre-optimization simulator.

``tests/golden/goldens.json`` was generated *before* the hot-path
optimization pass (PR 1's golden suite). It has been regenerated twice
since, each time for a deliberate model correction: the fix for the
frontend dropping in-flight correct-path µops on a memory-order-violation
squash changed one cell (``gzip/Baseline_0(dual)``), and bounding the
frontend at ``fetch_queue_entries`` moved ``issued_total``,
``unique_issued`` and ``wrong_path_issued`` by 1-2 in all three cells
(cycles and commits unchanged). Two locks hold the claim in place:

* the sha256 of the committed goldens file matches the constant below —
  so the file cannot be silently regenerated to mask a semantic change
  (``--regen-goldens`` changes this hash and the diff says so);
* a fresh simulation of each golden cell hashes to the same digest as
  the committed counters — the per-counter comparison lives in
  ``tests/golden/test_golden_results.py``; the digest here is the
  compact summary the perf work quotes.
"""

from __future__ import annotations

import hashlib
import json

from tests.golden.test_golden_results import CELLS, GOLDEN_PATH, _simulate

#: sha256 of tests/golden/goldens.json as committed before the hot-path
#: optimization pass. Regenerating the goldens (an *intentional* semantic
#: change) must update this constant in the same commit.
PRE_OPTIMIZATION_GOLDENS_SHA256 = (
    "d9bd47ab024e84ea8b47e03881cbb3b28151b79fe1a47112983da174b768dac5")


def canonical_digest(data: dict) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def test_goldens_file_is_the_pre_optimization_one():
    digest = hashlib.sha256(GOLDEN_PATH.read_bytes()).hexdigest()
    assert digest == PRE_OPTIMIZATION_GOLDENS_SHA256, (
        "tests/golden/goldens.json changed; if a semantic change was "
        "intended, update PRE_OPTIMIZATION_GOLDENS_SHA256 and explain "
        "the drift in the commit message")


def test_optimized_kernel_matches_pre_optimization_hashes():
    committed = json.loads(GOLDEN_PATH.read_text())
    for cell_id, cell in CELLS.items():
        fresh = canonical_digest(_simulate(cell))
        golden = canonical_digest(committed[cell_id])
        assert fresh == golden, (
            f"{cell_id}: optimized kernel diverged from the "
            f"pre-optimization golden (SimStats hash mismatch)")
