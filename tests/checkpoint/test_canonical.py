"""Canonical payload form: the scalar-leaf fast path is byte-identical.

A checkpoint's digest is sha256 over ``_dumps(state)``, and that digest
keys engine cells, so the canonical form is a contract. The recursive
walk that defined it before the exact-type scalar-sequence shortcut is
frozen below as the oracle; ``_dumps`` must reproduce its bytes on real
simulator states (functional and mid-run, every workload kind), on a
rebased payload, on generated plain data and on container subclasses,
which must still be lowered to their builtin types.
"""

from __future__ import annotations

import collections
import io
import pickle
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.format import (
    HEADER,
    PICKLE_PROTOCOL,
    _canonical_state,
    _dumps,
    load_checkpoint,
    save_checkpoint,
)
from repro.checkpoint.rebase import rebase_checkpoint
from repro.core.presets import make_config
from repro.pipeline.cpu import Simulator
from repro.traces.format import capture
from repro.traces.registry import TraceWorkload, resolve_workload

SEED = 1


def _oracle_canonical(obj):
    # Frozen copy of the fully recursive canonical form.
    if isinstance(obj, dict):
        try:
            items = sorted(obj.items())
        except TypeError:
            items = list(obj.items())
        return {key: _oracle_canonical(value) for key, value in items}
    if isinstance(obj, list):
        return [_oracle_canonical(value) for value in obj]
    if isinstance(obj, tuple):
        return tuple(_oracle_canonical(value) for value in obj)
    return obj


def _oracle_dumps(state) -> bytes:
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=PICKLE_PROTOCOL)
    pickler.fast = True
    pickler.dump(_oracle_canonical(state))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# (a) simulator states


def _workload(kind, tmp_path_factory):
    if kind == "spec":
        return resolve_workload("gzip"), SEED
    if kind == "rv32i":
        return resolve_workload("ptr-chase"), SEED
    if kind == "scenario":
        workload = resolve_workload(
            "examples/scenarios/pointer-chase-storm.toml")
        return workload, workload.seed
    path = tmp_path_factory.mktemp("canonical") / "gzip.trc"
    capture(resolve_workload("gzip").build_trace(SEED), path, 12_000,
            wp_seed=SEED)
    return TraceWorkload(path), None


@pytest.mark.parametrize("kind", ["spec", "rv32i", "recorded", "scenario"])
def test_simulator_states_match_oracle(tmp_path_factory, kind):
    workload, seed = _workload(kind, tmp_path_factory)
    sim = Simulator(make_config("SpecSched_4_Crit"),
                    workload.build_trace(seed))
    sim.fast_forward(3_000)
    functional = sim.state_dict()
    assert _dumps(functional) == _oracle_dumps(functional)

    sim.run(max_uops=1_500)
    mid_run = sim.state_dict()
    assert mid_run["uops"], "mid-run state should carry in-flight µops"
    assert _dumps(mid_run) == _oracle_dumps(mid_run)


# ---------------------------------------------------------------------------
# (b) rebased payload


def _stored_raw(path) -> bytes:
    data = path.read_bytes()
    meta_len = HEADER.unpack_from(data)[5]
    return zlib.decompress(data[HEADER.size + meta_len:])


def test_rebased_payload_matches_oracle(tmp_path):
    workload = resolve_workload("mcf")
    sim = Simulator(make_config("SpecSched_4_Combined"),
                    workload.build_trace(SEED))
    sim.fast_forward(3_000)
    save_checkpoint(sim, tmp_path / "src.ckpt", workload=workload, seed=SEED)
    source = load_checkpoint(tmp_path / "src.ckpt")
    target = make_config("SpecSched_4")

    plain = rebase_checkpoint(source, target, tmp_path / "plain.ckpt")
    fresh_states = {}
    for name in ("shared-1.ckpt", "shared-2.ckpt"):
        shared = rebase_checkpoint(source, target, tmp_path / name,
                                   _fresh_states=fresh_states)
        assert shared.digest == plain.digest
    assert len(fresh_states) == 1

    payload = load_checkpoint(tmp_path / "plain.ckpt").payload
    assert _stored_raw(tmp_path / "plain.ckpt") == _oracle_dumps(payload)
    assert _dumps(payload) == _oracle_dumps(payload)


# ---------------------------------------------------------------------------
# (c) generated plain data

_LEAVES = (st.integers() | st.floats() | st.text(max_size=6)
           | st.binary(max_size=6) | st.booleans() | st.none())


def _containers(children):
    return (st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(st.text(max_size=4), children, max_size=5)
            | st.dictionaries(st.integers(), children, max_size=5))


_PLAIN = st.recursive(_LEAVES, _containers, max_leaves=40)


def _reshuffled(obj, rng):
    """``obj`` with every dict rebuilt in a random insertion order."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {key: _reshuffled(value, rng) for key, value in items}
    if isinstance(obj, list):
        return [_reshuffled(value, rng) for value in obj]
    if isinstance(obj, tuple):
        return tuple(_reshuffled(value, rng) for value in obj)
    return obj


@settings(max_examples=200, deadline=None)
@given(state=_PLAIN, rng=st.randoms(use_true_random=False))
def test_plain_data_matches_oracle(state, rng):
    expected = _oracle_dumps(state)
    assert _dumps(state) == expected
    assert _dumps(_reshuffled(state, rng)) == expected


# ---------------------------------------------------------------------------
# (d) subclasses take the recursive path


class _Tagged(list):
    pass


def test_fast_path_returns_exact_scalar_sequences_unchanged():
    leaves = [1, 2.5, "a", b"b", True, None]
    assert _canonical_state(leaves) is leaves
    as_tuple = tuple(leaves)
    assert _canonical_state(as_tuple) is as_tuple
    nested = [leaves]
    assert _canonical_state(nested) is not nested


def test_namedtuple_and_list_subclass_are_lowered():
    Point = collections.namedtuple("Point", "x y")
    state = {"point": Point(1, 2), "tagged": _Tagged([3, 4]),
             "both": [Point(5, 6), _Tagged([7])]}
    canonical = _canonical_state(state)
    assert type(canonical["point"]) is tuple
    assert type(canonical["tagged"]) is list
    assert [type(item) for item in canonical["both"]] == [tuple, list]
    assert _dumps(state) == _oracle_dumps(state)
