"""The stage protocol: what every pipeline stage object implements.

A stage is one tick-ordered slice of the machine. The driver
(:class:`repro.pipeline.cpu.Simulator`) holds a tuple of stages and, each
cycle, calls ``tick(now)`` on every one in list order — there is no other
control flow between stages. A stage's constructor receives the simulator
being wired and binds direct references to the structures, ports, wires
and latches it touches (binding once keeps the per-cycle path as cheap as
the pre-decomposition method calls).

Contract (normative statement in ``docs/ARCHITECTURE.md``):

* ``name`` identifies the stage in the tick order, the per-stage
  instrumentation breakdown (:mod:`repro.perf.instrument`) and the
  checkpoint payload's ``stages`` table — names must be unique per
  machine;
* ``tick(now)`` advances the stage one cycle and communicates only
  through ports, wires, latches and the shared structures it bound;
* ``next_event(now)`` returns the earliest cycle ``>= now`` at which
  ``tick`` could change any state, assuming no other stage acts first
  (:data:`NEVER` when only another stage can unblock it). The driver
  skips a cycle only when every stage's horizon lies beyond it. The
  default returns ``now`` — "never skip" — so a stage that does not
  declare a horizon (and a subclass that overrides ``tick`` below the
  class that declared one) keeps the machine on plain ticking;
* ``state_dict(ctx)`` / ``load_state_dict(state, ctx)`` implement the
  component state protocol (:mod:`repro.checkpoint.state`) for state the
  stage *owns* (most stages own none — shared structures and latches are
  serialized by the driver); a checkpoint round-trip must restore the
  stage bit-identically, and ``load_state_dict({})`` must reset the
  stage to its empty state (snapshots elide empty blobs, so restore
  hands ``{}`` to any stage the payload recorded nothing for);
* ``after`` (class attribute) names the insertion anchor used when the
  stage is added through ``extra_stages`` — see
  :func:`repro.pipeline.stages.build_stages`.
"""

from __future__ import annotations

from typing import Dict, Optional


#: :meth:`Stage.next_event`'s "nothing pending" horizon: only another
#: stage's action can give this stage work.
NEVER = 1 << 62


class SimulationError(RuntimeError):
    """Raised when a model invariant is violated (bug trap, not recovery)."""


class Stage:
    """Base class for pipeline stages (see the module docstring for the
    full protocol contract)."""

    #: Stage name: unique per machine, keys the instrumentation and
    #: checkpoint tables.
    name = "stage"

    #: For ``extra_stages``: name of the stage to insert after
    #: (``None`` appends at the end of the tick order).
    after: Optional[str] = None

    def __init__(self, sim) -> None:
        """Bind the stage to the machine being wired.

        Subclasses bind direct references to the structures they touch;
        ``self.sim`` stays available for instrumentation subclasses.
        """
        self.sim = sim

    def tick(self, now: int) -> None:
        """Advance the stage one cycle."""
        raise NotImplementedError

    def next_event(self, now: int) -> int:
        """Earliest cycle ``>= now`` at which :meth:`tick` could change
        state if no other stage acts first (``now``: never skip)."""
        return now

    # -- state protocol (repro.checkpoint) -------------------------------

    def state_dict(self, ctx) -> Dict:
        """Stage-owned state as plain data (empty for stateless stages)."""
        return {}

    def load_state_dict(self, state: Dict, ctx) -> None:
        """Restore a :meth:`state_dict` snapshot — ``{}`` means "reset
        to the empty state" (no-op by default: stateless)."""


def declares_next_event(stage: Stage) -> bool:
    """True when ``stage``'s horizon speaks for its ``tick``: some class
    below :class:`Stage` defines ``next_event``, and neither a subclass
    of that class nor the instance re-defines ``tick`` (an overridden
    tick may act on cycles the inherited horizon knows nothing about)."""
    if "tick" in vars(stage) and "next_event" not in vars(stage):
        return False
    mro = type(stage).__mro__
    owner = next(klass for klass in mro if "next_event" in vars(klass))
    ticker = next(klass for klass in mro if "tick" in vars(klass))
    return owner is not Stage and issubclass(owner, ticker)
