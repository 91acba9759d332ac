"""Engine-side state for the plateau-triggered concolic solver stage.

The escalation ladder's top rung (DESIGN §14): when the campaign's
coverage has stalled for a plateau window, rare frontier branches are
escalated from masked mutation to *concolic solving* — replay the
branch's champion seed under the shadow interpreter
(:mod:`repro.analysis.symbolic`), collect its path condition, and ask the
bounded solver (:mod:`repro.analysis.solver`) for bytes that flip the
guard.  Witnesses re-enter the corpus through the normal execution path,
so the queue only ever trusts real executions.

:class:`ConcolicState` mirrors :class:`repro.taint.targets.TaintState`:
it is the engine's mutable bookkeeping (visit budgets, counters, the
plateau detector), snapshots with the engine, and its absence (``None``)
means the stage is compiled out of the loop entirely — concolic-off
campaigns execute the exact pre-concolic instruction stream.

The stall signal is an engine-owned
:class:`~repro.telemetry.plateau.PlateauDetector` fed at the timeline
cadence.  It deliberately has **no bus**: the engine's detector must not
publish events (telemetry is pure observation, and a traced campaign
must equal an untraced one), so the telemetry layer keeps its own
detector for PlateauEvents and this one exists solely to gate
escalation.
"""

import os

from repro.telemetry.plateau import PlateauDetector, default_window

CONCOLIC_ENV = "REPRO_CONCOLIC"

_TRUTHY = ("1", "true", "on", "yes")


def concolic_enabled(flag=None):
    """Resolve the concolic switch: explicit argument, else ``REPRO_CONCOLIC``."""
    if flag is not None:
        return bool(flag)
    return (os.environ.get(CONCOLIC_ENV) or "").strip().lower() in _TRUTHY


class ConcolicState:
    """Mutable per-engine concolic bookkeeping (snapshot/restore-able).

    The plateau detector is snapshotted: a restored engine must resume
    with the same stall signal or escalation timing (and therefore the
    virtual clock) would diverge.
    """

    __slots__ = (
        "visits",
        "detector",
        "targets_selected",
        "extract_runs",
        "solve_attempts",
        "solved",
        "flips",
        "witness_execs",
    )

    def __init__(self):
        self.visits = {}  # map index -> times escalated
        self.detector = None  # created on first observe (needs the budget)
        self.targets_selected = 0
        self.extract_runs = 0
        self.solve_attempts = 0
        self.solved = 0
        self.flips = 0
        self.witness_execs = 0

    def observe(self, tick, value, budget_ticks):
        """Feed one (tick, coverage) sample to the stall detector."""
        if self.detector is None:
            self.detector = PlateauDetector(default_window(budget_ticks))
        self.detector.observe(tick, value)

    def stalled(self):
        """True while coverage sits inside an open plateau."""
        return self.detector is not None and self.detector.open_plateau is not None

    def solve_rate(self):
        """Fraction of solve attempts that produced a witness."""
        return self.solved / self.solve_attempts if self.solve_attempts else 0.0

    def snapshot(self):
        return {
            "visits": dict(self.visits),
            "detector": self.detector.state() if self.detector is not None else None,
            "targets_selected": self.targets_selected,
            "extract_runs": self.extract_runs,
            "solve_attempts": self.solve_attempts,
            "solved": self.solved,
            "flips": self.flips,
            "witness_execs": self.witness_execs,
        }

    def restore(self, snap):
        self.visits = dict(snap["visits"])
        detector_state = snap["detector"]
        if detector_state is None:
            self.detector = None
        else:
            self.detector = PlateauDetector(detector_state["window"]).set_state(
                detector_state
            )
        self.targets_selected = snap["targets_selected"]
        self.extract_runs = snap["extract_runs"]
        self.solve_attempts = snap["solve_attempts"]
        self.solved = snap["solved"]
        self.flips = snap["flips"]
        self.witness_execs = snap["witness_execs"]
        return self
