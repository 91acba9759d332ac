"""Execution backend selection: the reference interpreter or the compiler.

Every consumer that runs MiniC programs (the fuzz engine, the experiment
runners, the bench harness) goes through :func:`make_backend` so the choice
between the reference interpreter (``repro.runtime.interpreter``) and the
IR-to-Python compiler (``repro.runtime.compiler``) is one knob:

- the ``REPRO_BACKEND`` environment variable (``interp`` | ``compile``),
- or an explicit ``backend=`` argument, which wins over the environment.

The interpreter stays the semantic reference: the compiled backend is
differentially tested against it (same return values, traps, coverage
maps, Ball-Larus path ids, instruction accounting) and any divergence is a
compiler bug, never a spec change.

A :class:`Backend` additionally owns the compile-only throughput layer so
callers need no backend-specific branches: ``probe_prune=True`` applies
flow-conservation probe elision
(:func:`repro.coverage.prune.build_prune_plan`) at compile time; counts of
elided probes are reconstructed after each complete run, so observed
coverage maps are unchanged while ``probe_cost`` drops.
"""

import os

from repro.coverage.prune import build_prune_plan
from repro.runtime import interpreter
from repro.runtime.compiler import compile_program

BACKENDS = ("interp", "compile")

_ENV_VAR = "REPRO_BACKEND"


def resolve_backend(name=None):
    """The effective backend name: argument, else environment, else interp."""
    if name is None:
        name = os.environ.get(_ENV_VAR) or "interp"
    if name not in BACKENDS:
        raise ValueError(
            "unknown backend %r (expected one of %s; set %s or pass backend=)"
            % (name, "/".join(BACKENDS), _ENV_VAR)
        )
    return name


class Backend:
    """One program's executor under a chosen backend and instrumentation.

    ``execute(data, instr_budget=..., call_depth_limit=..., cmplog=...)``
    has the interpreter's signature minus the leading program/instrumentation
    arguments (bound at construction).
    """

    __slots__ = (
        "name",
        "program",
        "instrumentation",
        "execute",
        "_plan",
    )

    def taint_execute(self, data, **kwargs):
        """Run ``data`` under taint tracking; returns (result, TaintMap).

        The taint semantics live in the reference interpreter only
        (:mod:`repro.taint.track`); the compiled backend *transparently
        falls back* to it for taint runs — the fallback contract of DESIGN
        §12.  The taint interpreter's observables are bit-identical to the
        plain interpreter's, and probe pruning never applies here (taint
        runs always use the full instrumentation, whose observed maps equal
        the reconstructed pruned ones).
        """
        from repro.taint.track import taint_execute

        return taint_execute(self.program, data, self.instrumentation, **kwargs)

    def __init__(self, name, program, instrumentation=None, probe_prune=False):
        self.name = resolve_backend(name)
        self.program = program
        self.instrumentation = instrumentation
        if self.name == "interp":
            self._plan = None

            def _run(data, **kwargs):
                return interpreter.execute(program, data, instrumentation, **kwargs)

            self.execute = _run
        else:
            # build_prune_plan returns None for instrumentations it cannot
            # soundly elide (path-state actions), so probe_prune=True is
            # safe to request unconditionally.
            self._plan = (
                build_prune_plan(program, instrumentation) if probe_prune else None
            )
            self.execute = compile_program(
                program, instrumentation, self._plan
            ).execute

    @property
    def prune_plan(self):
        """The active PrunePlan (None under interp or unpruned compile)."""
        return self._plan


def make_backend(program, instrumentation=None, backend=None, probe_prune=False):
    """Build a :class:`Backend` honoring ``REPRO_BACKEND`` when unset."""
    return Backend(backend, program, instrumentation, probe_prune=probe_prune)
