"""Dynamic taint tracking: byte-level input provenance for targeted mutation.

The taint subsystem is the layer between execution and search that the
blind-havoc loop lacks: it runs a test case under a *shadow* interpreter
(:mod:`repro.taint.track`) that propagates, for every runtime value, the set
of input byte offsets that influenced it, as a bitmask label
(:mod:`repro.taint.labels`: ``None`` when clean, else an ``int`` whose bit
*i* is input byte *i*, joined with ``|``).  Three artifacts come out:

- a :class:`~repro.taint.map.TaintMap` recording, per comparison site, which
  input bytes flow into each operand (plus a control-taint summary that
  makes the masks *sound* under implicit flows); it ORs the masks into
  ints while recording and converts them to offset sets only when read;
- rare-branch targets (:mod:`repro.taint.targets`): branch sites ranked by
  how few queue entries cover them, each paired with its byte mask;
- a masked-mutation stage in the fuzz engine (:mod:`repro.fuzzer.masked`)
  that freezes the bytes satisfying already-taken guards and concentrates
  energy on the bytes the target's comparison actually reads — the
  FairFuzz/Angora recipe adapted to the paper's path-aware engine.

Enable per-campaign with ``EngineConfig(use_taint=True)`` or globally with
the ``REPRO_TAINT`` environment variable (``1``/``true``/``on``/``yes``).
The taint interpreter is the reference semantics; the compiled backend
transparently falls back to it for taint runs (see
:meth:`repro.runtime.backend.Backend.taint_execute`).
"""

import os

from repro.taint.map import TaintMap
from repro.taint.targets import TaintState, TaintTarget, build_branch_index, select_targets
from repro.taint.track import TaintExec, taint_execute

TAINT_ENV = "REPRO_TAINT"

_TRUTHY = ("1", "true", "on", "yes")


def taint_enabled(flag=None):
    """Resolve the taint switch: explicit argument, else ``REPRO_TAINT``."""
    if flag is not None:
        return bool(flag)
    return (os.environ.get(TAINT_ENV) or "").strip().lower() in _TRUTHY


__all__ = [
    "TaintMap",
    "TaintExec",
    "TaintState",
    "TaintTarget",
    "TAINT_ENV",
    "build_branch_index",
    "select_targets",
    "taint_enabled",
    "taint_execute",
]
