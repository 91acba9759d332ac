"""TaintExec: the shadow interpreter that tracks byte-level input provenance.

:class:`TaintExec` is the taint domain of the shadow interpreter loop
(:class:`repro.runtime.shadow.ShadowExec`): the shadow of every register and
heap cell is a taint label.  The loop keeps the concrete side bit-identical
to the plain interpreter — same instruction counting, probe accounting,
traps and cmplog (the ``test_taint.py`` equivalence tests pin this) — and
this module adds only the propagation rules, which feed a
:class:`~repro.taint.map.TaintMap`.

Propagation rules (DESIGN §12):

- input bytes are the taint sources: byte ``i`` of the test case gets the
  label ``1 << i`` (:mod:`repro.taint.labels`);
- binary/unary operators join their operands' labels with ``|``; LOAD
  joins the cell's label with the index's (the loaded value depends on
  *which* cell);
- STORE writes the source label into the shadow cell; ``copy``/``fill``
  move labels like the data they shadow; ``read16``/``read32`` join the
  window's cell labels; ``memcmp`` records both windows' labels as one cmp
  site, sampling the byte windows only while the site keeps samples and
  never from a window that holds an array ref;
- **control taint** is a monotone per-execution accumulator folding in every
  label the loop reports as steering control: branch conditions, array
  indices and bounds (including tainted alloc sizes), divisors, shift
  amounts, builtin offsets/lengths, trap codes.  It over-approximates
  implicit flows: any byte *not* in ``ctl`` provably cannot change the
  execution path, which is the induction that makes
  ``TaintMap.sound_mask`` sound.
"""

from repro.runtime.interpreter import DEFAULT_CALL_DEPTH, DEFAULT_INSTR_BUDGET
from repro.runtime.shadow import ShadowExec
from repro.taint.map import TaintMap


def taint_execute(
    program,
    input_bytes,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    cmplog=False,
    pair_cap=8,
):
    """Run ``program.main(input_bytes)`` under taint tracking.

    Returns ``(ExecutionResult, TaintMap)``.  The ExecutionResult is
    bit-identical to a plain :func:`~repro.runtime.interpreter.execute` of
    the same input; the TaintMap is finalized even on trap/timeout.
    """
    vm = TaintExec(
        program, instrumentation, instr_budget, call_depth_limit, cmplog, pair_cap
    )
    return vm.run(input_bytes)


class TaintExec(ShadowExec):
    """Shadow interpreter: concrete semantics of ``_Exec`` + taint labels."""

    def __init__(
        self,
        program,
        instrumentation,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        cmplog=False,
        pair_cap=8,
    ):
        super().__init__(
            program, instrumentation, instr_budget, call_depth_limit, cmplog
        )
        self._tmap = TaintMap(pair_cap=pair_cap)
        self._on_cmp = self._tmap.record_cmp
        self._on_branch = self._tmap.record_branch
        self._ctl = 0  # monotone control-taint accumulator (a label's bits)

    def _input_shadow(self, offset):
        return 1 << offset

    def _finish(self, input_len):
        self._tmap.finalize(self._ctl, input_len)
        return self._tmap

    def _join_bin(self, binop, sa, sb, a, b):
        return (sa or 0) | (sb or 0)

    def _join_un(self, unop, sa):
        return sa

    def _steer(self, shadow):
        self._ctl |= shadow

    def _load_indexed(self, cell, sarr, sidx):
        return (cell or 0) | (sarr or 0) | (sidx or 0)

    # -- builtins --------------------------------------------------------------

    def _window_label(self, ref, off, n, ref_label):
        """Join of the shadow labels of ``ref[off:off+n]`` plus the ref's own."""
        out = (ref_label or 0) | (self._sizes.get(ref.array_id) or 0)
        cells = self._cells.get(ref.array_id)
        if cells is not None:
            for label in cells[off : off + n]:
                if label is not None:
                    out |= label
        return out or None

    def _shadow_len(self, value, vals, labels, fname, line):
        return (labels[0] or 0) | (self._sizes.get(vals[0].array_id) or 0) or None

    def _shadow_abs(self, value, vals, labels, fname, line):
        return labels[0]

    def _shadow_min(self, value, vals, labels, fname, line):
        return (labels[0] or 0) | (labels[1] or 0) or None

    _shadow_max = _shadow_min

    def _shadow_memcmp(self, value, vals, labels, fname, line):
        a, aoff, b, boff, n = vals
        la = self._window_label(a, aoff, n, labels[0])
        lb = self._window_label(b, boff, n, labels[2])
        site = (fname, line, "memcmp")
        left = right = None
        if self._tmap.wants_pair(site):
            left = _byte_window(self._heap.storage(a), aoff, n)
            right = _byte_window(self._heap.storage(b), boff, n)
        self._tmap.record_cmp(site, la, lb, left, right)
        return (la or 0) | (lb or 0) or None

    def _read_shadow(self, vals, labels, width, big_endian):
        return self._window_label(vals[0], vals[1], width, labels[0])


def _byte_window(storage, off, n):
    """Low bytes of ``storage[off:off+n]``; None when a cell holds an array ref."""
    try:
        return bytes([v & 0xFF for v in storage[off : off + n]])
    except TypeError:
        return None
