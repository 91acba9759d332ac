"""IR -> Python compiler: the VM's fast execution backend.

The tree-walking interpreter (:mod:`repro.runtime.interpreter`) dispatches
on a tuple per instruction; that dispatch is the hot path of every campaign.
This module compiles each function's tuple IR into *generated Python source*
once, then executes the compiled closures instead:

- registers become Python locals (``r0``, ``r1``, ...), so operand access is
  a fast-local load instead of a list index through a tuple field;
- operators are bound at compile time — each BIN/UN instruction becomes the
  one arithmetic expression it denotes.  Results that can leave the int64
  range assign the plain Python value and then wrap it
  (``((v + 2**63) & (2**64-1)) - 2**63``) only if a range guard finds it
  outside [-2**63, 2**63 - 1]: the wrap is three long operations, and
  overflow is rare;
- string literals are codegen operands: each pool entry's bytes are a
  module constant (pool arrays never change — every write path traps on
  them first), bounds checks with literal offsets and counts are decided at
  codegen, constant windows are hoisted as constant lists, and ``len``,
  reads and literal-only ``memcmp`` fold.  The ``ArrayRef`` itself is built
  only where the register escapes (a call argument, a stored or returned
  value, a compare, a builtin that is not inlined, a dispatch label where
  it is live), once per dynamic STR, so identity is the interpreter's;
- every VM check is a guarded fast path plus an ``_Exec`` rule: the
  generated code holds only the guard (an operator's divisor or shift
  range and its ``TypeError``, LOAD/STORE's class, read-only and bounds
  tests, the call-depth test, an inlined builtin's class and bounds
  tests), and a failed guard makes one ``rt._*_at`` call.  That call
  flushes the local tallies and runs the family's rule on ``_Exec``
  (``_bin_rule``, ``_un_rule``, ``_access_rule``, ``_depth_rule``, a
  builtin's ``_bi_*`` method), which raises the trap.  Trap kinds,
  details and check order are written there and nowhere else.  ``len``,
  ``abs``, ``min``, ``max``, ``alloc``, ``memcmp`` and the ``read*``
  family are inlined this way: the value and its virtual-time charge
  under one guard, the disjunction of the builtin's class and bounds
  tests;
- basic blocks are threaded directly: single-predecessor successors are
  inlined after their predecessor's terminator (straight-line chains and
  if/else diamonds compile to straight-line Python), and only join points
  and loop headers go through a binary dispatch tree on the block id;
- coverage probe actions (:mod:`repro.coverage.feedback`) are inlined at
  their edges with their constants folded into the generated code;
- bookkeeping the interpreter pays per step is hoisted: the instruction
  counter and probe accounting live in function-local integers, flushed to
  the shared cells only around calls, traps, and returns (every point where
  another frame or the harness can observe them), a trap exit included;
- for pure-HIT instrumentation (edge/block: one HIT per probe site, as
  decided by :meth:`~repro.coverage.feedback.Instrumentation.finalize`),
  per-probe accounting disappears entirely — each HIT increments exactly
  one coverage cell, so ``probe_count``/``probe_cost`` are recovered from
  the map after the run by :func:`~repro.runtime.interpreter.charge_hits`,
  the rule the interpreter and the shadow loop apply too.

Semantics are *identical* to the interpreter by construction and by test:
the compiled code runs against the same runtime object (:class:`_Rt` is an
:class:`~repro.runtime.interpreter._Exec` subclass, sharing the heap, the
builtins, the trap/trace machinery, and the rare probe kinds), counts
instructions block-for-block the same way, enforces the same call-depth
limit, and produces field-for-field equal
:class:`~repro.runtime.interpreter.ExecutionResult` values — coverage maps,
Ball-Larus path ids, trap sites, stack traces, cmplog operands, and virtual
cost included.  The budget is the interpreter's by construction: generated
code checks it only at dispatch labels, and a run that reaches it is
replayed on the interpreter, whose result is returned (see
:class:`_Restart`).  ``tests/test_compiler*.py`` and the
``backend-equivalence`` CI job hold that obligation on every input.

Codegen runs cold in every fresh process (each ``repro fuzz``, service job
attempt, instance worker and respawn), so each piece of its analysis runs
once: one scan of a function's text for whole words picks the preamble
aliases it binds, and each function's liveness is solved once per
:class:`CompiledProgram`, shared by the plain and cmplog variants and by
every inlined copy of the function.  For the deep subjects (sqlite3,
cflow, lame, infotocap) generating the plain and cmplog variants takes
6–11 ms per subject, and CPython's ``compile()`` of that text 9–23 ms
more (2-core host, Python 3.11).  The text itself is
pinned byte for byte by ``tests/test_codegen_pin.py``.

Compiled programs are memoized in-process keyed on the package source
fingerprint (the PR 2 checkpoint fingerprint), the program's IR fingerprint,
the instrumentation tables, and the probe-pruning plan; set
``REPRO_COMPILE_CACHE=DIR`` to also persist generated sources across
processes (CI caches that directory across jobs).
"""

import hashlib
import json
import os
import re
from collections import OrderedDict

from repro.analysis.dataflow import Liveness, solve
from repro.cfg.instructions import (
    BIN,
    BR,
    BUILTIN,
    CALL,
    CONST,
    JMP,
    LOAD,
    MOV,
    OP_ADD,
    OP_AND,
    OP_BNOT,
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LNOT,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SHL,
    OP_SHR,
    OP_SUB,
    OP_XOR,
    RET,
    STORE,
    UN,
    instr_uses,
)
from repro.analysis.foldops import fold_binop, fold_unop
from repro.fileio import atomic_write_bytes
from repro.lang.builtins_spec import BUILTIN_NAMES
from repro.runtime.interpreter import (
    ACT_ADD,
    ACT_END,
    ACT_END_RESET,
    ACT_HIT,
    CMPLOG_CAP,
    DEFAULT_CALL_DEPTH,
    DEFAULT_INSTR_BUDGET,
    PROBE_COSTS,
    _BUILTIN_DISPATCH,
    _READS,
    ExecutionResult,
    _Exec,
    byte_window,
    charge_hits,
    execute as interpret,
    guard_failed,
)
from repro.runtime.traps import Trap
from repro.runtime.values import ArrayRef, wrap_int

_U64 = (1 << 64) - 1
_SIGN = 1 << 63

# Inlining guard: forcing deep single-predecessor chains through the
# dispatch loop keeps generated nesting far below CPython's MAXINDENT.
_MAX_INLINE_DEPTH = 22

CACHE_ENV = "REPRO_COMPILE_CACHE"


class _Restart(Exception):
    """Raised by generated code at a dispatch label past the budget.

    Generated code keeps exact instruction accounting but checks the
    budget only at dispatch labels, never per block; every cycle passes a
    label, so the check bounds every run.  A run that ends (returns or
    traps) past its budget is caught by the same test in
    :meth:`CompiledProgram.execute`.  ``_n`` grows monotonically, so a
    run within budget at its end never reached the interpreter's
    per-block timeout; any other run is replayed, execution being
    deterministic, on the interpreter, whose result is the outcome.  The
    aborted compiled run has no observable effects: its state is discarded
    by the reset that precedes the next run.
    """


class _Rt(_Exec):
    """Shared execution state for compiled functions.

    Subclasses the interpreter's executor so the heap, builtins, trap and
    stack-trace machinery, cmplog harvesting, and the out-of-line probe
    kinds (n-gram, h-path, path pairs) are *the same code* in both
    backends.  Generated code traps through one ``_*_at`` exit per check
    family, each running that family's ``_Exec`` trap rule: the
    interpreter's own trap kinds, details and check order.  A run starts
    in :meth:`_rerun`.  The instruction counter moves
    into a one-element list (``_count_cell``) so generated code can flush
    its local tally through a fast alias; the ``_count`` property keeps
    the builtins' accounting and the result construction transparently in
    sync.
    """

    def __init__(
        self, compiled, program, instrumentation, instr_budget, call_depth_limit, cmplog
    ):
        self._count_cell = [0]
        self._compiled = compiled
        self._busy = False
        _Exec.__init__(
            self, program, instrumentation, instr_budget, call_depth_limit, cmplog
        )
        self._main_index = program.main_index
        # The input array always lands at the same id (the heap is trimmed
        # back to the string pool between runs), so its handle is reusable.
        self._input_ref = ArrayRef(self._heap._readonly_base)

    @property
    def _count(self):
        return self._count_cell[0]

    @_count.setter
    def _count(self, value):
        self._count_cell[0] = value

    # Trap exits: a failed generated guard calls one of these, which
    # flushes the frame's local tallies and runs the ``_Exec`` rule of its
    # check family.  One call per exit instead of three or four inline
    # stores keeps the generated text (and so ``compile()`` time) small;
    # traps are rare, so the extra frame is paid almost never.

    def _flush(self, n, pn, pk):
        self._count_cell[0] = n
        acc = self._probe_acc
        acc[0] += pn
        acc[1] += pk

    def _bin_at(self, binop, a, b, func_name, line, n, pn=0, pk=0):
        self._flush(n, pn, pk)
        self._bin_rule(binop, a, b, func_name, line)

    def _un_at(self, unop, a, func_name, n, pn=0, pk=0):
        self._flush(n, pn, pk)
        self._un_rule(unop, a, func_name)

    def _access_at(self, arr, idx, store, func_name, line, n, pn=0, pk=0):
        self._flush(n, pn, pk)
        self._access_rule(arr, idx, store, func_name, line)

    def _depth_at(self, func_name, line, n, pn=0, pk=0):
        self._flush(n, pn, pk)
        self._depth_rule(func_name, line)

    def _bi_at(self, code, args, func_name, line, n, pn=0, pk=0):
        """An inlined builtin's failed guard: the builtin's ``_Exec._bi_*``
        method is its rule.  The guard is that method's class and bounds
        tests, so a return means the guard is wrong."""
        self._flush(n, pn, pk)
        _BUILTIN_DISPATCH[code](self, args, func_name, line)
        raise guard_failed(BUILTIN_NAMES[code], func_name, line)

    def _rerun(self, compiled, instr_budget, call_depth_limit, cmplog, input_bytes):
        """Reset per-execution state in place and run ``input_bytes`` under
        the ``compiled`` function table — the pooled-runtime hot path.

        Clears that would rewrite an already-pristine field are skipped,
        and per-run state feeding the result is kept in locals.
        Per-execution wrapper cost rivals the program body on shallow runs,
        so every store here shows up in execs/sec.  ``_hits`` and
        ``_cmp_log`` are handed to the previous run's ExecutionResult, so
        they are replaced, never cleared in place.  The input is placed
        directly, as ``Heap.place`` does.
        """
        self._compiled = compiled
        self._budget = instr_budget
        self._depth_limit = call_depth_limit
        self._cmplog = cmplog
        arrays = self._heap._arrays
        base = self._input_ref.array_id
        if len(arrays) > base:
            del arrays[base:]
        count_cell = self._count_cell
        probe_acc = self._probe_acc
        count_cell[0] = 0
        probe_acc[0] = 0
        probe_acc[1] = 0
        hits = self._hits = {}
        cmp_log = self._cmp_log = []
        if self._stack:
            self._stack = []
        if self._ngram_ring:
            self._ngram_ring = []
        self._last_path_idx = 0x1505
        self._hpath_state = 0x811C9DC5
        arrays.append(list(input_bytes))
        retval, trap = 0, None
        try:
            retval = compiled[self._main_index](self, self._input_ref)
        except Trap as caught:
            trap = caught
        return ExecutionResult(
            retval,
            trap,
            False,
            count_cell[0],
            probe_acc[0],
            probe_acc[1],
            hits,
            cmp_log,
        )


def _compile_reconstruct(schedule):
    """Build a closure applying a prune plan's reconstruction schedule.

    The schedule is inverted into a kept-cell -> ((target, coef), ...) index
    so a run only pays for the kept cells it actually touched: absent cells
    contribute zero to every expression, and ``hits.keys() & index`` narrows
    the walk to contributing cells via a C-level set intersection.  On short
    executions that skips the (typically much larger) cold remainder of the
    program.  Returns ``None`` for an empty schedule.
    """
    if not schedule:
        return None
    contrib = {}
    for target, terms in schedule:
        for source, coef in terms:
            contrib.setdefault(source, []).append((target, coef))
    contrib = {cell: tuple(pairs) for cell, pairs in contrib.items()}
    sources = frozenset(contrib)

    def _recon(hits, _contrib=contrib, _sources=sources):
        touched = hits.keys() & _sources
        if not touched:
            return
        acc = {}
        get = acc.get
        for cell in touched:
            count = hits[cell]
            for target, coef in _contrib[cell]:
                acc[target] = get(target, 0) + coef * count
        for target, total in acc.items():
            if total:
                hits[target] = total

    return _recon


class CompiledProgram:
    """A program compiled under one instrumentation (and optional pruning).

    :meth:`execute` mirrors :func:`repro.runtime.interpreter.execute`.  The
    plain and the cmplog variant (comparison-operand harvesting inlined at
    every comparison) each get one function table, generated lazily on
    first use.
    """

    __slots__ = (
        "program",
        "instrumentation",
        "prune",
        "_key",
        "_fns",
        "_fns_cmplog",
        "_reconstruct",
        "_pure_hit",
        "_rt",
        "_live",
    )

    def __init__(self, program, instrumentation, prune, key):
        self.program = program
        self.instrumentation = instrumentation
        self.prune = prune
        self._key = key
        self._fns = None
        self._fns_cmplog = None
        self._rt = None
        # Liveness solutions by function index, shared by every variant's
        # codegen (and every inlined callee); they depend on the IR alone.
        self._live = {}
        # After a clean run each dropped probe's count is a signed linear
        # combination of kept cells (see repro.coverage.prune).  The
        # schedule is compiled into one straight-line closure with literal
        # cell indices — interpreting the (target, terms) tuples per
        # execution costs more than many of the pruned probes did.
        self._reconstruct = (
            _compile_reconstruct(prune.reconstruct) if prune is not None else None
        )
        self._pure_hit = instrumentation is not None and instrumentation.pure_hit

    def _functions(self, cmplog):
        if cmplog:
            if self._fns_cmplog is None:
                self._fns_cmplog = _load_functions(
                    self.program, self.instrumentation, self.prune,
                    True, self._key, self._live,
                )
            return self._fns_cmplog
        if self._fns is None:
            self._fns = _load_functions(
                self.program, self.instrumentation, self.prune,
                False, self._key, self._live,
            )
        return self._fns

    def execute(
        self,
        input_bytes,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        cmplog=False,
    ):
        """Run ``main(input_bytes)``; drop-in for the interpreter's execute."""
        fns = self._fns_cmplog if cmplog else self._fns
        if fns is None:
            fns = self._functions(cmplog)
        # One pooled runtime per compiled program: per-execution state is
        # reset in place instead of reallocated (the _busy guard falls back
        # to a fresh runtime under reentrant execution).
        rt = self._rt
        if rt is None or rt._busy:
            rt = _Rt(
                fns,
                self.program,
                self.instrumentation,
                instr_budget,
                call_depth_limit,
                cmplog,
            )
            self._rt = rt
        rt._busy = True
        try:
            result = rt._rerun(
                fns, instr_budget, call_depth_limit, cmplog, input_bytes
            )
        except _Restart:
            result = None
        finally:
            rt._busy = False
        if result is None or result.instr_count > instr_budget:
            # The run reached its budget (see _Restart): the interpreter,
            # on the full instrumentation, decides where it times out.
            return interpret(
                self.program,
                input_bytes,
                self.instrumentation,
                instr_budget,
                call_depth_limit,
                cmplog,
            )
        if self._pure_hit:
            # Charged before reconstruction: pruned probes were genuinely
            # not executed.
            charge_hits(result)
        if self._reconstruct is not None and result.trap is None:
            # Complete executions obey flow conservation, so every pruned
            # probe's count is the recorded signed combination of kept
            # cells; trapped executions keep the raw pruned map — the
            # engine never feeds those to the virgin map's novelty merge.
            self._reconstruct(result.hits)
        return result


def execute(
    program,
    input_bytes,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    cmplog=False,
    prune=None,
):
    """Compile (memoized) and run — signature-compatible with the interpreter."""
    return compile_program(program, instrumentation, prune).execute(
        input_bytes,
        instr_budget=instr_budget,
        call_depth_limit=call_depth_limit,
        cmplog=cmplog,
    )


# -- compilation cache ---------------------------------------------------------

_MEMO = OrderedDict()
_MEMO_CAP = 96
_PACKAGE_FP = None


def _package_fingerprint():
    """The PR 2 package-source fingerprint (checkpoint/cache invalidation)."""
    global _PACKAGE_FP
    if _PACKAGE_FP is None:
        try:
            from repro.experiments.runner import source_fingerprint

            _PACKAGE_FP = source_fingerprint()
        except Exception:  # pragma: no cover - fingerprinting is best-effort
            _PACKAGE_FP = "unfingerprinted"
    return _PACKAGE_FP


def program_fingerprint(program):
    """Deterministic digest of a program's IR (blocks, terminators, strings)."""
    sha = hashlib.sha256()
    sha.update(program.source_name.encode("utf-8", "replace"))
    for func in program.funcs:
        sha.update(
            repr(
                (
                    func.name,
                    func.nparams,
                    func.nregs,
                    [(block.instrs, block.term) for block in func.blocks],
                )
            ).encode("utf-8")
        )
    sha.update(repr(program.strings).encode("utf-8", "replace"))
    return sha.hexdigest()[:16]


def _instrumentation_fingerprint(instrumentation):
    if instrumentation is None:
        return "none"
    sha = hashlib.sha256()
    sha.update(
        repr(
            (
                instrumentation.feedback_name,
                instrumentation.map_mask,
                instrumentation.ngram_n,
                bool(instrumentation.pair_paths),
                [sorted(table.items()) for table in instrumentation.edge_actions],
                [sorted(table.items()) for table in instrumentation.ret_actions],
                list(instrumentation.entry_actions),
            )
        ).encode("utf-8")
    )
    return sha.hexdigest()[:16]


def _cache_key(program, instrumentation, prune):
    return "%s-%s-%s-%s" % (
        _package_fingerprint(),
        program_fingerprint(program),
        _instrumentation_fingerprint(instrumentation),
        prune.token if prune is not None else "noprune",
    )


def compile_program(program, instrumentation=None, prune=None):
    """Memoized compilation of ``program`` under ``instrumentation``.

    ``prune`` is an optional :class:`repro.coverage.prune.PrunePlan`; its
    filtered action tables replace the instrumentation's at codegen time
    and its reconstruction pairs are applied after every clean run.
    """
    key = _cache_key(program, instrumentation, prune)
    cached = _MEMO.get(key)
    if cached is not None:
        _MEMO.move_to_end(key)
        return cached
    compiled = CompiledProgram(program, instrumentation, prune, key)
    _MEMO[key] = compiled
    while len(_MEMO) > _MEMO_CAP:
        _MEMO.popitem(last=False)
    return compiled


def clear_cache():
    """Drop every in-process compiled program (tests use this)."""
    _MEMO.clear()


def _disk_cache_path(key, cmplog):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    variant = "cmplog" if cmplog else "plain"
    return os.path.join(root, "%s-%s.json" % (key, variant))


def _load_functions(program, instrumentation, prune, cmplog, key, live):
    """Generate (or load from the disk cache) and exec one variant's sources.

    ``live`` is the owning program's liveness dict (see generate_sources).
    """
    path = _disk_cache_path(key, cmplog)
    sources = None
    if path is not None and os.path.exists(path):
        try:
            with open(path) as handle:
                payload = json.load(handle)
            if payload.get("nfuncs") == len(program.funcs):
                sources = payload["sources"]
        except (OSError, ValueError, KeyError):
            sources = None
    if sources is None:
        sources = generate_sources(program, instrumentation, prune, cmplog, live=live)
        if path is not None:
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                payload = {"nfuncs": len(program.funcs), "sources": sources}
                atomic_write_bytes(path, json.dumps(payload).encode(), fsync=False)
            except OSError:  # pragma: no cover - cache writes are best-effort
                pass
    from repro.lang.builtins_spec import BUILTIN_CODES

    namespace = {
        "ArrayRef": ArrayRef,
        "_Restart": _Restart,
        "byte_window": byte_window,
    }
    for code in BUILTIN_CODES.values():
        namespace["_bi%d" % code] = _BUILTIN_DISPATCH[code]
    for index, source in enumerate(sources):
        filename = "<repro-compiled:%s:%s>" % (
            program.source_name,
            program.funcs[index].name,
        )
        exec(compile(source, filename, "exec"), namespace)  # noqa: S102
    return [namespace["_f%d" % func.index] for func in program.funcs]


# -- code generation -----------------------------------------------------------

# Inlining guards.  Callee bodies this small are expanded at their call
# sites (the Python frame push, argument tuple, and counter flushes around
# a real call dwarf the callee's own work); the per-function budget bounds
# generated-code growth, and the per-site depth guard keeps nesting far
# below CPython's MAXINDENT.
_INLINE_MAX_INSTRS = 64
_INLINE_MAX_BLOCKS = 12
_INLINE_BUDGET = 768
_INLINE_LEAF_INSTRS = 24

# Sentinel cont_label for leaf expansions (single-block callees emitted in
# place with no continuation label; see _emit_leaf_call).
_LEAF_CONT = object()

_LIVE = Liveness()

# One scan of a function's text finds every identifier the preamble may bind.
_WORD = re.compile(r"\w+")


def _is_lit(expr):
    """Whether a generated operand expression is an integer literal."""
    return expr[0] in "-0123456789"


def generate_sources(program, instrumentation, prune=None, cmplog=False, live=None):
    """Generated Python source text for every function (in index order).

    The budget is checked at dispatch labels only (see :class:`_Restart`).
    ``live`` maps function index to its liveness solution and is filled as
    functions are solved; pass the same dict for both variants of one
    program to solve each function once (the default shares it across
    this call only).
    """
    if live is None:
        live = {}
    # Probe accounting lives in locals _pn/_pk unless it is derivable from
    # the coverage map afterwards (pure-HIT instrumentation).  The flag is
    # program-wide: an inlined callee's probes land in the caller's locals.
    probe_locals = instrumentation is not None and not instrumentation.pure_hit
    return [
        _FunctionEmitter(
            program, func, instrumentation, prune, cmplog, probe_locals, live
        ).emit()
        for func in program.funcs
    ]


def _action_tables(instrumentation, prune, func_index):
    """(edge actions, ret actions, entry actions) honouring the prune plan."""
    if instrumentation is None:
        return {}, {}, ()
    if prune is not None:
        return (
            prune.edge_actions[func_index],
            prune.ret_actions[func_index],
            prune.entry_actions[func_index],
        )
    return (
        instrumentation.edge_actions[func_index],
        instrumentation.ret_actions[func_index],
        instrumentation.entry_actions[func_index],
    )


class _FunctionEmitter:
    """Emits one compiled function, expanding small callees at call sites.

    Emission runs under a *context*: the root function, or an inlined callee
    at one call site.  A context carries the register-name prefix (``r`` for
    the root, ``i<site>_r`` for the callee's renamed registers), the path
    register name, the action tables, and the label base mapping the
    callee's block ids into the function's global dispatch-label space.
    Inlined calls keep the exact observable call protocol — depth check,
    stack frame push/pop, per-block accounting — minus the Python frame.

    On top of the structural translation the emitter runs a per-path
    abstract state while generating code:

    - ``env``/``pend``: registers holding a known constant, whose defining
      store has not been emitted yet.  Reads fold to literals; compares and
      arithmetic over two known constants fold at compile time (sharing
      ``fold_binop``'s exact wrap semantics); stores materialize only when
      control reaches a dispatch label whose block may read them (per the
      :class:`~repro.analysis.dataflow.Liveness` solution) — values dead at
      every observation point are never written at all.  Registers are
      unobservable in traps and timeouts, so trap paths never materialize.
    - ``kind``: registers proven int (arithmetic results, passed checks) or
      proven array (alloc/string results, passed checks).  Proofs elide the
      interpreter's dynamic class/readonly checks and the TypeError guards;
      a statically failing check compiles to its unconditional trap.
    - ``lit``: registers holding a string literal, as (pool index, STR
      definition).  Loads, ``len``, reads and ``memcmp`` read the pool
      constant; the ref is deferred in ``pend`` like a constant and built
      once per definition for every register holding it (see ``_escape``).

    State is forked at branches, threaded through inlined successors, and
    reset at dispatch labels (whose predecessors are unknown).
    """

    def __init__(
        self,
        program,
        func,
        instrumentation,
        prune,
        cmplog,
        probe_locals,
        live,
    ):
        self.program = program
        self.root = func
        self.instrumentation = instrumentation
        self.prune = prune
        self.cmplog = cmplog
        self.mask = instrumentation.map_mask if instrumentation is not None else 0
        self.pair_paths = bool(
            instrumentation is not None and instrumentation.pair_paths
        )
        self.probe_locals = probe_locals
        # The local tallies a trap exit flushes.
        self.tallies = "_n, _pn, _pk" if probe_locals else "_n"
        # Current emission context (swapped while expanding an inline site).
        self.func = func
        self.fname = repr(func.name)
        self.rp = "r"
        self.pr = "_pr"
        self.label_base = 0
        self.cont_label = None
        self.ret_reg = None
        self.inline_site = None
        self.edge_acts, self.ret_acts, self.entry_acts = _action_tables(
            instrumentation, prune, func.index
        )
        preds = func.predecessors()
        self.entry_has_preds = bool(preds.get(0))
        # Join points and the entry go through the dispatch loop; everything
        # with a unique predecessor is inlined at its one reference site.
        self.labels = {0}
        self.labels.update(b for b, ps in preds.items() if len(ps) >= 2)
        # label -> ("block", ctx, callee_block) | ("cont", block, index) for
        # labels that belong to inline sites rather than root blocks.
        self.label_info = {}
        self._next_label = len(func.blocks)
        self._next_site = 0
        self._inline_spent = 0
        self._leaf_active = set()
        self._leaf_returned = False
        self.const_lines = []
        self._const_count = 0
        # Per-path abstract state (see class docstring).
        self.env = {}
        self.pend = set()
        self.kind = {}
        self.buf = {}
        self.lit = {}
        self.prv = None
        self._dead = False
        self._live_cache = live
        # String-pool constants, by pool index or (index, offset, length).
        self._pool_consts = {}
        self._str_defs = 0

    # -- small helpers ----------------------------------------------------

    def _r(self, index):
        return "%s%d" % (self.rp, index)

    def _const(self, value):
        name = "_k%d_%d" % (self.root.index, self._const_count)
        self._const_count += 1
        self.const_lines.append("%s = %r" % (name, value))
        return name

    def _emit_wrapped(self, out, ind, rd, expr):
        """``rd = expr`` wrapped to signed 64 bits (== values.wrap_int).

        The wrap costs three long operations and overflow is rare, so it
        runs only when the result leaves the int64 range.  Every VM integer
        is an int64 (literals are wrapped when lowered), so BNOT and MOD,
        which cannot leave the range, take no guard."""
        out.append(ind + "%s = %s" % (rd, expr))
        out.append(ind + "if %s > %d or %s < %d:" % (rd, _SIGN - 1, rd, -_SIGN))
        out.append(ind + "    %s = ((%s + %d) & %d) - %d" % (rd, rd, _SIGN, _U64, _SIGN))

    def _flush_lines(self, ind, zero=False):
        """Sync local counters to the shared cells (observation points)."""
        lines = [ind + "_ic[0] = _n"]
        if self.probe_locals:
            lines.append(ind + "_pa[0] += _pn")
            lines.append(ind + "_pa[1] += _pk")
            if zero:
                lines.append(ind + "_pn = 0")
                lines.append(ind + "_pk = 0")
        return lines

    def _trap_exit(self, family, *args):
        """The ``rt._<family>_at`` call a failed guard makes: it flushes the
        local tallies and runs the family's ``_Exec`` trap rule."""
        return "rt._%s_at(%s, %s)" % (
            family, ", ".join(map(str, args)), self.tallies,
        )

    def _static_trap(self, out, ind, call):
        """This point traps on every execution that reaches it: emit the
        trap exit ``call`` unconditionally and mark the rest of the block
        dead (its code would be unreachable, and folded operands could make
        it syntactically meaningless)."""
        out.append(ind + call)
        self._dead = True

    def _emit_push(self, out, ind, line):
        """A call's depth check and stack-frame push."""
        out.append(ind + "if len(_stack) + 1 >= _dl:")
        out.append(ind + "    " + self._trap_exit("depth", self.fname, line))
        out.append(ind + "_stack.append((%s, %d))" % (self.fname, line))

    def _emit_entry_actions(self, out, ind):
        """The context's entry actions, as the interpreter's single
        ``_run_actions(entry, 0, mask)`` call runs them: all-HIT tables are
        inlined; anything else goes through that very method, so
        path-register threading between entry actions matches."""
        if not self.entry_acts:
            return
        if all(act[0] == ACT_HIT for act in self.entry_acts):
            self._emit_actions(self.entry_acts, out, ind)
        else:
            name = self._const(tuple(self.entry_acts))
            out.append(ind + "rt._run_actions(%s, 0, %d)" % (name, self.mask))

    def _emit_hit(self, out, ind, idx_expr):
        # dict.get beats try/except here on both fresh and repeated cells:
        # a raised KeyError costs ~4x a miss, and fuzz executions are
        # dominated by shallow runs where every touched cell is fresh.
        if idx_expr.isdigit() or idx_expr.isidentifier():
            out.append(
                ind + "_hits[%s] = _hits.get(%s, 0) + 1" % (idx_expr, idx_expr)
            )
        else:
            out.append(ind + "_hx = %s" % idx_expr)
            out.append(ind + "_hits[_hx] = _hits.get(_hx, 0) + 1")

    # -- per-path abstract state ------------------------------------------

    def _live(self):
        """Liveness solution for the current context's function (cached in
        the dict shared across the program's functions and variants)."""
        result = self._live_cache.get(self.func.index)
        if result is None:
            result = solve(self.func, _LIVE)
            self._live_cache[self.func.index] = result
        return result

    def _live_after(self, block_id, index):
        """Registers read after instruction ``index`` of ``block_id``."""
        block = self.func.blocks[block_id]
        live = _LIVE.transfer_term(block.term, self._live().exit[block_id])
        for j in range(len(block.instrs) - 1, index, -1):
            live = _LIVE.transfer_instr(block.instrs[j], live)
        return live

    def _reset_state(self):
        self.env = {}
        self.pend = set()
        self.kind = {}
        self.buf = {}
        self.lit = {}
        # Known value of the path register on this path (None = dynamic).
        self.prv = None

    def _use(self, index):
        name = self._r(index)
        value = self.env.get(name)
        if value is not None:
            return repr(value)
        if name in self.lit and name in self.pend:
            # Every escape point materializes first (see _escape); reading
            # the local here would see a stale or unbound value.
            raise AssertionError("string literal %s read before it escaped" % name)
        return name

    def _setc(self, index, value):
        name = self._r(index)
        self.env[name] = value
        self.pend.add(name)
        self.kind[name] = "int"
        self.buf.pop(name, None)
        self.lit.pop(name, None)

    def _setlit(self, index, pool):
        """``reg = "..."`` (STR): a deferred ref to string-pool entry
        ``pool``, built only if the register escapes (see _escape).  ``lit``
        maps the register to ``(pool, definition)``: moves copy the pair, so
        every register holding one dynamic STR's value gets the same ref."""
        name = self._def(index, "sarr")
        self._str_defs += 1
        self.lit[name] = (pool, self._str_defs)
        self.pend.add(name)

    def _def(self, index, kind=None):
        name = self._r(index)
        self.env.pop(name, None)
        self.pend.discard(name)
        if kind is None:
            self.kind.pop(name, None)
        else:
            self.kind[name] = kind
        self.buf.pop(name, None)
        self.lit.pop(name, None)
        return name

    def _escape(self, out, ind, regs):
        """Build the deferred string refs among ``regs`` before their value
        is observable: a call argument, a stored value, a return value, a
        branch condition, a comparison or arithmetic operand, an index, an
        argument of a builtin that is not inlined.  At most once per dynamic
        STR: the built ref stays in every register holding it, so ``s ==
        s`` holds while two evaluations of one literal differ."""
        need = self.lit.keys() & self.pend & {self._r(reg) for reg in regs}
        if need:
            self._materialize(out, ind, need)

    def _operand(self, reg):
        """``reg``'s value for a trap exit.  A pending string literal is
        built here as the interpreter's STR builds it, so only the trap
        path pays for its ref."""
        name = self._r(reg)
        if name in self.lit and name in self.pend:
            return "rt._heap.string_ref(%d)" % self.lit[name][0]
        return self._use(reg)

    def _pool(self, reg):
        """The string-pool index ``reg`` holds, if known at codegen."""
        entry = self.lit.get(self._r(reg))
        return None if entry is None else entry[0]

    def _literal(self, reg):
        """The string-pool bytes ``reg`` holds, if known at codegen."""
        pool = self._pool(reg)
        return None if pool is None else self.program.strings[pool]

    def _pool_const(self, pool, off=0, n=None):
        """Module constant holding string ``pool``'s list, or its window
        ``[off, off + n)``.  Pool lists never change (every write path traps
        on them first), and a window of a list compares equal only to a
        list, so constants are lists."""
        data = self.program.strings[pool]
        key = pool if off == 0 and n in (None, len(data)) else (pool, off, n)
        name = self._pool_consts.get(key)
        if name is None:
            name = self._const(list(data) if n is None else list(data[off : off + n]))
            self._pool_consts[key] = name
        return name

    def _buffer(self, out, ind, reg):
        """Local holding ``reg``'s backing list, binding it on first use.

        Sound because a heap slot is never replaced: ``alloc`` appends,
        ``copy``/``fill``/STORE mutate the list in place, and nothing —
        including calls — rebinds an existing array id.  The binding dies
        with the register (``_def``/``_setc``) and forks with the rest of
        the per-path abstract state at branches.  A string literal's list
        is a module constant, and needs no ref at all."""
        pool = self._pool(reg)
        if pool is not None:
            return self._pool_const(pool)
        name = self._r(reg)
        local = self.buf.get(name)
        if local is None:
            local = "_b" + name
            out.append(ind + "%s = _arrays[%s.array_id]" % (local, name))
            self.buf[name] = local
        return local

    def _materialize(self, out, ind, need):
        """Emit deferred constant and string-ref stores for ``need``.

        A string ref is built once for every pending register holding the
        same STR's value, so the registers stay one object."""
        need = self.pend & need
        lit = self.lit
        defs = {lit[name] for name in need if name in lit}
        if defs:
            need |= {name for name in self.pend if lit.get(name) in defs}
        refs = {}
        for name in sorted(need):
            if name in lit:
                refs.setdefault(lit[name], []).append(name)
            else:
                out.append(ind + "%s = %d" % (name, self.env[name]))
        for (pool, _), names in refs.items():
            out.append(ind + "%s = ArrayRef(%d, True)" % (" = ".join(names), pool))
        self.pend -= need

    # -- probe actions ----------------------------------------------------

    def _emit_actions(self, acts, out, ind):
        """Inline a tuple of probe actions (the VM's edge-transition work)."""
        if self.probe_locals:
            count = sum(1 for act in acts if act[0] <= ACT_END)
            cost = sum(PROBE_COSTS[act[0]] for act in acts if act[0] <= ACT_END)
            if count:
                out.append(ind + "_pn += %d" % count)
                out.append(ind + "_pk += %d" % cost)
        for act in acts:
            kind = act[0]
            if kind == ACT_HIT:
                self._emit_hit(out, ind, "%d" % act[1])
            elif kind == ACT_ADD:
                out.append(ind + "%s += %d" % (self.pr, act[1]))
                if self.prv is not None:
                    self.prv += act[1]
            elif kind == ACT_END_RESET:
                x = self._emit_path_idx(out, ind, act[1], act[3])
                self._emit_hit(out, ind, x)
                out.append(ind + "%s = %d" % (self.pr, act[2]))
                self.prv = act[2]
                self._emit_pair_hit(out, ind, x)
            elif kind == ACT_END:
                x = self._emit_path_idx(out, ind, act[1], act[2])
                self._emit_hit(out, ind, x)
                self._emit_pair_hit(out, ind, x)
            else:
                # Rare kinds (n-gram, h-path): the interpreter's out-of-line
                # handler, verbatim — it updates the shared accounting, so
                # flush-and-zero the pending local tallies first.
                if self.probe_locals:
                    out.append(ind + "_pa[0] += _pn")
                    out.append(ind + "_pa[1] += _pk")
                    out.append(ind + "_pn = 0")
                    out.append(ind + "_pk = 0")
                name = self._const(act)
                out.append(
                    ind
                    + "%s = rt._run_one_action(%s, %s, %d)"
                    % (self.pr, name, self.pr, self.mask)
                )
                self.prv = None

    def _emit_path_idx(self, out, ind, add, salt):
        """The map index ``((pr + add) ^ salt) & mask`` — folded to a
        literal when the path register's value is known on this path (the
        common case on shallow runs, where no dispatched label has wiped
        the abstract state)."""
        if self.prv is not None:
            return "%d" % (((self.prv + add) ^ salt) & self.mask)
        out.append(
            ind + "_x = ((%s + %d) ^ %d) & %d" % (self.pr, add, salt, self.mask)
        )
        return "_x"

    def _emit_pair_hit(self, out, ind, x):
        if not self.pair_paths:
            return
        out.append(
            ind + "_y = ((rt._last_path_idx * 2654435761) ^ %s) & %d" % (x, self.mask)
        )
        self._emit_hit(out, ind, "_y")
        out.append(ind + "rt._last_path_idx = %s" % x)

    def _uses_pathreg(self):
        """Whether the current context's actions touch the path register."""
        for table in (self.edge_acts, self.ret_acts):
            for acts in table.values():
                for act in acts:
                    if act[0] != ACT_HIT:
                        return True
        return False

    # -- instructions -----------------------------------------------------

    def _escaping(self, ins):
        """Registers whose value ``ins`` observes beyond a literal's bytes.
        A move observes nothing: it copies the deferral (see _setlit)."""
        op = ins[0]
        if op == MOV:
            return ()
        if op == LOAD:
            return (ins[3],)
        if op == STORE:
            return (ins[2], ins[3])
        if op == BUILTIN:
            inline = self._BUILTIN_INLINE.get(BUILTIN_NAMES[ins[2]])
            if inline is not None:
                shapes = inline[1]
                return [reg for reg, c in zip(ins[3], shapes) if c != "a"]
        return instr_uses(ins)

    def _emit_instr(self, ins, out, ind):
        op = ins[0]
        if self.lit:
            self._escape(out, ind, self._escaping(ins))
        if op == CONST:
            self._setc(ins[1], ins[2])
        elif op == MOV:
            src = self._r(ins[2])
            if src in self.env:
                self._setc(ins[1], self.env[src])
            else:
                kind = self.kind.get(src)
                entry = self.lit.get(src)
                deferred = src in self.pend
                dst = self._def(ins[1], kind)
                if entry is not None:
                    self.lit[dst] = entry
                if deferred:
                    self.pend.add(dst)
                else:
                    out.append(ind + "%s = %s" % (dst, src))
        elif op == BIN:
            self._emit_bin(ins, out, ind)
        elif op == UN:
            self._emit_un(ins, out, ind)
        elif op == LOAD:
            self._emit_load(ins, out, ind)
        elif op == STORE:
            self._emit_store(ins, out, ind)
        elif op == CALL:
            dst, func_index, args, line = ins[1], ins[2], ins[3], ins[4]
            self._emit_push(out, ind, line)
            out.extend(self._flush_lines(ind, zero=True))
            call_args = "".join(", " + self._use(reg) for reg in args)
            out.append(
                ind + "%s = _fns[%d](rt%s)" % (self._def(dst), func_index, call_args)
            )
            out.append(ind + "_n = _ic[0]")
            out.append(ind + "_stack.pop()")
        elif op == BUILTIN:
            dst, code, args, line = ins[1], ins[2], ins[3], ins[4]
            inline = self._BUILTIN_INLINE.get(BUILTIN_NAMES[code])
            if inline is not None:
                emit, shapes = inline
                terms = self._class_terms(args, shapes)
                emit(self, out, ind, code, dst, args, line, terms)
                return
            out.extend(self._flush_lines(ind, zero=True))
            arg_list = ", ".join(self._use(reg) for reg in args)
            out.append(
                ind
                + "%s = _bi%d(rt, [%s], %s, %d)"
                % (self._def(dst), code, arg_list, self.fname, line)
            )
            out.append(ind + "_n = _ic[0]")
        else:  # STR
            self._setlit(ins[1], ins[2])

    _CMP_OPS = {OP_LT: "<", OP_LE: "<=", OP_GT: ">", OP_GE: ">="}
    _BIT_OPS = {OP_AND: "&", OP_OR: "|", OP_XOR: "^"}

    def _emit_bin(self, ins, out, ind):
        binop, dst, a, b, line = ins[1], ins[2], ins[3], ins[4], ins[5]
        ra, rb = self._use(a), self._use(b)
        va = self.env.get(self._r(a))
        vb = self.env.get(self._r(b))
        log_cmp = self.cmplog and binop in (OP_LT, OP_LE, OP_GT, OP_GE, OP_EQ, OP_NE)
        at = self._trap_exit("bin", binop, ra, rb, self.fname, line)
        # Statically trapping forms first: the interpreter checks the
        # divisor/shift operand before touching the other one, so a constant
        # bad operand traps no matter what the left side holds.
        if binop in (OP_DIV, OP_MOD) and vb == 0 or (
            binop in (OP_SHL, OP_SHR) and vb is not None and not 0 <= vb <= 63
        ):
            self._static_trap(out, ind, at)
            return
        if va is not None and vb is not None:
            if binop in (OP_DIV, OP_MOD):
                q = va // vb if (va >= 0) == (vb >= 0) else -(va // -vb)
                value = wrap_int(q) if binop == OP_DIV else wrap_int(va - q * vb)
            else:
                value = fold_binop(binop, va, vb)
            if log_cmp:
                out.append(ind + "if len(_cl) < %d:" % CMPLOG_CAP)
                out.append(ind + "    _cl.append((%d, %d))" % (va, vb))
            self._setc(dst, value)
            return
        safe = (
            self.kind.get(self._r(a)) == "int" and self.kind.get(self._r(b)) == "int"
        )
        rd = self._def(dst, "int")
        target = "_w" if log_cmp else rd
        if binop in (OP_EQ, OP_NE):
            cmp_op = "==" if binop == OP_EQ else "!="
            out.append(ind + "%s = 1 if %s %s %s else 0" % (target, ra, cmp_op, rb))
            if log_cmp:
                self._emit_cmplog(out, ind, ra, rb, rd)
            return
        inner = ind
        if not safe:
            out.append(ind + "try:")
            inner = ind + "    "
        if binop in self._CMP_OPS:
            out.append(
                inner
                + "%s = 1 if %s %s %s else 0" % (target, ra, self._CMP_OPS[binop], rb)
            )
        elif binop in (OP_ADD, OP_SUB, OP_MUL):
            op_ch = "+" if binop == OP_ADD else "-" if binop == OP_SUB else "*"
            self._emit_wrapped(out, inner, rd, "%s %s %s" % (ra, op_ch, rb))
        elif binop in self._BIT_OPS:
            out.append(inner + "%s = %s %s %s" % (rd, ra, self._BIT_OPS[binop], rb))
        elif binop in (OP_DIV, OP_MOD):
            # C-truncating division without abs() calls: floor-div equals
            # truncation when the signs agree; otherwise negate the
            # floor-div against the negated divisor.  A constant divisor
            # fixes its sign, so the agreement test collapses.
            if vb is None:
                out.append(inner + "if %s == 0:" % rb)
                out.append(inner + "    " + at)
                quot = "%s // %s if (%s >= 0) == (%s >= 0) else -(%s // -%s)" % (
                    ra, rb, ra, rb, ra, rb,
                )
            elif vb > 0:
                quot = "%s // %d if %s >= 0 else -(%s // %d)" % (ra, vb, ra, ra, -vb)
            else:
                quot = "%s // %d if %s < 0 else -(%s // %d)" % (ra, vb, ra, ra, -vb)
            if binop == OP_DIV:
                self._emit_wrapped(out, inner, rd, quot)
            else:
                out.append(inner + "_w = " + quot)
                out.append(inner + "%s = %s - _w * %s" % (rd, ra, rb))
        else:  # OP_SHL / OP_SHR
            if vb is None:
                out.append(inner + "if %s < 0 or %s > 63:" % (rb, rb))
                out.append(inner + "    " + at)
            if binop == OP_SHL:
                self._emit_wrapped(out, inner, rd, "%s << %s" % (ra, rb))
            else:
                out.append(inner + "%s = %s >> %s" % (rd, ra, rb))
        if not safe:
            out.append(ind + "except TypeError:")
            out.append(ind + "    " + at)
        if log_cmp:
            self._emit_cmplog(out, ind, ra, rb, rd)

    def _emit_cmplog(self, out, ind, ra, rb, rd):
        # Matches the interpreter: operands logged after the comparison,
        # before the destination register (which may alias an operand) is
        # overwritten with the result held in _w.
        out.append(ind + "if len(_cl) < %d:" % CMPLOG_CAP)
        out.append(ind + "    _cl.append((%s, %s))" % (ra, rb))
        out.append(ind + "%s = _w" % rd)

    def _emit_un(self, ins, out, ind):
        unop, dst, a = ins[1], ins[2], ins[3]
        ra = self._use(a)
        va = self.env.get(self._r(a))
        if va is not None:
            self._setc(dst, fold_unop(unop, va))
            return
        safe = self.kind.get(self._r(a)) == "int"
        rd = self._def(dst, "int")
        if unop == OP_LNOT:
            out.append(ind + "%s = 1 if %s == 0 else 0" % (rd, ra))
            return
        inner = ind
        if not safe:
            out.append(ind + "try:")
            inner = ind + "    "
        if unop == OP_BNOT:
            out.append(inner + "%s = ~%s" % (rd, ra))
        else:
            self._emit_wrapped(out, inner, rd, "-%s" % ra)
        if not safe:
            out.append(ind + "except TypeError:")
            out.append(ind + "    " + self._trap_exit("un", unop, ra, self.fname))

    def _access_exit(self, arr, idx, store, line):
        """LOAD/STORE's trap exit, shared by every check of the access."""
        return self._trap_exit(
            "access", self._operand(arr), self._use(idx), store, self.fname, line
        )

    def _check_array(self, out, ind, reg, at):
        """LOAD/STORE's class check of the indexed array."""
        name = self._r(reg)
        k = self.kind.get(name)
        if k in ("arr", "warr", "sarr"):
            return True
        if k == "int":
            self._static_trap(out, ind, at)
            return False
        out.append(ind + "if %s.__class__ is not ArrayRef:" % name)
        out.append(ind + "    " + at)
        self.kind[name] = "arr"
        return True

    def _emit_load(self, ins, out, ind):
        dst, arr, idx, line = ins[1], ins[2], ins[3], ins[4]
        at = self._access_exit(arr, idx, False, line)
        if not self._check_array(out, ind, arr, at):
            return
        buf = self._buffer(out, ind, arr)
        data = self._literal(arr)
        if not self._emit_index_check(out, ind, idx, at, buf, data):
            return
        idx_expr = self._use(idx)
        if data is not None and _is_lit(idx_expr):
            self._setc(dst, data[int(idx_expr)])
            return
        kind = "int" if data is not None else None
        out.append(ind + "%s = %s[%s]" % (self._def(dst, kind), buf, idx_expr))

    def _emit_store(self, ins, out, ind):
        arr, idx, src, line = ins[1], ins[2], ins[3], ins[4]
        at = self._access_exit(arr, idx, True, line)
        if not self._check_array(out, ind, arr, at):
            return
        name = self._r(arr)
        k = self.kind.get(name)
        if k == "sarr":
            self._static_trap(out, ind, at)
            return
        if k != "warr":
            out.append(ind + "if %s.readonly or %s.array_id < _rb:" % (name, name))
            out.append(ind + "    " + at)
        buf = self._buffer(out, ind, arr)
        if not self._emit_index_check(out, ind, idx, at, buf):
            return
        out.append(ind + "%s[%s] = %s" % (buf, self._use(idx), self._use(src)))

    def _emit_index_check(self, out, ind, idx, at, buf, data=None):
        """Bounds (and, unless provably int, class) check for an index.

        ``data`` is the array's content when it is a string literal: its
        length is then a codegen constant, and a literal index is checked
        here, not at run time."""
        size = "len(%s)" % buf if data is None else "%d" % len(data)
        iv = self.env.get(self._r(idx))
        if iv is not None:
            if iv < 0 or (data is not None and iv >= len(data)):
                self._static_trap(out, ind, at)
                return False
            if data is None:
                out.append(ind + "if %d >= %s:" % (iv, size))
                out.append(ind + "    " + at)
            return True
        name = self._r(idx)
        if self.kind.get(name) == "int":
            out.append(ind + "if %s < 0 or %s >= %s:" % (name, name, size))
        else:
            out.append(
                ind
                + "if %s.__class__ is ArrayRef or %s < 0 or %s >= %s:"
                % (name, name, name, size)
            )
        out.append(ind + "    " + at)
        self.kind[name] = "int"
        return True

    # -- inline builtins ---------------------------------------------------
    # Fast path under one guard, ``rt._bi_at`` on failure (see the module
    # docstring).  Class tests come first, so no ``<`` ever sees an
    # ArrayRef.  copy/fill/trap are not inlined: they are rare and
    # mutation-heavy.

    # Per argument shape ("a" array, "i" integer): the kinds that prove
    # it, its class test, and the kind a passed test proves.
    _SHAPE_TESTS = {
        "a": (("arr", "warr", "sarr"), "%s.__class__ is not ArrayRef", "arr"),
        "i": (("int",), "%s.__class__ is ArrayRef", "int"),
    }

    def _class_terms(self, args, shapes):
        """The guard's class tests of a builtin's arguments, or None when a
        proven kind fails one.  Past the guard every argument is proven."""
        terms = []
        for reg, shape in zip(args, shapes):
            proven, test, kind = self._SHAPE_TESTS[shape]
            name = self._r(reg)
            k = self.kind.get(name)
            if k not in proven:
                if k is not None:
                    return None
                terms.append(test % name)
                self.kind[name] = kind
        return terms

    def _window_terms(self, reg, off, n, check_n=True):
        """The guard's bounds tests of window ``[off, off + n)`` of ``reg``'s
        array (``off < 0 or n < 0 or off + n > len``), or None when codegen
        proves the window out of bounds; tests over codegen constants (a
        literal's length included) are decided here.  The length test binds
        the buffer local: past the guard, it was evaluated."""
        terms = []
        for expr in (off, n) if check_n else (off,):
            if not _is_lit(expr):
                terms.append("%s < 0" % expr)
            elif int(expr) < 0:
                return None
        data = self._literal(reg)
        if data is None:
            name = self._r(reg)
            buf = self.buf.get(name)
            if buf is None:
                buf = self.buf[name] = "_b" + name
                buf = "%s := _arrays[%s.array_id]" % (buf, name)
            terms.append("%s + %s > len(%s)" % (off, n, buf))
        elif not (_is_lit(off) and _is_lit(n)):
            terms.append("%s + %s > %d" % (off, n, len(data)))
        elif int(off) + int(n) > len(data):
            return None
        return terms

    def _fallback(self, code, args, line):
        """The trap exit running the builtin's ``_Exec._bi_*`` method."""
        exprs = ", ".join(self._operand(reg) for reg in args)
        return self._trap_exit("bi", code, "[%s]" % exprs, self.fname, line)

    def _emit_guard(self, out, ind, code, args, line, terms):
        """``if <terms>:`` the fallback; with ``terms`` None, the fallback
        alone and the rest of the block dead.  Returns whether the fast
        path is reachable."""
        if terms is None:
            out.append(ind + self._fallback(code, args, line))
            self._dead = True
            return False
        if terms:
            out.append(ind + "if %s:" % " or ".join(terms))
            out.append(ind + "    " + self._fallback(code, args, line))
        return True

    def _inline_len(self, out, ind, code, dst, a, line, terms):
        if not self._emit_guard(out, ind, code, a, line, terms):
            return
        data = self._literal(a[0])
        if data is not None:
            self._setc(dst, len(data))
            return
        buf = self._buffer(out, ind, a[0])
        out.append(ind + "%s = len(%s)" % (self._def(dst, "int"), buf))

    def _inline_abs(self, out, ind, code, dst, a, line, terms):
        va = self.env.get(self._r(a[0]))
        if va is not None:
            self._setc(dst, wrap_int(abs(va)))
        elif self._emit_guard(out, ind, code, a, line, terms):
            rd = self._def(dst, "int")
            self._emit_wrapped(out, ind, rd, "_abs(%s)" % self._r(a[0]))

    def _inline_pick(self, out, ind, code, dst, a, line, terms):
        """``min`` and ``max``."""
        pick, cmp_op = (min, "<=") if BUILTIN_NAMES[code] == "min" else (max, ">=")
        va = self.env.get(self._r(a[0]))
        vb = self.env.get(self._r(a[1]))
        if va is not None and vb is not None:
            self._setc(dst, pick(va, vb))
        elif self._emit_guard(out, ind, code, a, line, terms):
            ea, eb = self._use(a[0]), self._use(a[1])
            rd = self._def(dst, "int")
            out.append(ind + "%s = %s if %s %s %s else %s" % (rd, ea, ea, cmp_op, eb, eb))

    def _inline_alloc(self, out, ind, code, dst, a, line, terms):
        size = self._use(a[0])
        if terms is not None:
            terms.append("(_a := _alloc(%s)) is None" % size)
        if not self._emit_guard(out, ind, code, a, line, terms):
            return
        # size is valid (>= 0) past the guard, so max(size, 0) == size.
        if not _is_lit(size):
            out.append(ind + "_n += %s >> 4" % size)
        elif int(size) >> 4:
            out.append(ind + "_n += %d" % (int(size) >> 4))
        out.append(ind + "%s = _a" % self._def(dst, "warr"))

    def _window(self, out, ind, reg, off, n, local):
        """``(expr, values)`` for the checked window ``[off, off + n)``:
        a hoisted constant list when it is a window of a string literal at
        a literal offset and count (``values`` its content), otherwise the
        slice, bound to ``local`` (``values`` None)."""
        pool = self._pool(reg)
        if pool is not None and _is_lit(off) and _is_lit(n):
            lo, count = int(off), int(n)
            values = list(self.program.strings[pool][lo : lo + count])
            return self._pool_const(pool, lo, count), values
        buf = self._buffer(out, ind, reg)
        out.append(ind + "%s = %s[%s : %s + %s]" % (local, buf, off, off, n))
        return local, None

    def _inline_memcmp(self, out, ind, code, dst, a, line, terms):
        aoff, boff, n = self._use(a[1]), self._use(a[3]), self._use(a[4])
        if terms is not None:
            left = self._window_terms(a[0], aoff, n)
            # n >= 0 is established by the first window's tests.
            right = None if left is None else self._window_terms(a[2], boff, n, False)
            terms = None if right is None else terms + left + right
        if not self._emit_guard(out, ind, code, a, line, terms):
            return
        out.append(ind + "_n += %s" % n)
        left, lvals = self._window(out, ind, a[0], aoff, n, "_s")
        right, rvals = self._window(out, ind, a[2], boff, n, "_t")
        if self.cmplog:
            # A window holding a ref logs no entry (see byte_window).
            sides = [
                "byte_window(%s)" % expr if values is None else self._const(bytes(values))
                for expr, values in ((left, lvals), (right, rvals))
            ]
            out.append(ind + "if len(_cl) < %d:" % CMPLOG_CAP)
            out.append(ind + "    _u = (%s, %s)" % tuple(sides))
            out.append(ind + "    if None not in _u:")
            out.append(ind + "        _cl.append(_u)")
        if lvals is not None and rvals is not None:
            self._setc(dst, 0 if lvals == rvals else 1)
        else:
            out.append(
                ind + "%s = 0 if %s == %s else 1" % (self._def(dst, "int"), left, right)
            )

    def _inline_read(self, out, ind, code, dst, a, line, terms):
        width, big_endian = _READS[code]
        off = self._use(a[1])
        if terms is not None:
            window = self._window_terms(a[0], off, "%d" % width)
            terms = None if window is None else terms + window
        if not self._emit_guard(out, ind, code, a, line, terms):
            return
        data = self._literal(a[0])
        lit = _is_lit(off)
        if lit and data is not None:
            window = data[int(off) : int(off) + width]
            self._setc(dst, int.from_bytes(window, "big" if big_endian else "little"))
            return
        buf = self._buffer(out, ind, a[0])
        parts = []
        for j in range(width):
            index = "%d" % (int(off) + j) if lit else "%s + %d" % (off, j) if j else off
            shift = 8 * (width - 1 - j if big_endian else j)
            part = "(%s[%s] & 255)" % (buf, index)
            parts.append("(%s << %d)" % (part, shift) if shift else part)
        expr = " | ".join(parts)
        if data is not None:
            out.append(ind + "%s = %s" % (self._def(dst, "int"), expr))
            return
        # A cell holding a ref raises here: the fallback traps it, and
        # the common path pays no per-cell test.
        call = self._fallback(code, a, line)
        out.append(ind + "try:")
        out.append(ind + "    %s = %s" % (self._def(dst, "int"), expr))
        out.append(ind + "except TypeError:")
        out.append(ind + "    " + call)

    # Inlined builtins: emitter and argument shapes.  A string literal at
    # an array position is read from its pool constant, never built.
    _BUILTIN_INLINE = {
        "len": (_inline_len, "a"),
        "abs": (_inline_abs, "i"),
        "min": (_inline_pick, "ii"),
        "max": (_inline_pick, "ii"),
        "alloc": (_inline_alloc, "i"),
        "memcmp": (_inline_memcmp, "aiaii"),
        "read16": (_inline_read, "ai"),
        "read32": (_inline_read, "ai"),
        "read16le": (_inline_read, "ai"),
        "read32le": (_inline_read, "ai"),
    }

    # -- inlined IR calls --------------------------------------------------

    # The emission context an inline site swaps in, saved and restored by
    # attribute name.
    _CONTEXT = (
        "func", "fname", "rp", "pr", "label_base", "cont_label", "ret_reg",
        "inline_site", "edge_acts", "ret_acts", "entry_acts",
        "env", "pend", "kind", "buf", "lit", "prv",
    )

    def _enter_inline(self, callee, site, base, cont, ret_reg):
        saved = [getattr(self, name) for name in self._CONTEXT]
        self.func = callee
        self.fname = repr(callee.name)
        self.rp = "i%d_r" % site
        self.pr = "_q%d" % site
        self.label_base = base
        self.cont_label = cont
        self.ret_reg = ret_reg
        self.inline_site = site
        self.edge_acts, self.ret_acts, self.entry_acts = _action_tables(
            self.instrumentation, self.prune, callee.index
        )
        self._reset_state()
        return saved

    def _restore(self, saved):
        for name, value in zip(self._CONTEXT, saved):
            setattr(self, name, value)

    def _inline_args(self, out, ind, args):
        """Caller-side operand, kind and string-literal entry of each
        argument of an expanded call.  An argument escapes: a deferred
        string ref is built here, once, and the callee shares it."""
        if self.lit:
            self._escape(out, ind, args)
        names = [self._r(reg) for reg in args]
        return (
            [self._use(reg) for reg in args],
            [self.kind.get(name) for name in names],
            [self.lit.get(name) for name in names],
        )

    def _bind_params(self, out, ind, arg_exprs, arg_kinds, arg_lits):
        """Callee-side parameters of an expansion entered inline: constant
        arguments seed its environment, and kind and literal proofs carry
        over."""
        for pi, (expr, k, entry) in enumerate(zip(arg_exprs, arg_kinds, arg_lits)):
            if _is_lit(expr):
                self._setc(pi, int(expr))
            else:
                name = self._def(pi, k)
                out.append(ind + "%s = %s" % (name, expr))
                if entry is not None:
                    self.lit[name] = entry

    def _inlinable(self, ins):
        """Whether this CALL should be expanded at the site (root ctx only)."""
        if self.inline_site is not None:
            return False
        callee = self.program.funcs[ins[2]]
        size = sum(len(block.instrs) for block in callee.blocks)
        if size > _INLINE_MAX_INSTRS or len(callee.blocks) > _INLINE_MAX_BLOCKS:
            return False
        return self._inline_spent + size <= _INLINE_BUDGET

    def _leaf_inlinable(self, ins):
        """Whether this CALL is a leaf expansion: a single straight-line
        RET block small enough that the call protocol outweighs the body.

        Unlike :meth:`_inlinable`, this works in ANY context (including
        inside an already-inlined callee) because the expansion needs no
        continuation label — the caller's emission simply continues after
        it.  ``_leaf_active`` breaks self-recursive chains."""
        if ins[2] in self._leaf_active:
            return False
        callee = self.program.funcs[ins[2]]
        if len(callee.blocks) != 1:
            return False
        block = callee.blocks[0]
        return block.term[0] == RET and len(block.instrs) <= _INLINE_LEAF_INSTRS

    def _emit_leaf_call(self, ins, out, depth):
        """Expand a single-block callee in place, at any inline depth.

        Protocol identical to a real call (depth check, stack frame,
        instruction accounting, entry/RET probe actions, traps under the
        callee's name) minus the Python frame and counter flushes.  The
        callee's RET assigns the destination register and emission falls
        through to the rest of the caller's block with its abstract state
        intact."""
        ind = "    " * depth
        dst, func_index, args, line = ins[1], ins[2], ins[3], ins[4]
        callee = self.program.funcs[func_index]
        site = self._next_site
        self._next_site += 1
        self._emit_push(out, ind, line)
        arg_exprs, arg_kinds, arg_lits = self._inline_args(out, ind, args)
        ret_name = self._def(dst)
        saved = self._enter_inline(callee, site, self._next_label, _LEAF_CONT, ret_name)
        self._bind_params(out, ind, arg_exprs, arg_kinds, arg_lits)
        for i in range(callee.nparams, callee.nregs):
            self._setc(i, 0)
        if self._uses_pathreg():
            out.append(ind + "%s = 0" % self.pr)
            self.prv = 0
        self._emit_entry_actions(out, ind)
        self._leaf_active.add(func_index)
        self._leaf_returned = False
        self._emit_block(0, out, depth)
        returned = self._leaf_returned
        self._leaf_active.discard(func_index)
        self._restore(saved)
        if not returned:
            # The callee's one block statically traps: nothing after the
            # call site can run.
            self._dead = True

    def _emit_inline_call(self, block_id, index, ins, out, depth):
        """Expand a CALL at its site: same protocol, no Python frame.

        The callee's blocks are emitted under a fresh context whose labels
        live in the function's global dispatch space; its RETs assign the
        caller's destination register and jump to a continuation label
        holding the rest of the caller's block.  The depth check, the stack
        frame push/pop, and the per-block instruction accounting are all
        preserved, so traps, traces, and timeouts are bit-identical to a
        real call — only the frame, argument tuple, and counter flushes go.
        """
        ind = "    " * depth
        dst, func_index, args, line = ins[1], ins[2], ins[3], ins[4]
        callee = self.program.funcs[func_index]
        site = self._next_site
        self._next_site += 1
        base = self._next_label
        self._next_label += len(callee.blocks)
        cont = self._next_label
        self._next_label += 1
        self._inline_spent += sum(len(block.instrs) for block in callee.blocks)
        ctx = (callee, site, base, cont, self._r(dst))
        for b in range(len(callee.blocks)):
            self.label_info[base + b] = ("block", ctx, b)
        self.label_info[cont] = ("cont", block_id, index + 1)
        cpreds = callee.predecessors()
        if cpreds.get(0):
            self.labels.add(base)
        self.labels.update(base + b for b, ps in cpreds.items() if len(ps) >= 2)
        self.labels.add(cont)
        # Deferred caller constants that the continuation (a dispatch label,
        # which starts with no knowledge) may read must be real first.
        need = {self._r(i) for i in self._live_after(block_id, index)}
        self._materialize(out, ind, need)
        self._emit_push(out, ind, line)
        arg_exprs, arg_kinds, arg_lits = self._inline_args(out, ind, args)
        saved = self._enter_inline(*ctx)
        entry_dispatched = base in self.labels
        if entry_dispatched:
            # The callee entry is a loop header: its body goes through the
            # dispatch loop and assumes nothing, so arguments and scratch
            # zeros must all be real locals.
            for pi, expr in enumerate(arg_exprs):
                out.append(ind + "%s = %s" % (self._r(pi), expr))
            scratch = list(range(callee.nparams, callee.nregs))
            while scratch:
                chunk, scratch = scratch[:12], scratch[12:]
                out.append(ind + " = ".join(self._r(i) for i in chunk) + " = 0")
        else:
            # Entry emitted inline right here: constant arguments seed the
            # callee's environment, proofs about argument kinds carry over,
            # and the scratch zero-init becomes deferred constants.
            self._bind_params(out, ind, arg_exprs, arg_kinds, arg_lits)
            for i in range(callee.nparams, callee.nregs):
                self._setc(i, 0)
        if self._uses_pathreg():
            out.append(ind + "%s = 0" % self.pr)
            self.prv = 0
        self._emit_entry_actions(out, ind)
        if entry_dispatched:
            out.append(ind + "cur = %d" % base)
            out.append(ind + "continue")
        else:
            self._emit_block(0, out, depth)
        self._restore(saved)

    # -- blocks and control flow ------------------------------------------

    def _try_fuse(self, ins, cond, block_id, out, ind):
        """Fold a block-final compare straight into its BR.

        Returns the branch condition expression, or None when the compare
        must materialize its 0/1 result (the register outlives the branch,
        or both operands are constants — the static-branch path then takes
        over).  cmplog still sees the operands; a trapping compare keeps its
        TypeError guard with the truth value parked in ``_w``.
        """
        if cond in self._live().exit[block_id]:
            return None
        if self.lit:
            self._escape(out, ind, instr_uses(ins))
        if ins[0] == UN:
            if ins[1] != OP_LNOT or ins[2] != cond:
                return None
            expr = self._use(ins[3])
            if _is_lit(expr):
                return None
            self._def(cond)
            return "%s == 0" % expr
        if ins[2] != cond:
            return None
        binop, line = ins[1], ins[5]
        if binop not in (OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE):
            return None
        ra, rb = self._use(ins[3]), self._use(ins[4])
        if _is_lit(ra) and _is_lit(rb):
            return None
        if binop in (OP_EQ, OP_NE):
            if self.cmplog:
                out.append(ind + "if len(_cl) < %d:" % CMPLOG_CAP)
                out.append(ind + "    _cl.append((%s, %s))" % (ra, rb))
            self._def(cond)
            return "%s %s %s" % (ra, "==" if binop == OP_EQ else "!=", rb)
        safe = (
            self.kind.get(self._r(ins[3])) == "int"
            and self.kind.get(self._r(ins[4])) == "int"
        )
        op_ch = self._CMP_OPS[binop]
        if safe:
            out.append(ind + "_w = %s %s %s" % (ra, op_ch, rb))
        else:
            out.append(ind + "try:")
            out.append(ind + "    _w = %s %s %s" % (ra, op_ch, rb))
            out.append(ind + "except TypeError:")
            out.append(
                ind + "    " + self._trap_exit("bin", binop, ra, rb, self.fname, line)
            )
        if self.cmplog:
            out.append(ind + "if len(_cl) < %d:" % CMPLOG_CAP)
            out.append(ind + "    _cl.append((%s, %s))" % (ra, rb))
        self._def(cond)
        return "_w"

    def _emit_block(self, block_id, out, depth, start=0, account=True):
        """Emit one block's accounting, body, and threaded terminator.

        ``start``/``account`` support continuation labels: the tail of a
        block resuming after an inlined call re-enters here without
        re-charging the block's instruction count.
        """
        ind = "    " * depth
        block = self.func.blocks[block_id]
        if account:
            out.append(ind + "_n += %d" % (len(block.instrs) + 1))
        instrs = block.instrs
        term = block.term
        fused = None
        for k in range(start, len(instrs)):
            ins = instrs[k]
            if ins[0] == CALL and self._leaf_inlinable(ins):
                self._emit_leaf_call(ins, out, depth)
                if self._dead:
                    self._dead = False
                    return
                continue
            if ins[0] == CALL and self._inlinable(ins):
                self._emit_inline_call(block_id, k, ins, out, depth)
                return  # the rest of the block lives at the continuation
            if (
                k == len(instrs) - 1
                and term[0] == BR
                and term[2] != term[3]
                and ins[0] in (BIN, UN)
            ):
                fused = self._try_fuse(ins, term[1], block_id, out, ind)
                if fused is not None:
                    break
            self._emit_instr(ins, out, ind)
            if self._dead:
                # A statically-decided trap: nothing below here can run.
                self._dead = False
                return
        top = term[0]
        if top == JMP or (top == BR and term[2] == term[3]):
            target = term[1] if top == JMP else term[2]
            self._emit_goto(block_id, target, out, depth)
        elif top == BR:
            cond_name = self._r(term[1])
            if fused is None and self.lit:
                self._escape(out, ind, (term[1],))
            if fused is None and cond_name in self.env:
                # Statically decided branch: only the taken edge exists.
                taken = term[2] if self.env[cond_name] != 0 else term[3]
                self._emit_goto(block_id, taken, out, depth)
                return
            out.append(ind + "if %s:" % (fused if fused is not None else cond_name))
            saved = (self.env, self.pend, self.kind, self.buf, self.lit, self.prv)
            self.env = dict(self.env)
            self.pend = set(self.pend)
            self.kind = dict(self.kind)
            self.buf = dict(self.buf)
            self.lit = dict(self.lit)
            self._emit_goto(block_id, term[2], out, depth + 1)
            self.env, self.pend, self.kind, self.buf, self.lit, self.prv = saved
            out.append(ind + "else:")
            self._emit_goto(block_id, term[3], out, depth + 1)
        else:  # RET
            acts = self.ret_acts.get(block_id)
            if acts:
                self._emit_actions(acts, out, ind)
            value = term[1]
            if value != -1 and self.lit:
                self._escape(out, ind, (value,))
            expr = "0" if value == -1 else self._use(value)
            if self.cont_label is _LEAF_CONT:
                # Leaf expansion: assign and pop right here; the caller's
                # emission continues after the call site, no dispatch.
                out.append(ind + "%s = %s" % (self.ret_reg, expr))
                out.append(ind + "_stack.pop()")
                self._leaf_returned = True
            elif self.cont_label is not None:
                # Inlined callee: hand the value to the caller's register
                # and resume the caller at its continuation label (which
                # pops the stack frame, matching the interpreter's order).
                out.append(ind + "%s = %s" % (self.ret_reg, expr))
                out.append(ind + "cur = %d" % self.cont_label)
                out.append(ind + "continue")
            else:
                out.extend(self._flush_lines(ind))
                out.append(ind + "return " + expr)

    def _emit_goto(self, src, dst, out, depth):
        """Edge actions, then either inline the target or thread to dispatch."""
        ind = "    " * depth
        acts = self.edge_acts.get((src, dst))
        if acts:
            self._emit_actions(acts, out, ind)
        label = self.label_base + dst
        if label in self.labels or depth > _MAX_INLINE_DEPTH:
            self.labels.add(label)
            # The label's body starts with no knowledge: deferred constants
            # it may read (the live-in set) must be real before we jump.
            need = {self._r(i) for i in self._live().entry[dst]}
            self._materialize(out, ind, need)
            out.append(ind + "cur = %d" % label)
            out.append(ind + "continue")
        else:
            self._emit_block(dst, out, depth)

    def _emit_dispatch(self, labels, bodies, out, depth):
        """Binary dispatch tree over the label set (O(log n) per transition)."""
        ind = "    " * depth
        if len(labels) == 1:
            out.extend(bodies[labels[0]])
            return
        mid = len(labels) // 2
        out.append(ind + "if cur < %d:" % labels[mid])
        self._emit_dispatch(labels[:mid], bodies, out, depth + 1)
        out.append(ind + "else:")
        self._emit_dispatch(labels[mid:], bodies, out, depth + 1)

    def _emit_label_body(self, label):
        """One dispatched body: a root block, an inlined-callee block, or a
        continuation (the tail of a caller block after an inlined call)."""
        lines = []
        info = self.label_info.get(label)
        if info is None:
            self._reset_state()
            if label == 0 and not self.entry_has_preds:
                # Function entry, entered exactly once: every scratch
                # register is a known zero; defer the stores until a
                # dispatched successor can actually read them.  The path
                # register is the prologue's fresh zero (entry actions are
                # either all-HIT or discard their pr result, so they never
                # perturb it).
                for i in range(self.root.nparams, self.root.nregs):
                    self._setc(i, 0)
                self.prv = 0
            self._emit_block(label, lines, 0)
        elif info[0] == "block":
            saved = self._enter_inline(*info[1])
            self._emit_block(info[2], lines, 0)
            self._restore(saved)
        else:  # continuation: pop the inlined frame, run the block's tail
            self._reset_state()
            lines.append("_stack.pop()")
            self._emit_block(info[1], lines, 0, start=info[2], account=False)
        return lines

    def emit(self):
        func = self.func
        # First pass: emit every dispatched block body (the label set can
        # grow while emitting — deep inline chains cut off, inlined calls
        # adding callee-block and continuation labels).
        bodies = {}
        while True:
            todo = sorted(label for label in self.labels if label not in bodies)
            if not todo:
                break
            for label in todo:
                bodies[label] = self._emit_label_body(label)
        labels = sorted(bodies)
        # A function with a single dispatched block (no joins, no loops)
        # needs no dispatch loop at all: the body never re-enters.
        looping = len(labels) > 1 or any(
            line.endswith("continue") for line in bodies[0]
        )
        body = []
        if looping:
            # Every cycle re-enters the dispatch loop through a label
            # (single-predecessor chains are cut off at the inline depth
            # cap), so a budget guard per label bounds every run.
            for label in labels:
                bodies[label] = [
                    "if _n > _budget:",
                    "    raise _Restart",
                ] + bodies[label]
            depths = _tree_depths(labels)
            shifted = {
                label: ["    " * (2 + depths[label]) + line for line in bodies[label]]
                for label in labels
            }
            self._emit_dispatch(labels, shifted, body, 2)
        else:
            body = ["    " + line for line in bodies[0]]
        # Entry actions run before the first block's accounting.
        entry_lines = []
        self._emit_entry_actions(entry_lines, "    ")
        # Preamble: only the aliases the generated code actually uses.
        params = ", ".join(["rt"] + [self._r(i) for i in range(func.nparams)])
        text = "\n".join(entry_lines + body)
        head = list(self.const_lines)
        head.append("def _f%d(%s):" % (func.index, params))
        head.append("    _ic = rt._count_cell")
        head.append("    _n = _ic[0]")
        head.append("    _budget = rt._budget")
        words = set(_WORD.findall(text))
        for name, expr in (
            ("_pa", "rt._probe_acc"),
            ("_hits", "rt._hits"),
            ("_arrays", "rt._heap._arrays"),
            ("_rb", "rt._heap._readonly_base"),
            ("_alloc", "rt._heap.alloc"),
            ("_abs", "abs"),
            ("_stack", "rt._stack"),
            ("_dl", "rt._depth_limit"),
            ("_cl", "rt._cmp_log"),
            ("_fns", "rt._compiled"),
        ):
            # Whole-word match (a maximal \w+ run, exactly what \bname\b
            # finds): a bare substring test binds _cl in every function
            # that mentions __class__.
            if name in words:
                head.append("    %s = %s" % (name, expr))
        if self.entry_has_preds:
            # The entry is a loop header re-entered through the dispatch
            # loop, so the scratch zero-init must be real stores up front
            # (otherwise the entry body defers them as known constants).
            scratch = list(range(func.nparams, func.nregs))
            while scratch:
                chunk, scratch = scratch[:12], scratch[12:]
                head.append("    " + " = ".join(self._r(i) for i in chunk) + " = 0")
        if "_pr" in text:
            head.append("    _pr = 0")
        if self.probe_locals:
            head.append("    _pn = 0")
            head.append("    _pk = 0")
        head.extend(entry_lines)
        if looping:
            head.append("    cur = 0")
            head.append("    while True:")
        return "\n".join(head) + "\n" + "\n".join(body) + "\n"


def _tree_depths(labels):
    """Depth of each label's leaf in the binary dispatch tree."""
    depths = {}

    def walk(subset, depth):
        if len(subset) == 1:
            depths[subset[0]] = depth
            return
        mid = len(subset) // 2
        walk(subset[:mid], depth + 1)
        walk(subset[mid:], depth + 1)

    walk(list(labels), 0)
    return depths
