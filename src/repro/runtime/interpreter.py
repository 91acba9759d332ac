"""The MiniC virtual machine.

A tuple-dispatch interpreter over :class:`~repro.cfg.program.ProgramCFG`.
It runs each function in a *decoded form* (:func:`decode`), built at the
function's first call and kept for every later execution of the program:
each block is ``(cost, instrs, term)``, where CONSTs live in constant
slots of a frame template instead of being dispatched, a MOV is folded
into the instruction that computed its source when that source is dead
afterwards, and every BIN operator has its own opcode.  A block is charged
its IR length plus one (the terminator), whatever the decode dropped, so
the virtual clock and every other observable are the IR's.
:class:`repro.runtime.shadow.ShadowExec` runs the same form.

Coverage instrumentation is supplied as *edge action tables* (see
:mod:`repro.coverage.instrumenter`): when control moves from block ``src`` to
block ``dst`` the VM executes the small action tuples attached to that edge.
Action kinds::

    (HIT, map_idx)                    raw-hit a coverage map index
    (ADD, delta)                      pathreg += delta          (Ball-Larus)
    (END_RESET, inc, reset, fxor)     emit path id, reset pathreg (back edge)
    (END, inc, fxor)                  emit path id (function return)
    (NGRAM, ehash)                    fold edge hash into n-gram state + hit
    (HPATH, ehash)                    PathAFL-style rolling whole-program hash

The VM additionally counts executed instructions (the virtual-time basis) and
executed probe actions, enforces an instruction budget (hangs), a call-depth
limit (stack overflow), and — when ``cmplog`` is requested — harvests
comparison operands for the input-to-state mutation stage.

Under a *pure-HIT* instrumentation (every probe site one HIT; see
:meth:`~repro.coverage.feedback.Instrumentation.finalize`) a probe is one
map update and nothing else: the edge rows hold map indices instead of
action tuples, and :func:`charge_hits` derives both probe totals from the
map after the run.
"""

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
    OP_DIV,
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_OR,
    OP_SHL,
    OP_SHR,
    OP_SUB,
    OP_XOR,
    OP_LNOT,
    OP_NEG,
    STORE,
    STR,
    UN,
    instr_def,
)
from repro.analysis.dataflow import Liveness, solve
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime.memory import Heap
from repro.runtime import traps
from repro.runtime.traps import Frame, Timeout, Trap
from repro.runtime.values import ArrayRef, wrap_int

# Action kinds (see module docstring).
ACT_HIT = 0
ACT_ADD = 1
ACT_END_RESET = 2
ACT_END = 3
ACT_NGRAM = 4
ACT_HPATH = 5

DEFAULT_INSTR_BUDGET = 400_000
DEFAULT_CALL_DEPTH = 64
CMPLOG_CAP = 2048

_U64 = (1 << 64) - 1

# Virtual-time cost of each probe action kind, indexed by the ACT_* code.
# Edge/block hits are a single map increment; path terminations hash, index,
# update the (cache-unfriendly, sparsely indexed) map and reset the state —
# the dominant cost the paper measures as its 1.26x seed-processing ratio;
# n-gram and h-path updates carry their rolling-state arithmetic.
PROBE_COSTS = (1, 1, 9, 9, 4, 3)

# Decoded opcodes: the IR's, except that each BIN operator has its own code,
# ``BIN_BASE + binop``, with the operator still at ``ins[1]``.
BIN_BASE = 16
BIN_ADD = BIN_BASE + OP_ADD
BIN_LT = BIN_BASE + OP_LT
BIN_LE = BIN_BASE + OP_LE
BIN_GT = BIN_BASE + OP_GT
BIN_GE = BIN_BASE + OP_GE
BIN_EQ = BIN_BASE + OP_EQ
BIN_NE = BIN_BASE + OP_NE

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


class ExecutionResult:
    """Outcome of one test-case execution."""

    __slots__ = (
        "retval",
        "trap",
        "timeout",
        "instr_count",
        "probe_count",
        "probe_cost",
        "hits",
        "cmp_log",
    )

    def __init__(
        self, retval, trap, timeout, instr_count, probe_count, probe_cost, hits, cmp_log
    ):
        self.retval = retval
        self.trap = trap
        self.timeout = timeout
        self.instr_count = instr_count
        self.probe_count = probe_count
        self.probe_cost = probe_cost
        self.hits = hits
        self.cmp_log = cmp_log

    @property
    def virtual_cost(self):
        """Virtual-clock ticks this execution consumed (work + probes)."""
        return self.instr_count + self.probe_cost

    @property
    def crashed(self):
        return self.trap is not None

    def __repr__(self):
        status = "crash" if self.crashed else ("timeout" if self.timeout else "ok")
        return "ExecutionResult(%s, instrs=%d, hits=%d)" % (
            status,
            self.instr_count,
            len(self.hits),
        )


def charge_hits(result):
    """Charge a pure-HIT run's probes from its coverage map.

    Every pure-HIT probe added one to one map cell and costs
    ``PROBE_COSTS[ACT_HIT] == 1`` tick, so the probe count and the probe
    cost both equal the map total.  Every executor keeps no per-probe
    tallies under such an instrumentation and calls this once per run.
    """
    result.probe_count = result.probe_cost = sum(result.hits.values())
    return result


def execute(
    program,
    input_bytes,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    cmplog=False,
):
    """Run ``program.main(input_bytes)`` and return an ExecutionResult."""
    vm = _Exec(program, instrumentation, instr_budget, call_depth_limit, cmplog)
    return vm.run(input_bytes)


# -- the decoded form ----------------------------------------------------------

_LIVENESS = Liveness()

# Register operand positions per opcode; CALL and BUILTIN read the tuple at 3.
_USES_AT = {MOV: (2,), BIN: (3, 4), UN: (3,), LOAD: (2, 3), STORE: (1, 2, 3)}

# A program's decoded functions are shared by every execution of it, keyed
# like the heap's string-pool cache: on the program's identity, with the
# stored program guarding against id reuse.
_FORM_CACHE = {}
_FORM_CACHE_CAP = 64


def _program_forms(program):
    """The list of ``program``'s decoded functions, None until first called."""
    cached = _FORM_CACHE.get(id(program))
    if cached is not None and cached[0] is program:
        return cached[1]
    forms = [None] * len(program.funcs)
    if len(_FORM_CACHE) >= _FORM_CACHE_CAP:
        _FORM_CACHE.clear()
    _FORM_CACHE[id(program)] = (program, forms)
    return forms


def decode(func):
    """The execution form of ``func``: ``(name, template, blocks)``.

    ``blocks[b]`` is ``(cost, instrs, term)`` for IR block ``b``, with
    ``cost = len(block.instrs) + 1`` however many instructions the decode
    dropped, so a block is charged what its IR is charged.  A frame is
    ``template[:]`` with the arguments over its first registers.  The
    decode changes what is dispatched, never what is observed:

    - ``X t ...; MOV v, t`` with ``t`` dead after the MOV becomes
      ``X v ...``;
    - a CONST whose register is redefined later in its block, or is dead
      out of it, becomes a constant slot: a register past ``func.nregs``
      that ``template`` holds the constant in and no instruction writes.
      The CONST's uses read the slot, and the CONST is not dispatched;
    - BIN takes its operator's opcode (``BIN_BASE + binop``).
    """
    live = solve(func, _LIVENESS)
    template = [0] * func.nregs
    slots = {}
    blocks = []
    for block in func.blocks:
        live_out = live.exit[block.id]
        instrs = _forward_moves(block, live_out)
        instrs, term = _fold_consts(instrs, block.term, live_out, template, slots)
        decoded = tuple(
            (BIN_BASE + ins[1],) + ins[1:] if ins[0] == BIN else ins for ins in instrs
        )
        blocks.append((len(block.instrs) + 1, decoded, term))
    return func.name, template, blocks


def _forward_moves(block, live_out):
    """``block.instrs`` with each ``X t ...; MOV v, t`` whose ``t`` is dead
    after the MOV written as ``X v ...``.  Every instruction reads its
    operands before it writes, so ``X`` may read ``v``."""
    live = _LIVENESS.transfer_term(block.term, live_out)
    after = []
    for ins in reversed(block.instrs):
        after.append(live)
        live = _LIVENESS.transfer_instr(ins, live)
    after.reverse()
    out = []
    for ins, live in zip(block.instrs, after):
        src = ins[2] if ins[0] == MOV else None
        if src is not None and src not in live and out and instr_def(out[-1]) == src:
            prev = out[-1]
            at = 2 if prev[0] == BIN or prev[0] == UN else 1
            out[-1] = prev[:at] + (ins[1],) + prev[at + 1 :]
        else:
            out.append(ins)
    return out


def _fold_consts(instrs, term, live_out, template, slots):
    """Fold into constant slots each CONST whose register is redefined
    later in the block or is not in ``live_out``; returns the other
    instructions and the terminator, with the folded registers' uses
    renamed.  ``slots`` maps each constant to its slot in ``template``."""
    later = set()
    fold = []
    for ins in reversed(instrs):
        dst = instr_def(ins)
        fold.append(ins[0] == CONST and (dst in later or dst not in live_out))
        if dst is not None:
            later.add(dst)
    fold.reverse()
    subst = {}
    out = []
    for ins, folded in zip(instrs, fold):
        if subst:
            ins = _renamed(ins, subst)
        dst = instr_def(ins)
        subst.pop(dst, None)
        if folded:
            key = (type(ins[2]), ins[2])
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(template)
                template.append(ins[2])
            subst[dst] = slot
        else:
            out.append(ins)
    if term[0] != JMP and term[1] in subst:  # a BR condition or RET value
        term = (term[0], subst[term[1]]) + term[2:]
    return out, term


def _renamed(ins, subst):
    """``ins`` with every register it reads renamed through ``subst``."""
    op = ins[0]
    out = list(ins)
    if op == CALL or op == BUILTIN:
        out[3] = tuple(subst.get(r, r) for r in ins[3])
    for at in _USES_AT.get(op, ()):
        out[at] = subst.get(ins[at], ins[at])
    return tuple(out)


class _Exec:
    def __init__(self, program, instrumentation, instr_budget, call_depth_limit, cmplog):
        self._program = program
        self._instr = instrumentation
        self._budget = instr_budget
        self._depth_limit = call_depth_limit
        self._cmplog = cmplog
        self._heap = Heap(program.strings)
        self._forms = _program_forms(program)
        self._count = 0
        # [probe count, probe cost]: a list so inner loops can update it
        # through one local alias instead of attribute writes.
        self._probe_acc = [0, 0]
        self._hits = {}
        self._cmp_log = []
        self._stack = []  # (caller function name, call-site line)
        self._ngram_ring = []
        self._ngram_n = instrumentation.ngram_n if instrumentation else 1
        self._pair_paths = bool(instrumentation and getattr(instrumentation, "pair_paths", False))
        self._pure_hit = instrumentation is not None and instrumentation.pure_hit
        self._last_path_idx = 0x1505
        self._hpath_state = 0x811C9DC5

    def run(self, input_bytes):
        return self._run_main(self._heap.place(input_bytes))

    def _run_main(self, input_ref):
        """Run ``main(input_ref)``; returns the run's ExecutionResult."""
        retval, trap, timeout = 0, None, False
        try:
            retval = self._call(self._program.main_index, [input_ref])
        except Trap as caught:
            trap = caught
        except Timeout:
            timeout = True
        result = ExecutionResult(
            retval,
            trap,
            timeout,
            self._count,
            self._probe_acc[0],
            self._probe_acc[1],
            self._hits,
            self._cmp_log,
        )
        return charge_hits(result) if self._pure_hit else result

    # -- trap helpers --------------------------------------------------------

    def _trace(self, func_name, line):
        frames = [Frame(func_name, line)]
        for caller, callsite in reversed(self._stack):
            frames.append(Frame(caller, callsite))
        return frames

    def _trap(self, kind, func_name, line, detail):
        raise Trap(kind, func_name, line, detail, self._trace(func_name, line))

    # -- trap rules ----------------------------------------------------------
    #
    # One rule per VM check family, written here and nowhere else.  Every
    # executor keeps its own guard inline and calls the rule only when that
    # guard fails: the rule raises the trap, with its kind and detail, in
    # this interpreter's check order.  A rule that finds no trap raises
    # AssertionError: the guard that called it is wrong.

    def _bin_rule(self, binop, a, b, fname, line):
        """BIN: the divisor or shift amount is checked before the other
        operand is touched; then a ref in arithmetic or an ordering."""
        if not isinstance(b, ArrayRef):
            if binop == OP_DIV or binop == OP_MOD:
                if b == 0:
                    detail = "division by zero" if binop == OP_DIV else "modulo by zero"
                    self._trap(traps.DIV_BY_ZERO, fname, line, detail)
            elif binop == OP_SHL or binop == OP_SHR:
                if b < 0 or b > 63:
                    self._trap(traps.SHIFT_RANGE, fname, line, "shift by %d" % b)
        if binop != OP_EQ and binop != OP_NE:
            if isinstance(a, ArrayRef) or isinstance(b, ArrayRef):
                self._trap(traps.TYPE_CONFUSION, fname, line, "array used as integer")
        raise guard_failed("BIN", fname, line)

    def _un_rule(self, unop, a, fname):
        """UN: a ref under ``-`` or ``~``.  The IR carries no line for UN,
        so its trap's line is 0."""
        if unop != OP_LNOT and isinstance(a, ArrayRef):
            self._trap(traps.TYPE_CONFUSION, fname, 0, "array in arithmetic")
        raise guard_failed("UN", fname, 0)

    def _access_rule(self, arr, idx, store, fname, line):
        """LOAD/STORE: a non-array, then (STORE) a read-only array, then an
        index out of bounds or not an integer."""
        if not isinstance(arr, ArrayRef):
            self._trap(traps.TYPE_CONFUSION, fname, line, "indexing a non-array")
        if store and self._heap.is_readonly(arr):
            self._trap(traps.READONLY_WRITE, fname, line, "write to constant")
        size = self._heap.length(arr)
        if isinstance(idx, ArrayRef) or idx < 0 or idx >= size:
            kind = traps.OOB_WRITE if store else traps.OOB_READ
            self._trap(kind, fname, line, "index %r of %d" % (idx, size))
        raise guard_failed("STORE" if store else "LOAD", fname, line)

    def _depth_rule(self, fname, line):
        """CALL: the call-depth limit."""
        if len(self._stack) + 1 >= self._depth_limit:
            self._trap(traps.STACK_OVERFLOW, fname, line, "call depth exceeded")
        raise guard_failed("CALL", fname, line)

    # -- the interpreter loop ------------------------------------------------

    def _form(self, func_index):
        """The decoded form of function ``func_index``, decoded at its first
        call and kept for every later execution of the program."""
        form = self._forms[func_index]
        if form is None:
            form = self._forms[func_index] = decode(self._program.funcs[func_index])
        return form

    def _call(self, func_index, args):
        fname, template, blocks = self._form(func_index)
        arrays = self._heap._arrays
        rbase = self._heap._readonly_base
        hits = self._hits
        probe_acc = self._probe_acc
        probe_costs = PROBE_COSTS
        pure = self._pure_hit
        cmplog = self._cmplog
        cmp_log = self._cmp_log
        stack = self._stack
        regs = template[:]
        regs[: len(args)] = args
        if self._instr is not None:
            erows = self._instr.edge_rows[func_index]
            racts = self._instr.ret_actions[func_index]
            enacts = self._instr.entry_actions[func_index]
            mask = self._instr.map_mask
            if enacts:
                if pure:
                    idx = enacts[0][1]
                    hits[idx] = hits.get(idx, 0) + 1
                else:
                    self._run_actions(enacts, 0, mask)
        else:
            erows = racts = None
            mask = 0
        pathreg = 0
        cur = 0
        budget = self._budget
        # The instruction counter lives in ``count``; ``self._count`` is
        # brought up to date around calls and builtins, at RET, and by the
        # handler below when a trap or timeout leaves this frame.
        count = self._count
        try:
            while True:
                cost, instrs, term = blocks[cur]
                count += cost
                if count > budget:
                    raise Timeout(budget)
                for ins in instrs:
                    op = ins[0]
                    if op == BIN_EQ:
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        regs[ins[2]] = 1 if a == b else 0
                        if cmplog and len(cmp_log) < CMPLOG_CAP:
                            cmp_log.append((a, b))
                    elif op == BIN_ADD:
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        try:
                            value = a + b
                        except TypeError:
                            self._bin_rule(OP_ADD, a, b, fname, ins[5])
                        regs[ins[2]] = (
                            value if _I64_MIN <= value <= _I64_MAX else wrap_int(value)
                        )
                    elif op == BIN_LT:
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        try:
                            regs[ins[2]] = 1 if a < b else 0
                        except TypeError:
                            self._bin_rule(OP_LT, a, b, fname, ins[5])
                        if cmplog and len(cmp_log) < CMPLOG_CAP:
                            cmp_log.append((a, b))
                    elif op == LOAD:
                        arr = regs[ins[2]]
                        idx = regs[ins[3]]
                        if not isinstance(arr, ArrayRef):
                            self._access_rule(arr, idx, False, fname, ins[4])
                        storage = arrays[arr.array_id]
                        if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                            self._access_rule(arr, idx, False, fname, ins[4])
                        regs[ins[1]] = storage[idx]
                    elif op == BUILTIN:
                        self._count = count
                        regs[ins[1]] = _BUILTIN_DISPATCH[ins[2]](
                            self, [regs[r] for r in ins[3]], fname, ins[4]
                        )
                        count = self._count
                    elif op == STR:
                        regs[ins[1]] = ArrayRef(ins[2], True)
                    elif op == BIN_LE or op == BIN_GT or op == BIN_GE or op == BIN_NE:
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        try:
                            if op == BIN_LE:
                                value = 1 if a <= b else 0
                            elif op == BIN_GT:
                                value = 1 if a > b else 0
                            elif op == BIN_GE:
                                value = 1 if a >= b else 0
                            else:
                                value = 1 if a != b else 0
                        except TypeError:
                            self._bin_rule(ins[1], a, b, fname, ins[5])
                        if cmplog and len(cmp_log) < CMPLOG_CAP:
                            cmp_log.append((a, b))
                        regs[ins[2]] = value
                    elif op == CALL:
                        if len(stack) + 1 >= self._depth_limit:
                            self._depth_rule(fname, ins[4])
                        stack.append((fname, ins[4]))
                        self._count = count
                        regs[ins[1]] = self._call(ins[2], [regs[r] for r in ins[3]])
                        count = self._count
                        stack.pop()
                    elif op == CONST:
                        regs[ins[1]] = ins[2]
                    elif op == STORE:
                        arr = regs[ins[1]]
                        idx = regs[ins[2]]
                        if (
                            not isinstance(arr, ArrayRef)
                            or arr.readonly
                            or arr.array_id < rbase
                        ):
                            self._access_rule(arr, idx, True, fname, ins[4])
                        storage = arrays[arr.array_id]
                        if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                            self._access_rule(arr, idx, True, fname, ins[4])
                        storage[idx] = regs[ins[3]]
                    elif op == MOV:
                        regs[ins[1]] = regs[ins[2]]
                    elif op == UN:
                        unop = ins[1]
                        a = regs[ins[3]]
                        try:
                            if unop == OP_NEG:
                                regs[ins[2]] = wrap_int(-a)
                            elif unop == OP_LNOT:
                                regs[ins[2]] = 1 if a == 0 else 0
                            else:
                                regs[ins[2]] = wrap_int(~a)
                        except TypeError:
                            self._un_rule(unop, a, fname)
                    else:  # the other BIN operators: no cmplog, no comparison
                        binop = ins[1]
                        a = regs[ins[3]]
                        b = regs[ins[4]]
                        try:
                            if binop == OP_SUB:
                                value = wrap_int(a - b)
                            elif binop == OP_MUL:
                                value = wrap_int(a * b)
                            elif binop == OP_AND:
                                value = a & b
                            elif binop == OP_OR:
                                value = a | b
                            elif binop == OP_XOR:
                                value = a ^ b
                            elif binop == OP_DIV or binop == OP_MOD:
                                if b == 0:
                                    self._bin_rule(binop, a, b, fname, ins[5])
                                value = wrap_int(
                                    _c_div(a, b) if binop == OP_DIV else _c_mod(a, b)
                                )
                            else:  # OP_SHL / OP_SHR
                                if b < 0 or b > 63:
                                    self._bin_rule(binop, a, b, fname, ins[5])
                                value = wrap_int(a << b) if binop == OP_SHL else a >> b
                        except TypeError:
                            self._bin_rule(binop, a, b, fname, ins[5])
                        regs[ins[2]] = value
                top = term[0]
                if top == BR:
                    nxt = term[2] if regs[term[1]] else term[3]
                elif top == JMP:
                    nxt = term[1]
                else:  # RET
                    self._count = count
                    if racts is not None:
                        acts = racts.get(cur)
                        if acts:
                            if pure:
                                idx = acts[0][1]
                                hits[idx] = hits.get(idx, 0) + 1
                            else:
                                self._run_actions(acts, pathreg, mask)
                    value = term[1]
                    return 0 if value == -1 else regs[value]
                if erows is not None:
                    row = erows[cur]
                    if row is not None:
                        if pure:
                            # A pure-HIT row holds the edge's map index.
                            idx = row.get(nxt)
                            if idx is not None:
                                hits[idx] = hits.get(idx, 0) + 1
                        else:
                            acts = row.get(nxt)
                            if acts:
                                # Inlined action dispatch: the two hot kinds
                                # (edge hit, Ball-Larus increment) avoid a
                                # function call.
                                for act in acts:
                                    kind = act[0]
                                    probe_acc[0] += 1
                                    probe_acc[1] += probe_costs[kind]
                                    if kind == 0:  # ACT_HIT
                                        idx = act[1]
                                        hits[idx] = hits.get(idx, 0) + 1
                                    elif kind == 1:  # ACT_ADD
                                        pathreg += act[1]
                                    elif kind == 2:  # ACT_END_RESET
                                        idx = ((pathreg + act[1]) ^ act[3]) & mask
                                        hits[idx] = hits.get(idx, 0) + 1
                                        pathreg = act[2]
                                        if self._pair_paths:
                                            pair = (
                                                (self._last_path_idx * 0x9E3779B1)
                                                ^ idx
                                            ) & mask
                                            hits[pair] = hits.get(pair, 0) + 1
                                            self._last_path_idx = idx
                                    else:  # rare kinds: ngram / hpath / ret-end
                                        probe_acc[0] -= 1
                                        probe_acc[1] -= probe_costs[kind]
                                        pathreg = self._run_one_action(
                                            act, pathreg, mask
                                        )
                cur = nxt
        except (Trap, Timeout):
            # The counter only grows: whichever of this frame's count and
            # the one a callee or builtin left in ``self._count`` is larger
            # is the count at the fault.
            if count > self._count:
                self._count = count
            raise

    def _run_actions(self, acts, pathreg, mask):
        """Execute probe actions; returns the (possibly updated) path register."""
        for act in acts:
            pathreg = self._run_one_action(act, pathreg, mask)
        return pathreg

    def _pair_hit(self, idx, mask):
        """Fold consecutive path-id emissions into a 2-gram map hit.

        Implements the paper's Sec. VII future-work feedback: 2-grams of
        acyclic paths across path terminations (loop exits and function
        boundaries).  No-op unless the instrumentation enables it.
        """
        if not self._pair_paths:
            return
        pair = ((self._last_path_idx * 0x9E3779B1) ^ idx) & mask
        hits = self._hits
        hits[pair] = hits.get(pair, 0) + 1
        self._last_path_idx = idx

    def _run_one_action(self, act, pathreg, mask):
        """Execute one probe action (the out-of-line path for rare kinds)."""
        hits = self._hits
        kind = act[0]
        self._probe_acc[0] += 1
        self._probe_acc[1] += PROBE_COSTS[kind]
        if kind == ACT_HIT:
            idx = act[1]
            hits[idx] = hits.get(idx, 0) + 1
        elif kind == ACT_ADD:
            pathreg += act[1]
        elif kind == ACT_END_RESET:
            idx = ((pathreg + act[1]) ^ act[3]) & mask
            hits[idx] = hits.get(idx, 0) + 1
            pathreg = act[2]
            self._pair_hit(idx, mask)
        elif kind == ACT_END:
            idx = ((pathreg + act[1]) ^ act[2]) & mask
            hits[idx] = hits.get(idx, 0) + 1
            self._pair_hit(idx, mask)
        elif kind == ACT_NGRAM:
            # Rolling window over the last n edge hashes, each weighted
            # by its position (AFL++'s ngram instrumentation analogue).
            ring = self._ngram_ring
            ring.append(act[1])
            if len(ring) > self._ngram_n:
                ring.pop(0)
            state = 0
            for pos, ehash in enumerate(ring):
                state ^= (ehash << pos) & _U64
            idx = (state ^ (state >> 32)) & mask
            hits[idx] = hits.get(idx, 0) + 1
        else:  # ACT_HPATH
            self._hpath_state = ((self._hpath_state * 33) ^ act[1]) & _U64
            state = self._hpath_state
            idx = (state ^ (state >> 32)) & mask
            hits[idx] = hits.get(idx, 0) + 1
        return pathreg

    # -- builtins --------------------------------------------------------------

    def _array_arg(self, value, fname, line):
        if not isinstance(value, ArrayRef):
            self._trap(traps.TYPE_CONFUSION, fname, line, "expected an array")
        return value

    def _int_arg(self, value, fname, line):
        if isinstance(value, ArrayRef):
            self._trap(traps.TYPE_CONFUSION, fname, line, "expected an integer")
        return value

    def _bounded_slice(self, ref, off, n, fname, line, kind):
        storage = self._heap.storage(ref)
        if off < 0 or n < 0 or off + n > len(storage):
            self._trap(
                kind, fname, line, "range [%d, %d) of %d" % (off, off + n, len(storage))
            )
        return storage

    def _bi_alloc(self, args, fname, line):
        size = self._int_arg(args[0], fname, line)
        ref = self._heap.alloc(size)
        if ref is None:
            self._trap(traps.BAD_ALLOC, fname, line, "alloc(%d)" % size)
        self._count += max(size, 0) >> 4  # allocation cost in virtual time
        return ref

    def _bi_len(self, args, fname, line):
        ref = self._array_arg(args[0], fname, line)
        return self._heap.length(ref)

    def _bi_abs(self, args, fname, line):
        return wrap_int(abs(self._int_arg(args[0], fname, line)))

    def _bi_min(self, args, fname, line):
        return min(
            self._int_arg(args[0], fname, line), self._int_arg(args[1], fname, line)
        )

    def _bi_max(self, args, fname, line):
        return max(
            self._int_arg(args[0], fname, line), self._int_arg(args[1], fname, line)
        )

    def _bi_memcmp(self, args, fname, line):
        a = self._array_arg(args[0], fname, line)
        aoff = self._int_arg(args[1], fname, line)
        b = self._array_arg(args[2], fname, line)
        boff = self._int_arg(args[3], fname, line)
        n = self._int_arg(args[4], fname, line)
        sa = self._bounded_slice(a, aoff, n, fname, line, traps.OOB_READ)
        sb = self._bounded_slice(b, boff, n, fname, line, traps.OOB_READ)
        self._count += n
        left = sa[aoff : aoff + n]
        right = sb[boff : boff + n]
        if self._cmplog and len(self._cmp_log) < CMPLOG_CAP:
            # A window holding a ref has no bytes to log; the result stands.
            entry = (byte_window(left), byte_window(right))
            if None not in entry:
                self._cmp_log.append(entry)
        return 0 if left == right else 1

    def _bi_copy(self, args, fname, line):
        dst = self._array_arg(args[0], fname, line)
        doff = self._int_arg(args[1], fname, line)
        src = self._array_arg(args[2], fname, line)
        soff = self._int_arg(args[3], fname, line)
        n = self._int_arg(args[4], fname, line)
        if self._heap.is_readonly(dst):
            self._trap(traps.READONLY_WRITE, fname, line, "copy into constant")
        sdst = self._bounded_slice(dst, doff, n, fname, line, traps.OOB_WRITE)
        ssrc = self._bounded_slice(src, soff, n, fname, line, traps.OOB_READ)
        self._count += n
        sdst[doff : doff + n] = ssrc[soff : soff + n]
        return 0

    def _bi_fill(self, args, fname, line):
        ref = self._array_arg(args[0], fname, line)
        off = self._int_arg(args[1], fname, line)
        n = self._int_arg(args[2], fname, line)
        value = self._int_arg(args[3], fname, line)
        if self._heap.is_readonly(ref):
            self._trap(traps.READONLY_WRITE, fname, line, "fill into constant")
        storage = self._bounded_slice(ref, off, n, fname, line, traps.OOB_WRITE)
        self._count += n
        storage[off : off + n] = [value] * n
        return 0

    def _read_scalar(self, args, fname, line, width, big_endian):
        ref = self._array_arg(args[0], fname, line)
        off = self._int_arg(args[1], fname, line)
        storage = self._bounded_slice(ref, off, width, fname, line, traps.OOB_READ)
        value = 0
        window = storage[off : off + width]
        try:
            for byte in window if big_endian else reversed(window):
                value = (value << 8) | (byte & 0xFF)
        except TypeError:  # a cell holds an array ref
            self._trap(traps.TYPE_CONFUSION, fname, line, "array read as bytes")
        return value

    def _bi_read16(self, args, fname, line):
        return self._read_scalar(args, fname, line, 2, True)

    def _bi_read32(self, args, fname, line):
        return self._read_scalar(args, fname, line, 4, True)

    def _bi_read16le(self, args, fname, line):
        return self._read_scalar(args, fname, line, 2, False)

    def _bi_read32le(self, args, fname, line):
        return self._read_scalar(args, fname, line, 4, False)

    def _bi_trap(self, args, fname, line):
        code = self._int_arg(args[0], fname, line)
        self._trap(traps.ASSERT_FAIL, fname, line, "trap(%d)" % code)


def guard_failed(what, fname, line):
    """The AssertionError of a trap rule that found no trap: the guard that
    called it is wrong."""
    return AssertionError(
        "%s at %s:%d passed its checks after its guard failed" % (what, fname, line)
    )


def byte_window(cells):
    """The low bytes of ``cells``, or None when a cell holds an array ref.

    The one byte view of a heap window: cmplog's ``memcmp`` entries on
    both backends, and taint's compare samples."""
    try:
        return bytes([v & 0xFF for v in cells])
    except TypeError:
        return None


def _c_div(a, b):
    """C-style truncating division."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _c_mod(a, b):
    """C-style remainder (sign follows the dividend)."""
    return a - _c_div(a, b) * b


_BUILTIN_DISPATCH = {
    BUILTIN_CODES["alloc"]: _Exec._bi_alloc,
    BUILTIN_CODES["len"]: _Exec._bi_len,
    BUILTIN_CODES["abs"]: _Exec._bi_abs,
    BUILTIN_CODES["min"]: _Exec._bi_min,
    BUILTIN_CODES["max"]: _Exec._bi_max,
    BUILTIN_CODES["memcmp"]: _Exec._bi_memcmp,
    BUILTIN_CODES["copy"]: _Exec._bi_copy,
    BUILTIN_CODES["fill"]: _Exec._bi_fill,
    BUILTIN_CODES["read16"]: _Exec._bi_read16,
    BUILTIN_CODES["read32"]: _Exec._bi_read32,
    BUILTIN_CODES["read16le"]: _Exec._bi_read16le,
    BUILTIN_CODES["read32le"]: _Exec._bi_read32le,
    BUILTIN_CODES["trap"]: _Exec._bi_trap,
}

# read* builtins: code -> (width, big_endian).
_READS = {
    BUILTIN_CODES["read16"]: (2, True),
    BUILTIN_CODES["read32"]: (4, True),
    BUILTIN_CODES["read16le"]: (2, False),
    BUILTIN_CODES["read32le"]: (4, False),
}
