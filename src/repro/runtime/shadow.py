"""ShadowExec: the one interpreter loop that carries a shadow value per register.

Taint tracking (:mod:`repro.taint.track`) and concolic path-condition
extraction (:mod:`repro.analysis.symbolic`) both replay an input with the
VM's concrete semantics while keeping, next to every register and heap
cell, a *shadow* from their own domain: a taint label or a symbolic
expression.  :class:`ShadowExec` is that replay, written once.  Its
concrete side mirrors ``_Exec`` exactly — instruction and probe
accounting, traps, cmplog — so a shadow run's
:class:`~repro.runtime.interpreter.ExecutionResult` is bit-identical to a
plain interpretation of the same input.  It runs the decoded form that
``_Exec`` runs (:func:`~repro.runtime.interpreter.decode`), charging each
block its IR length plus one, with a shadow frame of
``[None] * len(template)``: a constant slot is clean, as the CONST it
replaces would have made its register.  Every BIN-family opcode is
dispatched as BIN.  The loop keeps ``_Exec``'s inline guards; a failed
guard calls ``_Exec``'s trap rule for its check family (``_bin_rule``,
``_un_rule``, ``_access_rule``, ``_depth_rule``, or a builtin's ``_bi_*``
method), so no trap kind or detail is written here.  Pure-HIT probes are
the same one map update as in ``_Exec``; other probe actions run through
the out-of-line ``_run_actions`` helper, accounting-identical to the
inlined copy that ``_Exec`` keeps for speed.

``None`` is the clean shadow in every domain.  The loop consults the
domain only when a shadow is present, so clean values cost one
``is None`` check.  A domain subclass overrides these hooks:

- ``_input_shadow(offset)``: the shadow of input byte ``offset``;
- ``_join_bin(binop, sa, sb, a, b)`` and ``_join_un(unop, sa)``: the shadow
  of an operator's result, called only when an operand is shadowed
  (``a``/``b`` are the concrete operands, either shadow may be None);
- ``_steer(shadow)``: a shadowed value can change control.  Fired before
  the trap check on divisors, shift amounts, array indices, refs and
  bounds, builtin offsets, lengths, sizes and trap codes.  A shadowed
  branch condition fires ``_steer_branch(site, taken_dst, cond, scond)``,
  which defaults to ``_steer(scond)``;
- ``_load_indexed(cell, sarr, sidx)`` and ``_store_indexed(arr, idx,
  shadow)``: LOAD/STORE through a shadowed index or array ref;
- ``_on_cmp(site, sa, sb, a, b)`` and ``_on_branch(site, taken_dst,
  scond)``: observers of every comparison and every conditional branch,
  or None;
- ``_shadow_<builtin>(value, vals, shadows, fname, line)``: a builtin's
  result shadow, computed after its base ``_bi_*`` semantics produced
  ``value``.  A builtin without a rule returns a clean result; the
  ``read*`` family shares ``_read_shadow(vals, shadows, width,
  big_endian)``;
- ``_finish(input_len)``: the domain's artifact, which :meth:`run` returns
  next to the ExecutionResult.

The shadow heap is domain-independent: per-array cell lists created on
the first shadowed write, and the shadow of each allocation's size.
``copy``/``fill`` move cell shadows like the data they shadow.
"""

from repro.cfg.instructions import (
    BR,
    BUILTIN,
    COMPARISON_OPS,
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
    OP_LNOT,
    OP_LT,
    OP_MOD,
    OP_MUL,
    OP_NE,
    OP_NEG,
    OP_OR,
    OP_SHL,
    OP_SUB,
    OP_XOR,
    STORE,
    STR,
    UN,
)
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime.interpreter import (
    _BUILTIN_DISPATCH,
    _READS,
    BIN_BASE,
    CMPLOG_CAP,
    _c_div,
    _c_mod,
    _Exec,
)
from repro.runtime.traps import Timeout, Trap
from repro.runtime.values import ArrayRef, wrap_int

# Builtin argument positions that can steer control: offsets, lengths and
# sizes decide the bounds traps, and a trap code is the crash itself.
_STEERING = {
    BUILTIN_CODES[name]: positions
    for names, positions in (
        (("alloc", "trap"), (0,)),
        (("memcmp", "copy"), (1, 3, 4)),
        (("fill",), (1, 2)),
        (("read16", "read32", "read16le", "read32le"), (1,)),
    )
    for name in names
}


def _builtin_rules(cls):
    """builtin code -> the class's ``_shadow_<name>`` rule, or None."""
    return {
        code: getattr(cls, "_shadow_" + name, None)
        for name, code in BUILTIN_CODES.items()
    }


class ShadowExec(_Exec):
    """Concrete ``_Exec`` semantics plus one shadow value per register and cell.

    The base class is the empty domain: nothing is ever shadowed, and
    :meth:`run` returns ``(ExecutionResult, None)``.
    """

    _on_cmp = None  # observers of every comparison / conditional branch
    _on_branch = None

    def __init__(
        self, program, instrumentation, instr_budget, call_depth_limit, cmplog
    ):
        super().__init__(
            program, instrumentation, instr_budget, call_depth_limit, cmplog
        )
        self._cells = {}  # array_id -> list of cell shadows (lazy)
        self._sizes = {}  # array_id -> shadow of a shadowed alloc size
        self._sret = None  # shadow of the last finished call's return value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._rules = _builtin_rules(cls)

    def run(self, input_bytes):
        """Run ``main(input_bytes)``; returns ``(ExecutionResult, artifact)``."""
        input_ref = self._heap.place(input_bytes)
        source = self._input_shadow
        self._cells[input_ref.array_id] = [source(i) for i in range(len(input_bytes))]
        return self._run_main(input_ref), self._finish(len(input_bytes))

    # -- domain hooks: the empty domain ----------------------------------------

    def _input_shadow(self, offset):
        return None

    def _join_bin(self, binop, sa, sb, a, b):
        return None

    def _join_un(self, unop, sa):
        return None

    def _steer(self, shadow):
        pass

    def _load_indexed(self, cell, sarr, sidx):
        return None

    def _store_indexed(self, arr, idx, shadow):
        self._cells_for_write(arr)[idx] = shadow

    def _steer_branch(self, site, taken_dst, cond, scond):
        self._steer(scond)

    def _read_shadow(self, vals, shadows, width, big_endian):
        return None

    def _finish(self, input_len):
        return None

    # -- the shadow heap ---------------------------------------------------------

    def _cells_for_write(self, ref):
        """The cell shadow list of an array, created on first use."""
        cells = self._cells.get(ref.array_id)
        if cells is None:
            cells = self._cells[ref.array_id] = [None] * self._heap.length(ref)
        return cells

    def _shadow_alloc(self, value, vals, shadows, fname, line):
        if shadows[0] is not None:
            self._sizes[value.array_id] = shadows[0]
        return None

    def _shadow_copy(self, value, vals, shadows, fname, line):
        dst, doff, src, soff, n = vals
        src_cells = self._cells.get(src.array_id)
        # Slice the source first: dst may alias src (memmove).
        window = src_cells[soff : soff + n] if src_cells is not None else None
        if window is not None or dst.array_id in self._cells:
            cells = self._cells_for_write(dst)
            cells[doff : doff + n] = window if window is not None else [None] * n
        return None

    def _shadow_fill(self, value, vals, shadows, fname, line):
        ref, off, n, _fill_value = vals
        if shadows[3] is not None or ref.array_id in self._cells:
            self._cells_for_write(ref)[off : off + n] = [shadows[3]] * n
        return None

    # -- the shadow interpreter loop -------------------------------------------

    def _call(self, func_index, args, shadows=None):
        fname, template, blocks = self._form(func_index)
        arrays = self._heap._arrays
        cellmap = self._cells
        sizes = self._sizes
        steer = self._steer
        join_bin = self._join_bin
        on_cmp = self._on_cmp
        on_branch = self._on_branch
        cmplog = self._cmplog
        observe_cmp = cmplog or on_cmp is not None
        cmp_log = self._cmp_log
        hits = self._hits
        pure = self._pure_hit
        regs = template[:]
        regs[: len(args)] = args
        sregs = [None] * len(template)
        if shadows:
            sregs[: len(shadows)] = shadows
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
        count = self._count  # kept as ``_Exec._call`` keeps it
        try:
            while True:
                cost, instrs, term = blocks[cur]
                count += cost
                if count > budget:
                    raise Timeout(budget)
                for ins in instrs:
                    op = ins[0]
                    if op >= BIN_BASE:
                        binop = ins[1]
                        sa = sregs[ins[3]]
                        sb = sregs[ins[4]]
                        try:
                            a = regs[ins[3]]
                            b = regs[ins[4]]
                            if binop == OP_EQ:
                                value = 1 if a == b else 0
                            elif binop == OP_NE:
                                value = 1 if a != b else 0
                            elif binop == OP_ADD:
                                value = wrap_int(a + b)
                            elif binop == OP_SUB:
                                value = wrap_int(a - b)
                            elif binop == OP_LT:
                                value = 1 if a < b else 0
                            elif binop == OP_LE:
                                value = 1 if a <= b else 0
                            elif binop == OP_GT:
                                value = 1 if a > b else 0
                            elif binop == OP_GE:
                                value = 1 if a >= b else 0
                            elif binop == OP_MUL:
                                value = wrap_int(a * b)
                            elif binop == OP_AND:
                                value = a & b
                            elif binop == OP_OR:
                                value = a | b
                            elif binop == OP_XOR:
                                value = a ^ b
                            elif binop == OP_DIV or binop == OP_MOD:
                                if sb is not None:
                                    steer(sb)
                                div = binop == OP_DIV
                                if b == 0:
                                    self._bin_rule(binop, a, b, fname, ins[5])
                                value = wrap_int(_c_div(a, b) if div else _c_mod(a, b))
                            else:  # OP_SHL / OP_SHR
                                if sb is not None:
                                    steer(sb)
                                if b < 0 or b > 63:
                                    self._bin_rule(binop, a, b, fname, ins[5])
                                value = wrap_int(a << b) if binop == OP_SHL else a >> b
                        except TypeError:
                            self._bin_rule(binop, a, b, fname, ins[5])
                        if observe_cmp and binop in COMPARISON_OPS:
                            if cmplog and len(cmp_log) < CMPLOG_CAP:
                                cmp_log.append((a, b))
                            if on_cmp is not None:
                                on_cmp((fname, ins[5], binop), sa, sb, a, b)
                        regs[ins[2]] = value
                        if sa is None and sb is None:
                            sregs[ins[2]] = None
                        else:
                            sregs[ins[2]] = join_bin(binop, sa, sb, a, b)
                    elif op == LOAD:
                        arr = regs[ins[2]]
                        idx = regs[ins[3]]
                        if not isinstance(arr, ArrayRef):
                            self._access_rule(arr, idx, False, fname, ins[4])
                        sarr = sregs[ins[2]]
                        sidx = sregs[ins[3]]
                        if sidx is not None or sarr is not None or sizes:
                            self._steer_access(arr, sarr, sidx)
                        storage = arrays[arr.array_id]
                        if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                            self._access_rule(arr, idx, False, fname, ins[4])
                        regs[ins[1]] = storage[idx]
                        cells = cellmap.get(arr.array_id)
                        cell = cells[idx] if cells is not None else None
                        if sidx is None and sarr is None:
                            sregs[ins[1]] = cell
                        else:
                            sregs[ins[1]] = self._load_indexed(cell, sarr, sidx)
                    elif op == MOV:
                        regs[ins[1]] = regs[ins[2]]
                        sregs[ins[1]] = sregs[ins[2]]
                    elif op == CONST:
                        regs[ins[1]] = ins[2]
                        sregs[ins[1]] = None
                    elif op == BUILTIN:
                        self._count = count
                        regs[ins[1]], sregs[ins[1]] = self._builtin_shadow(
                            ins[2],
                            [regs[r] for r in ins[3]],
                            [sregs[r] for r in ins[3]],
                            fname,
                            ins[4],
                        )
                        count = self._count
                    elif op == STR:
                        regs[ins[1]] = ArrayRef(ins[2], True)
                        sregs[ins[1]] = None
                    elif op == STORE:
                        arr = regs[ins[1]]
                        idx = regs[ins[2]]
                        if not isinstance(arr, ArrayRef) or self._heap.is_readonly(arr):
                            self._access_rule(arr, idx, True, fname, ins[4])
                        sarr = sregs[ins[1]]
                        sidx = sregs[ins[2]]
                        if sidx is not None or sarr is not None or sizes:
                            self._steer_access(arr, sarr, sidx)
                        storage = arrays[arr.array_id]
                        if isinstance(idx, ArrayRef) or idx < 0 or idx >= len(storage):
                            self._access_rule(arr, idx, True, fname, ins[4])
                        storage[idx] = regs[ins[3]]
                        shadow = sregs[ins[3]]
                        if sidx is not None or sarr is not None:
                            self._store_indexed(arr, idx, shadow)
                        elif shadow is not None or arr.array_id in cellmap:
                            self._cells_for_write(arr)[idx] = shadow
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
                        sa = sregs[ins[3]]
                        sregs[ins[2]] = None if sa is None else self._join_un(unop, sa)
                    else:  # CALL
                        if len(self._stack) + 1 >= self._depth_limit:
                            self._depth_rule(fname, ins[4])
                        self._stack.append((fname, ins[4]))
                        self._count = count
                        regs[ins[1]] = self._call(
                            ins[2],
                            [regs[r] for r in ins[3]],
                            [sregs[r] for r in ins[3]],
                        )
                        count = self._count
                        self._stack.pop()
                        sregs[ins[1]] = self._sret
                top = term[0]
                if top == BR:
                    cond = regs[term[1]]
                    scond = sregs[term[1]]
                    nxt = term[2] if cond else term[3]
                    if scond is not None:
                        self._steer_branch((fname, cur), nxt, cond, scond)
                    if on_branch is not None:
                        on_branch((fname, cur), nxt, scond)
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
                    if value == -1:
                        self._sret = None
                        return 0
                    self._sret = sregs[value]
                    return regs[value]
                if erows is not None:
                    row = erows[cur]
                    if row is not None:
                        if pure:
                            idx = row.get(nxt)
                            if idx is not None:
                                hits[idx] = hits.get(idx, 0) + 1
                        else:
                            acts = row.get(nxt)
                            if acts:
                                pathreg = self._run_actions(acts, pathreg, mask)
                cur = nxt
        except (Trap, Timeout):
            if count > self._count:
                self._count = count
            raise

    def _steer_access(self, arr, sarr, sidx):
        """Steer on what decides an array access's bounds trap."""
        if sidx is not None:
            self._steer(sidx)
        if sarr is not None:
            self._steer(sarr)
        size = self._sizes.get(arr.array_id)
        if size is not None:
            self._steer(size)

    def _builtin_shadow(self, code, vals, shadows, fname, line):
        """Run a builtin with base semantics; returns ``(value, shadow)``."""
        for pos in _STEERING.get(code, ()):
            if shadows[pos] is not None:
                self._steer(shadows[pos])
        value = _BUILTIN_DISPATCH[code](self, vals, fname, line)
        shape = _READS.get(code)
        if shape is not None:
            return value, self._read_shadow(vals, shadows, *shape)
        rule = self._rules[code]
        if rule is None:
            return value, None
        return value, rule(self, value, vals, shadows, fname, line)


ShadowExec._rules = _builtin_rules(ShadowExec)
