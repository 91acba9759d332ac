"""Concolic path-condition extraction: replay one input, collect constraints.

:class:`ConcolicExec` is the symbolic domain of the shadow interpreter loop
(:class:`repro.runtime.shadow.ShadowExec`, which it shares with
:class:`repro.taint.track.TaintExec`): the shadow of each register and heap
cell is an optional :class:`SymExpr` describing its concrete value as a
function of individual input bytes.  Every conditional branch whose
condition register carries an expression contributes a
:class:`Constraint` — the expression plus the direction the concrete run
took — and the ordered list of constraints is the run's *path
condition*.

The expression language is deliberately small: integer constants, input
bytes (``byte[i]``, always in ``[0, 255]``), the MiniC binary/unary
operators, nothing else.  Whatever the shadow evaluation cannot express
(symbolically-indexed loads and stores, ``copy``/``fill`` windows at
symbolic offsets, values flowing through ``memcmp``, calls past the node
cap) degrades to ``None`` — concrete-only — which *drops*
constraints rather than fabricating wrong ones.  Nothing downstream
trusts an expression blindly anyway: the solver's witnesses are verified
by replaying the mutated input through the real interpreter, so an
imprecise expression can waste solver effort but never corrupt results.

Mixed concrete/symbolic evaluation reuses the shared folding semantics
(:mod:`repro.analysis.foldops`), so :func:`eval_expr` agrees with the VM
bit for bit on every non-trapping operation, and interval evaluation
(:func:`interval_expr`) reuses :mod:`repro.analysis.interval` so the
solver can prune whole byte-subdomains soundly.
"""

from repro.analysis.foldops import fold_binop, fold_unop
from repro.analysis.interval import FULL, Interval, bin_interval, un_interval
from repro.cfg.instructions import (
    BINOPS,
    OP_AND,
    OP_DIV,
    OP_MOD,
    OP_OR,
    OP_SHL,
    OP_SHR,
    UNOPS,
)
from repro.runtime.interpreter import (
    DEFAULT_CALL_DEPTH,
    DEFAULT_INSTR_BUDGET,
    _c_div,
    _c_mod,
)
from repro.runtime.shadow import ShadowExec
from repro.runtime.values import wrap_int

# Expression nodes beyond this size degrade to concrete (None): huge
# expressions solve poorly and slow every interval evaluation down.
MAX_EXPR_NODES = 96

# Constraints recorded per run beyond this cap are dropped (loop-heavy
# paths would otherwise build unbounded path conditions).
MAX_CONSTRAINTS = 2048

_BYTE = 0
_BIN = 1
_UN = 2

_BYTE_RANGE = Interval(0, 255)

_BINOP_NAMES = {code: name for name, code in BINOPS.items()}
_UNOP_NAMES = {code: name for name, code in UNOPS.items()}


class SymExpr:
    """One node of a symbolic expression over input bytes.

    ``kind`` is ``_BYTE`` (``op`` = byte offset), ``_BIN`` (``op`` =
    binop code, ``a``/``b`` operands) or ``_UN`` (``op`` = unop code,
    ``a`` operand).  Operands are either :class:`SymExpr` or plain ints
    (concrete).  ``size`` counts nodes for the growth cap.
    """

    __slots__ = ("kind", "op", "a", "b", "size")

    def __init__(self, kind, op, a=None, b=None, size=1):
        self.kind = kind
        self.op = op
        self.a = a
        self.b = b
        self.size = size

    def __repr__(self):
        return "SymExpr(%s)" % format_expr(self)


def byte_expr(offset):
    return SymExpr(_BYTE, offset)


def _node_size(operand):
    return operand.size if isinstance(operand, SymExpr) else 0


def make_bin(binop, a, b):
    """Combine two operands (SymExpr or int); None past the node cap."""
    size = 1 + _node_size(a) + _node_size(b)
    if size > MAX_EXPR_NODES:
        return None
    return SymExpr(_BIN, binop, a, b, size)


def make_un(unop, a):
    size = 1 + _node_size(a)
    if size > MAX_EXPR_NODES:
        return None
    return SymExpr(_UN, unop, a, size=size)


def expr_support(expr):
    """The set of input-byte offsets an expression reads."""
    support = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if not isinstance(node, SymExpr):
            continue
        if node.kind == _BYTE:
            support.add(node.op)
        elif node.kind == _BIN:
            stack.append(node.a)
            stack.append(node.b)
        else:
            stack.append(node.a)
    return support


def eval_expr(expr, byte_at):
    """Concretely evaluate ``expr``; ``byte_at(offset)`` supplies bytes.

    Returns the VM-exact integer value, or None when the evaluation hits
    an operation the VM would trap on (zero divisor, out-of-range shift)
    — a trapping path has no value for the guard to take.
    """
    if not isinstance(expr, SymExpr):
        return expr
    if expr.kind == _BYTE:
        return byte_at(expr.op) & 0xFF
    if expr.kind == _UN:
        a = eval_expr(expr.a, byte_at)
        if a is None:
            return None
        return fold_unop(expr.op, a)
    a = eval_expr(expr.a, byte_at)
    b = eval_expr(expr.b, byte_at)
    if a is None or b is None:
        return None
    binop = expr.op
    if binop == OP_DIV or binop == OP_MOD:
        if b == 0:
            return None
        return wrap_int(_c_div(a, b) if binop == OP_DIV else _c_mod(a, b))
    if binop == OP_SHL or binop == OP_SHR:
        if b < 0 or b > 63:
            return None
        return wrap_int(a << b) if binop == OP_SHL else (a >> b)
    return fold_binop(binop, a, b)


def interval_expr(expr, domains):
    """A sound interval for ``expr`` over per-byte domains.

    ``domains`` maps byte offsets to :class:`Interval`s within
    ``[0, 255]``; unmapped offsets default to the full byte range.  The
    result bounds every *non-trapping* evaluation of the expression with
    bytes drawn from the domains — the property the solver's subdomain
    pruning relies on.
    """
    if not isinstance(expr, SymExpr):
        return Interval(expr, expr) if isinstance(expr, int) else FULL
    if expr.kind == _BYTE:
        return domains.get(expr.op, _BYTE_RANGE)
    if expr.kind == _UN:
        return un_interval(expr.op, interval_expr(expr.a, domains))
    # The generic lattice is too coarse on the two shapes this shadow
    # interpreter itself builds: ``byte & 255`` (the AND rule drops the
    # lower bound to 0) and the read16/read32 accumulator (the OR rule
    # bit-smears the upper bound).  Both are *exact* over byte domains —
    # each byte owns a disjoint 8-bit window — and exactness here is what
    # turns the solver's domain splitting into per-byte binary search.
    if expr.op == OP_AND and expr.b == 255:
        inner = expr.a
        if isinstance(inner, SymExpr) and inner.kind == _BYTE:
            return domains.get(inner.op, _BYTE_RANGE)
    if expr.op == OP_OR:
        offsets = match_byte_fold(expr)
        if offsets is not None:
            lo = hi = 0
            for off in offsets:
                dom = domains.get(off, _BYTE_RANGE)
                lo = (lo << 8) + min(255, max(0, dom.lo))
                hi = (hi << 8) + min(255, max(0, dom.hi))
            return Interval(lo, hi)
    return bin_interval(
        expr.op,
        interval_expr(expr.a, domains),
        interval_expr(expr.b, domains),
    )


def match_byte_fold(expr):
    """Recognize a byte-fold read: offsets most-significant-first, or None.

    Matches the exact shapes the shadow interpreter builds — a bare input
    byte, ``byte & 255``, or the ``read16``/``read32`` accumulator
    ``(acc << 8) | (byte & 255)`` — so a comparison against a constant
    can be solved by direct byte assignment (input-to-state
    correspondence) instead of search.  Returns the list of byte offsets
    from the most significant position down, or None when the expression
    is not a pure fold.
    """
    if not isinstance(expr, SymExpr):
        return None
    if expr.kind == _BYTE:
        return [expr.op]
    if expr.kind != _BIN:
        return None
    if (
        expr.op == OP_AND
        and expr.b == 255
        and isinstance(expr.a, SymExpr)
        and expr.a.kind == _BYTE
    ):
        return [expr.a.op]
    if expr.op == OP_OR:
        low = match_byte_fold(expr.b)
        if low is None or len(low) != 1:
            return None
        shifted = expr.a
        if (
            isinstance(shifted, SymExpr)
            and shifted.kind == _BIN
            and shifted.op == OP_SHL
            and shifted.b == 8
        ):
            high = match_byte_fold(shifted.a)
            if high is not None:
                return high + low
    return None


def format_expr(expr):
    """Human-readable rendering for the CLI (``(byte[0] & 15) > 20``)."""
    if not isinstance(expr, SymExpr):
        return str(expr)
    if expr.kind == _BYTE:
        return "byte[%d]" % expr.op
    if expr.kind == _UN:
        return "%s%s" % (_UNOP_NAMES.get(expr.op, "?"), format_expr(expr.a))
    return "(%s %s %s)" % (
        format_expr(expr.a),
        _BINOP_NAMES.get(expr.op, "?"),
        format_expr(expr.b),
    )


class Constraint:
    """One branch decision of the replayed run.

    ``site`` is ``(function name, source block id)`` — the same site key
    :func:`repro.taint.targets.build_branch_index` uses, so scheduler
    targets and constraints line up.  ``taken_true`` is the direction
    the concrete run took; flipping the constraint means finding bytes
    under which ``expr``'s truthiness is ``not taken_true``.
    """

    __slots__ = ("index", "site", "taken_dst", "taken_true", "expr", "_support")

    def __init__(self, index, site, taken_dst, taken_true, expr):
        self.index = index
        self.site = site
        self.taken_dst = taken_dst
        self.taken_true = taken_true
        self.expr = expr
        self._support = None

    def support(self):
        """The input-byte offsets ``expr`` reads, walked once per constraint."""
        if self._support is None:
            self._support = frozenset(expr_support(self.expr))
        return self._support

    def holds(self, byte_at):
        """Does the recorded direction hold under these bytes? None=trap."""
        value = eval_expr(self.expr, byte_at)
        if value is None:
            return None
        return (value != 0) == self.taken_true

    def describe(self):
        want = "" if self.taken_true else " == 0"
        return "%s:%d -> %d: %s%s" % (
            self.site[0],
            self.site[1],
            self.taken_dst,
            format_expr(self.expr),
            want,
        )


class PathCondition:
    """The ordered symbolic constraints of one concrete execution."""

    __slots__ = ("constraints", "input_len", "truncated")

    def __init__(self, constraints, input_len, truncated):
        self.constraints = constraints
        self.input_len = input_len
        self.truncated = truncated

    def __len__(self):
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def at_site(self, site):
        return [c for c in self.constraints if c.site == site]

    def prefix(self, index):
        """Constraints recorded strictly before trace position ``index``."""
        return [c for c in self.constraints if c.index < index]


def extract_path_condition(
    program,
    data,
    sym_bytes=None,
    instrumentation=None,
    instr_budget=DEFAULT_INSTR_BUDGET,
    call_depth_limit=DEFAULT_CALL_DEPTH,
    max_constraints=MAX_CONSTRAINTS,
):
    """Replay ``program.main(data)`` collecting symbolic constraints.

    ``sym_bytes`` bounds the symbolic variable set (an iterable of byte
    offsets, e.g. a taint focus mask); None makes every byte symbolic.
    Returns ``(ExecutionResult, PathCondition)`` — the ExecutionResult
    matches a plain interpretation of the same input.
    """
    vm = ConcolicExec(
        program,
        instrumentation,
        instr_budget,
        call_depth_limit,
        sym_bytes=sym_bytes,
        max_constraints=max_constraints,
    )
    return vm.run(data)


class ConcolicExec(ShadowExec):
    """Shadow interpreter: concrete semantics + symbolic byte expressions.

    A load through a symbolic index keeps the base rule's clean result:
    which cell it reads depends on input bytes, outside the language.
    """

    def __init__(
        self,
        program,
        instrumentation,
        instr_budget=DEFAULT_INSTR_BUDGET,
        call_depth_limit=DEFAULT_CALL_DEPTH,
        cmplog=False,
        sym_bytes=None,
        max_constraints=MAX_CONSTRAINTS,
    ):
        super().__init__(
            program, instrumentation, instr_budget, call_depth_limit, cmplog
        )
        self._sym_bytes = None if sym_bytes is None else set(sym_bytes)
        self._constraints = []
        self._max_constraints = max_constraints
        self._truncated = False

    def _input_shadow(self, offset):
        allowed = self._sym_bytes
        return byte_expr(offset) if allowed is None or offset in allowed else None

    def _finish(self, input_len):
        return PathCondition(self._constraints, input_len, self._truncated)

    def _join_bin(self, binop, sa, sb, a, b):
        return make_bin(binop, sa if sa is not None else a, sb if sb is not None else b)

    def _join_un(self, unop, sa):
        return make_un(unop, sa)

    def _store_indexed(self, arr, idx, shadow):
        # The write could land in any cell under other inputs: every
        # expression for this array is now stale.
        self._cells.pop(arr.array_id, None)

    def _steer_branch(self, site, taken_dst, cond, expr):
        if len(self._constraints) >= self._max_constraints:
            self._truncated = True
            return
        self._constraints.append(
            Constraint(len(self._constraints), site, taken_dst, bool(cond), expr)
        )

    # -- builtins --------------------------------------------------------------

    def _shadow_copy(self, value, vals, exprs, fname, line):
        super()._shadow_copy(value, vals, exprs, fname, line)
        dst, doff, _src, _soff, n = vals
        if exprs[1] is not None or exprs[4] is not None:
            # The written window itself depends on input bytes.
            self._cells.pop(dst.array_id, None)
        elif exprs[3] is not None and dst.array_id in self._cells:
            # Fixed window, but read from an input-dependent place.
            self._cells[dst.array_id][doff : doff + n] = [None] * n
        return None

    def _shadow_fill(self, value, vals, exprs, fname, line):
        super()._shadow_fill(value, vals, exprs, fname, line)
        if exprs[1] is not None or exprs[2] is not None:
            self._cells.pop(vals[0].array_id, None)
        return None

    def _read_shadow(self, vals, exprs, width, big_endian):
        ref, off = vals[0], vals[1]
        if exprs[1] is not None:
            return None  # symbolic offset: window is input-dependent
        cells = self._cells.get(ref.array_id)
        if cells is None:
            return None
        storage = self._heap.storage(ref)
        indices = range(off, off + width)
        if not big_endian:
            indices = reversed(indices)
        acc = None
        symbolic = False
        for index in indices:
            cell = cells[index]
            if cell is None:
                byte = storage[index] & 0xFF
            else:
                symbolic = True
                byte = make_bin(OP_AND, cell, 255)
                if byte is None:
                    return None  # node cap: degrade to concrete
            if acc is None:
                acc = byte
            else:
                shifted = make_bin(OP_SHL, acc, 8)
                acc = None if shifted is None else make_bin(OP_OR, shifted, byte)
                if acc is None:
                    return None
        return acc if symbolic else None
