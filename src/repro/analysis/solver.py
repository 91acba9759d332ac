"""A bounded constraint solver for flipping branch conditions.

No external SMT: the solver works on the small expression language of
:mod:`repro.analysis.symbolic` with **interval-split search**.  To flip a
constraint it maintains one byte-range domain per supporting input byte
(starting at ``[0, 255]``), repeatedly bisecting the widest domain, and
prunes whole subdomains with the interval evaluator: if the target
expression's interval over a subdomain cannot reach the desired truth
value — or forces some *prefix* constraint off its recorded direction —
no assignment inside that subdomain can work, and the subtree dies
without enumeration.  Pruning is sound because
:func:`~repro.analysis.symbolic.interval_expr` over-approximates every
non-trapping evaluation.

At fully-singleton leaves the candidate is checked *concretely* with
:func:`~repro.analysis.symbolic.eval_expr` (VM-exact semantics, traps
reject), so no imprecision anywhere above can produce a false witness.
Callers still replay witnesses through the real interpreter — the solver
only predicts; the fuzzer's queue only trusts executions.

Search order is deterministic and minimal-perturbation: the half of a
bisected domain containing the *original* byte value is explored first,
so the first witness found tends to differ from the seed input in as few
byte values as possible.
"""

from repro.analysis.interval import Interval
from repro.analysis.symbolic import (
    _BIN as _SYM_BIN,
    SymExpr,
    eval_expr,
    interval_expr,
    match_byte_fold,
)
from repro.cfg.instructions import OP_EQ, OP_NE

DEFAULT_MAX_BYTES = 4
DEFAULT_NODE_BUDGET = 4096


class SolveStats:
    """Counters for one :func:`solve_flip` attempt."""

    __slots__ = ("nodes", "evals", "solved", "support_bytes", "gave_up")

    def __init__(self):
        self.nodes = 0
        self.evals = 0
        self.solved = False
        self.support_bytes = 0
        self.gave_up = False

    def clock_cost(self):
        """A deterministic virtual cost for the fuzzer's clock."""
        return self.nodes * 2 + self.evals * 8


def apply_witness(data, assignment):
    """Return ``data`` with the witness's byte assignment applied."""
    out = bytearray(data)
    for offset, value in assignment.items():
        out[offset] = value & 0xFF
    return bytes(out)


def _direct_equality(constraint, want_true, data, active, stats):
    """Solve ``fold ==/!= const`` by byte assignment; None to fall back."""
    expr = constraint.expr
    if (
        not isinstance(expr, SymExpr)
        or expr.kind != _SYM_BIN
        or expr.op not in (OP_EQ, OP_NE)
    ):
        return None
    # Want the *equality* to hold: EQ flipped to true, or NE flipped to
    # false.  Inequalities are easy for the search; don't shortcut them.
    if not ((expr.op == OP_EQ) == want_true):
        return None
    lhs, rhs = expr.a, expr.b
    if isinstance(lhs, int):
        lhs, rhs = rhs, lhs
    if not isinstance(rhs, int):
        return None
    offsets = match_byte_fold(lhs)
    if offsets is None or len(set(offsets)) != len(offsets):
        return None
    width = len(offsets)
    if rhs < 0 or rhs >= 1 << (8 * width):
        return None
    assignment = {
        off: (rhs >> (8 * (width - 1 - position))) & 0xFF
        for position, off in enumerate(offsets)
    }

    def byte_at(off):
        return assignment.get(off, data[off])

    stats.evals += 1
    value = eval_expr(expr, byte_at)
    if value is None or (value != 0) != want_true:
        return None
    if any(c.holds(byte_at) is not True for c in active):
        return None
    return assignment


def solve_flip(
    constraint,
    prefix_constraints,
    data,
    max_bytes=DEFAULT_MAX_BYTES,
    node_budget=DEFAULT_NODE_BUDGET,
):
    """Find input bytes flipping ``constraint``'s branch direction.

    Searches for an assignment to the constraint's supporting bytes that
    makes its expression's truthiness ``not constraint.taken_true``
    while keeping every *prefix* constraint (those recorded earlier on
    the path whose support overlaps the changed bytes) on its recorded
    direction — so the execution plausibly still reaches the guard.

    Returns ``(assignment, stats)`` where ``assignment`` maps byte
    offsets to new values (None when unsolved).  Purely deterministic.
    """
    stats = SolveStats()
    want_true = not constraint.taken_true
    support = sorted(constraint.support())
    stats.support_bytes = len(support)
    if not support or len(support) > max_bytes:
        stats.gave_up = True
        return None, stats
    if any(off < 0 or off >= len(data) for off in support):
        stats.gave_up = True
        return None, stats
    support_set = set(support)
    active = [
        c
        for c in prefix_constraints
        if c.index < constraint.index and c.support() & support_set
    ]
    # Bytes a prefix constraint reads that we are *not* changing stay at
    # their original values: fixed singleton domains for interval pruning.
    fixed = {}
    for c in active:
        for off in c.support() - support_set:
            fixed[off] = Interval(data[off], data[off])

    # Input-to-state shortcut: an equality between a pure byte-fold read
    # (read16/read32/input[i]) and a constant is solved by assigning the
    # constant's bytes directly — no search.  The candidate still passes
    # the same concrete verification as any DFS leaf.
    direct = _direct_equality(constraint, want_true, data, active, stats)
    if direct is not None:
        stats.solved = True
        return direct, stats

    def byte_at_factory(domains):
        def byte_at(off):
            dom = domains.get(off)
            return dom.lo if dom is not None else data[off]

        return byte_at

    def viable(expr, want, lookup):
        iv = interval_expr(expr, lookup)
        if want:
            return not iv.is_zero()
        return not iv.excludes_zero()

    root = {off: Interval(0, 255) for off in support}
    stack = [root]
    while stack:
        if stats.nodes >= node_budget:
            stats.gave_up = True
            return None, stats
        stats.nodes += 1
        domains = stack.pop()
        lookup = dict(fixed)
        lookup.update(domains)
        if not viable(constraint.expr, want_true, lookup):
            continue
        pruned = False
        for c in active:
            if not viable(c.expr, c.taken_true, lookup):
                pruned = True
                break
        if pruned:
            continue
        widest = None
        width = 0
        for off in support:
            dom = domains[off]
            span = dom.hi - dom.lo
            if span > width:
                width = span
                widest = off
        if widest is None:
            # All domains are singletons: concrete VM-exact check.
            stats.evals += 1
            byte_at = byte_at_factory(domains)
            value = eval_expr(constraint.expr, byte_at)
            if value is None or (value != 0) != want_true:
                continue
            if any(c.holds(byte_at) is not True for c in active):
                continue
            stats.solved = True
            return {off: domains[off].lo for off in support}, stats
        dom = domains[widest]
        mid = (dom.lo + dom.hi) // 2
        low = Interval(dom.lo, mid)
        high = Interval(mid + 1, dom.hi)
        original = data[widest]
        # Stack is LIFO: push the preferred half (containing the original
        # byte value) last so it is explored first.
        first, second = (low, high) if low.contains(original) else (high, low)
        alt = dict(domains)
        alt[widest] = second
        stack.append(alt)
        pref = dict(domains)
        pref[widest] = first
        stack.append(pref)
    stats.gave_up = False
    return None, stats
