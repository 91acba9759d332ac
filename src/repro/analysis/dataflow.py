"""Generic worklist dataflow solver over the tuple IR.

A :class:`DataflowAnalysis` describes one problem: a direction, a lattice
(via ``join`` plus the ``boundary``/``initial`` elements), and per-
instruction transfer functions.  :func:`solve` iterates a block-level
worklist to the least fixed point and returns the per-block states at
block entry and exit.  The worklist is a heap keyed by reverse-postorder
position for forward problems and postorder position for backward ones,
so each pop takes the pending block earliest in that order.

States are opaque to the solver; the concrete analyses here use
frozensets (reaching definitions, liveness) and integer bitmasks
(must-defined registers) — registers are dense, so a bitmask join is a
single ``&``/``|``.

Concrete analyses:

- :class:`ReachingDefinitions` — forward, may; which definition sites can
  reach each program point;
- :class:`Liveness` — backward, may; which registers are live (read before
  redefinition on some path);
- :class:`MustDefined` — forward, must; which registers are written on
  *every* path from the entry (the verifier's def-before-use check).

Conditional constant propagation lives in
:mod:`repro.analysis.constprop`: its lattice needs the executable-edge
refinement that a plain block worklist does not model.
"""

from heapq import heappop, heappush

from repro.cfg.analysis import reverse_postorder
from repro.cfg.instructions import instr_def, instr_uses, term_uses

FORWARD = "forward"
BACKWARD = "backward"


class DataflowAnalysis:
    """One dataflow problem; subclass and override the hooks."""

    direction = FORWARD

    def boundary(self, cfg):
        """State at the entry (forward) or fed into every RET block exit
        (backward)."""
        raise NotImplementedError

    def initial(self, cfg):
        """Optimistic starting state for every other block."""
        raise NotImplementedError

    def join(self, a, b):
        """Combine states where control-flow paths meet."""
        raise NotImplementedError

    def transfer_instr(self, instr, state):
        """State after one instruction (in analysis direction)."""
        raise NotImplementedError

    def transfer_term(self, term, state):
        """State across the terminator; identity by default."""
        return state

    def transfer_block(self, block, state):
        """State across a whole block, in the analysis direction."""
        if self.direction == FORWARD:
            for instr in block.instrs:
                state = self.transfer_instr(instr, state)
            if block.term is not None:
                state = self.transfer_term(block.term, state)
            return state
        if block.term is not None:
            state = self.transfer_term(block.term, state)
        for instr in reversed(block.instrs):
            state = self.transfer_instr(instr, state)
        return state


class DataflowResult:
    """Fixed-point states per block.

    ``entry[b]``/``exit[b]`` are the states at the top and bottom of block
    ``b`` in *program order* regardless of analysis direction (so for a
    backward problem ``entry[b]`` is the final, most-informed state).
    """

    __slots__ = ("analysis", "entry", "exit")

    def __init__(self, analysis, entry, exit_states):
        self.analysis = analysis
        self.entry = entry
        self.exit = exit_states


def solve(cfg, analysis):
    """Run ``analysis`` over ``cfg`` to a fixed point; a DataflowResult."""
    if analysis.direction == FORWARD:
        return _solve_forward(cfg, analysis)
    return _solve_backward(cfg, analysis)


def _solve_forward(cfg, analysis):
    preds = cfg.predecessors()
    order = reverse_postorder(cfg)
    position = {b: i for i, b in enumerate(order)}
    entry = {}
    exit_states = {}
    boundary = analysis.boundary(cfg)
    for block in cfg.blocks:
        entry[block.id] = boundary if block.id == 0 else analysis.initial(cfg)
        exit_states[block.id] = analysis.transfer_block(block, entry[block.id])
    # A heap of (RPO position, block id): every pop takes the pending block
    # earliest in reverse postorder.
    worklist = list(enumerate(order))
    in_worklist = set(order)
    while worklist:
        _, block_id = heappop(worklist)
        in_worklist.discard(block_id)
        if block_id != 0:
            state = None
            for pred in preds[block_id]:
                state = (
                    exit_states[pred]
                    if state is None
                    else analysis.join(state, exit_states[pred])
                )
            if state is None:
                state = analysis.initial(cfg)
            entry[block_id] = state
        new_exit = analysis.transfer_block(cfg.blocks[block_id], entry[block_id])
        if new_exit != exit_states[block_id]:
            exit_states[block_id] = new_exit
            for succ in cfg.successors(block_id):
                if succ not in in_worklist:
                    heappush(worklist, (position[succ], succ))
                    in_worklist.add(succ)
    return DataflowResult(analysis, entry, exit_states)


def _solve_backward(cfg, analysis):
    order = list(reversed(reverse_postorder(cfg)))  # postorder
    position = {b: i for i, b in enumerate(order)}
    preds = cfg.predecessors()
    entry = {}
    exit_states = {}
    boundary = analysis.boundary(cfg)
    ret_blocks = set(cfg.ret_blocks())
    for block in cfg.blocks:
        exit_states[block.id] = (
            boundary if block.id in ret_blocks else analysis.initial(cfg)
        )
        entry[block.id] = analysis.transfer_block(block, exit_states[block.id])
    # A heap of (postorder position, block id).  A predecessor unreachable
    # from the entry has no position and goes first, as position 0.
    worklist = list(enumerate(order))
    in_worklist = set(order)
    while worklist:
        _, block_id = heappop(worklist)
        in_worklist.discard(block_id)
        succs = cfg.successors(block_id)
        if succs:
            state = None
            for succ in succs:
                state = (
                    entry[succ]
                    if state is None
                    else analysis.join(state, entry[succ])
                )
            if block_id in ret_blocks:
                state = analysis.join(state, boundary)
            exit_states[block_id] = state
        new_entry = analysis.transfer_block(
            cfg.blocks[block_id], exit_states[block_id]
        )
        if new_entry != entry[block_id]:
            entry[block_id] = new_entry
            for pred in preds[block_id]:
                if pred not in in_worklist:
                    heappush(worklist, (position.get(pred, 0), pred))
                    in_worklist.add(pred)
    return DataflowResult(analysis, entry, exit_states)


# --------------------------------------------------------------------------
# Concrete analyses
# --------------------------------------------------------------------------

PARAM_SITE = "param"


class ReachingDefinitions(DataflowAnalysis):
    """Forward may-analysis: the definition sites reaching each point.

    States are frozensets of ``(reg, site)`` where ``site`` is
    ``(block_id, instr_index)`` for an instruction definition or
    ``(PARAM_SITE, i)`` for the i-th parameter.  Per-instruction transfer:
    a write to ``r`` kills every other definition of ``r`` and gens its
    own site.  Sites are attached per block during :meth:`transfer_block`
    (the solver calls it with the block in hand).
    """

    direction = FORWARD

    def boundary(self, cfg):
        return frozenset(
            (reg, (PARAM_SITE, reg)) for reg in range(cfg.nparams)
        )

    def initial(self, cfg):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer_block(self, block, state):
        defs = set(state)
        for index, instr in enumerate(block.instrs):
            dst = instr_def(instr)
            if dst is None:
                continue
            defs = {d for d in defs if d[0] != dst}
            defs.add((dst, (block.id, index)))
        return frozenset(defs)

    def transfer_instr(self, instr, state):  # pragma: no cover - block-level
        raise NotImplementedError("ReachingDefinitions works block-at-a-time")

    def definitions_reaching_uses(self, cfg):
        """Map each use site to the definition sites that may feed it.

        Returns ``{(block_id, instr_index, reg): frozenset(sites)}``; the
        terminator uses a pseudo instr_index of ``len(block.instrs)``.
        """
        result = solve(cfg, self)
        reaching = {}
        for block in cfg.blocks:
            defs = set(result.entry[block.id])
            for index, instr in enumerate(block.instrs):
                for reg in instr_uses(instr):
                    reaching[(block.id, index, reg)] = frozenset(
                        site for r, site in defs if r == reg
                    )
                dst = instr_def(instr)
                if dst is not None:
                    defs = {d for d in defs if d[0] != dst}
                    defs.add((dst, (block.id, index)))
            if block.term is not None:
                for reg in term_uses(block.term):
                    reaching[(block.id, len(block.instrs), reg)] = frozenset(
                        site for r, site in defs if r == reg
                    )
        return reaching


class Liveness(DataflowAnalysis):
    """Backward may-analysis: registers read before redefinition.

    States are frozensets of live registers.
    """

    direction = BACKWARD

    def boundary(self, cfg):
        return frozenset()

    def initial(self, cfg):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer_instr(self, instr, state):
        dst = instr_def(instr)
        if dst is not None:
            state = state - {dst}
        uses = instr_uses(instr)
        if uses:
            state = state | frozenset(uses)
        return state

    def transfer_term(self, term, state):
        uses = term_uses(term)
        if uses:
            state = state | frozenset(uses)
        return state

    def dead_writes(self, cfg):
        """Definition sites whose value is never read: (block_id, index).

        CALL/BUILTIN destinations are excluded (the call happens for its
        side effects; an ignored result is idiomatic, not a dead store).
        """
        from repro.cfg.instructions import BUILTIN, CALL

        result = solve(cfg, self)
        dead = []
        for block in cfg.blocks:
            live = result.exit[block.id]
            if block.term is not None:
                live = self.transfer_term(block.term, live)
            trailing = []
            for index in range(len(block.instrs) - 1, -1, -1):
                instr = block.instrs[index]
                dst = instr_def(instr)
                if (
                    dst is not None
                    and dst not in live
                    and instr[0] not in (CALL, BUILTIN)
                ):
                    trailing.append((block.id, index))
                live = self.transfer_instr(instr, live)
            dead.extend(reversed(trailing))
        return dead


class MustDefined(DataflowAnalysis):
    """Forward must-analysis: registers written on every path from entry.

    States are integer bitmasks (bit ``r`` set means register ``r`` is
    definitely defined); the join is bitwise AND.  ``ALL`` (all registers)
    is the optimistic initial state so unreached joins do not pessimise.

    A block's transfer is ``state | gen``, ``gen`` holding a bit per
    register the block writes.  :meth:`undefined_uses` computes each
    block's ``gen`` once and solves with that table; a plain :func:`solve`
    walks the instructions.  The table lives for one solve only, so an
    instance can be reused across functions.
    """

    direction = FORWARD
    _gen = None

    def boundary(self, cfg):
        return (1 << cfg.nparams) - 1

    def initial(self, cfg):
        return (1 << cfg.nregs) - 1

    def join(self, a, b):
        return a & b

    def transfer_instr(self, instr, state):
        dst = instr_def(instr)
        if dst is not None:
            state |= 1 << dst
        return state

    def transfer_block(self, block, state):
        if self._gen is None:
            return DataflowAnalysis.transfer_block(self, block, state)
        return state | self._gen[block.id]

    def undefined_uses(self, cfg):
        """Uses of possibly-undefined registers.

        Returns ``[(block_id, instr_index, reg)]``; the terminator uses a
        pseudo index of ``len(block.instrs)``.  Empty on well-formed IR.

        Only a block whose upward-exposed uses are not all defined on
        entry, or that reads a negative register, is walked instruction
        by instruction to list its problems.
        """
        masks = [_def_use_masks(block) for block in cfg.blocks]
        self._gen = [gen for gen, _, _ in masks]
        try:
            result = solve(cfg, self)
        finally:
            self._gen = None
        problems = []
        for block, (_, exposed, negative) in zip(cfg.blocks, masks):
            defined = result.entry[block.id]
            if not negative and not exposed & ~defined:
                continue
            for index, instr in enumerate(block.instrs):
                for reg in instr_uses(instr):
                    if reg < 0 or not (defined >> reg) & 1:
                        problems.append((block.id, index, reg))
                defined = self.transfer_instr(instr, defined)
            if block.term is not None:
                for reg in term_uses(block.term):
                    if reg < 0 or not (defined >> reg) & 1:
                        problems.append((block.id, len(block.instrs), reg))
        return problems


def _def_use_masks(block):
    """``(gen, exposed, negative)`` for one block: the registers it writes,
    the registers it reads before writing them (terminator included), and
    whether it reads a negative register."""
    gen = exposed = 0
    negative = False
    for instr in block.instrs:
        for reg in instr_uses(instr):
            if reg < 0:
                negative = True
            elif not (gen >> reg) & 1:
                exposed |= 1 << reg
        dst = instr_def(instr)
        if dst is not None:
            gen |= 1 << dst
    if block.term is not None:
        for reg in term_uses(block.term):
            if reg < 0:
                negative = True
            elif not (gen >> reg) & 1:
                exposed |= 1 << reg
    return gen, exposed, negative
