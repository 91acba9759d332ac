"""Light middle-end cleanups run before instrumentation.

Mirrors the paper's setup, where the Ball-Larus pass runs *after* the
compiler's optimization pipeline: instrumentation sees the cleaned CFG.

Passes:

- constant folding of BIN/UN over locally known constants (per block);
- jump threading: empty blocks whose only job is ``jmp`` are bypassed;
- unreachable-block pruning + dense renumbering.

All passes preserve observable behaviour (including trap sites, which are
never folded away).
"""

from repro.analysis.foldops import fold_binop, fold_unop
from repro.cfg.instructions import (
    BIN,
    BR,
    CONST,
    JMP,
    MOV,
    UN,
    instr_def,
)
from repro.cfg.graph import remap_targets


def optimize_program(program):
    """Run all cleanup passes over every function of ``program`` in place."""
    for func in program.funcs:
        fold_constants(func)
        thread_jumps(func)
        prune_unreachable(func)


def fold_constants(cfg):
    """Per-block forward constant folding (conservative, no cross-block info).

    Division and modulo are never folded: a constant zero divisor must still
    trap at run time with its original site.  Shifts are folded only for
    in-range shift amounts.
    """
    for block in cfg.blocks:
        known = {}
        new_instrs = []
        for instr in block.instrs:
            op = instr[0]
            if op == CONST:
                known[instr[1]] = instr[2]
                new_instrs.append(instr)
                continue
            if op == MOV:
                if instr[2] in known:
                    known[instr[1]] = known[instr[2]]
                    new_instrs.append((CONST, instr[1], known[instr[2]]))
                    continue
                known.pop(instr[1], None)
                new_instrs.append(instr)
                continue
            if op == BIN and instr[3] in known and instr[4] in known:
                folded = fold_binop(instr[1], known[instr[3]], known[instr[4]])
                if folded is not None:
                    known[instr[2]] = folded
                    new_instrs.append((CONST, instr[2], folded))
                    continue
                known.pop(instr[2], None)
                new_instrs.append(instr)
                continue
            if op == UN and instr[3] in known:
                folded = fold_unop(instr[1], known[instr[3]])
                known[instr[2]] = folded
                new_instrs.append((CONST, instr[2], folded))
                continue
            dst = instr_def(instr)
            if dst is not None:
                known.pop(dst, None)
            new_instrs.append(instr)
        block.instrs = new_instrs


def thread_jumps(cfg):
    """Bypass empty blocks whose terminator is an unconditional jump.

    A block is bypassable when it has no instructions and ends in ``jmp``.
    Chains are followed to a fixed point (with cycle protection: a
    self-reaching chain, i.e. an empty infinite loop, is left alone).  A
    ``br`` whose resolved true and false targets coincide degenerates into a
    ``jmp`` — reading the (side-effect-free) condition register is the only
    thing dropped — which lets later pruning and the Ball-Larus DAG see one
    edge instead of a fake two-way branch.
    """
    forward = {}
    for block in cfg.blocks:
        if not block.instrs and block.term is not None and block.term[0] == JMP:
            forward[block.id] = block.term[1]

    def resolve(block_id):
        seen = set()
        while block_id in forward and block_id not in seen:
            seen.add(block_id)
            block_id = forward[block_id]
        return block_id

    for block in cfg.blocks:
        term = block.term
        if term is None:
            continue
        if term[0] == JMP:
            block.term = (JMP, resolve(term[1]))
        elif term[0] == BR:
            true_target = resolve(term[2])
            false_target = resolve(term[3])
            if true_target == false_target:
                block.term = (JMP, true_target)
            else:
                block.term = (BR, term[1], true_target, false_target)


def prune_unreachable(cfg):
    """Drop unreachable blocks and renumber the survivors densely."""
    reachable = set()
    stack = [0]
    while stack:
        block_id = stack.pop()
        if block_id in reachable:
            continue
        reachable.add(block_id)
        stack.extend(cfg.blocks[block_id].successors())
    keep = [b for b in cfg.blocks if b.id in reachable]
    mapping = {block.id: new_id for new_id, block in enumerate(keep)}
    for block in keep:
        block.id = mapping[block.id]
    cfg.blocks = keep
    remap_targets(cfg, mapping)
