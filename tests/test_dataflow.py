"""Dataflow framework tests: solver, reaching defs, liveness, must-defined."""

import pytest
from hypothesis import given, settings

from repro.analysis.dataflow import (
    FORWARD,
    Liveness,
    MustDefined,
    ReachingDefinitions,
    solve,
)
from repro.cfg.analysis import reverse_postorder
from repro.cfg.graph import FunctionCFG
from repro.cfg.instructions import (
    BIN,
    BR,
    CONST,
    JMP,
    MOV,
    OP_ADD,
    OP_LT,
    RET,
    instr_def,
    instr_uses,
    term_uses,
)
from repro.cfg.lowering import lower_program
from repro.lang import check_program, compile_source, parse
from repro.subjects import all_subject_names, get_subject
from tests.genprog import programs


def diamond_cfg():
    """Entry branches on the param; each arm defines r1; arms rejoin.

        b0: br r0 ? b1 : b2
        b1: r1 = 10      ; jmp b3
        b2: r1 = 20      ; jmp b3
        b3: r2 = r1 + r0 ; ret r2
    """
    cfg = FunctionCFG("diamond", 0, 1)
    for _ in range(4):
        cfg.new_block()
    cfg.nregs = 3
    cfg.blocks[0].term = (BR, 0, 1, 2)
    cfg.blocks[1].instrs = [(CONST, 1, 10)]
    cfg.blocks[1].term = (JMP, 3)
    cfg.blocks[2].instrs = [(CONST, 1, 20)]
    cfg.blocks[2].term = (JMP, 3)
    cfg.blocks[3].instrs = [(BIN, OP_ADD, 2, 1, 0, 1)]
    cfg.blocks[3].term = (RET, 2)
    return cfg


def loop_cfg():
    """A counting loop reading its induction register across the back edge.

        b0: r1 = 0                ; jmp b1
        b1: r2 = r1 < r0          ; br r2 ? b2 : b3
        b2: r1 = r1 + r0 (reuse)  ; jmp b1
        b3: ret r1
    """
    cfg = FunctionCFG("loop", 0, 1)
    for _ in range(4):
        cfg.new_block()
    cfg.nregs = 3
    cfg.blocks[0].instrs = [(CONST, 1, 0)]
    cfg.blocks[0].term = (JMP, 1)
    cfg.blocks[1].instrs = [(BIN, OP_LT, 2, 1, 0, 2)]
    cfg.blocks[1].term = (BR, 2, 2, 3)
    cfg.blocks[2].instrs = [(BIN, OP_ADD, 1, 1, 0, 3)]
    cfg.blocks[2].term = (JMP, 1)
    cfg.blocks[3].term = (RET, 1)
    return cfg


# -- reaching definitions ----------------------------------------------------


def test_reaching_defs_join_at_merge():
    cfg = diamond_cfg()
    reaching = ReachingDefinitions().definitions_reaching_uses(cfg)
    # The use of r1 in b3 sees both arm definitions and nothing else.
    assert reaching[(3, 0, 1)] == frozenset({(1, 0), (2, 0)})
    # The use of r0 (a parameter never redefined) sees only the param site.
    assert reaching[(3, 0, 0)] == frozenset({("param", 0)})


def test_reaching_defs_kill_within_block():
    cfg = FunctionCFG("kills", 0, 0)
    cfg.new_block()
    cfg.nregs = 1
    cfg.blocks[0].instrs = [(CONST, 0, 1), (CONST, 0, 2), (MOV, 0, 0)]
    cfg.blocks[0].term = (RET, 0)
    reaching = ReachingDefinitions().definitions_reaching_uses(cfg)
    # The MOV's read of r0 sees only the second CONST (the first is killed).
    assert reaching[(0, 2, 0)] == frozenset({(0, 1)})


def test_reaching_defs_flow_around_loop():
    cfg = loop_cfg()
    reaching = ReachingDefinitions().definitions_reaching_uses(cfg)
    # In the header, r1 may come from the init or from the latch update.
    assert reaching[(1, 0, 1)] == frozenset({(0, 0), (2, 0)})


# -- liveness ----------------------------------------------------------------


def test_liveness_keeps_loop_carried_register():
    cfg = loop_cfg()
    result = solve(cfg, Liveness())
    # r1 is live at the latch exit (read by the header next iteration).
    assert 1 in result.exit[2]
    # Nothing is dead in this function.
    assert Liveness().dead_writes(cfg) == []


def test_dead_write_detected():
    cfg = FunctionCFG("deadwrite", 0, 1)
    cfg.new_block()
    cfg.nregs = 3
    cfg.blocks[0].instrs = [(CONST, 1, 5), (CONST, 2, 7), (MOV, 1, 0)]
    cfg.blocks[0].term = (RET, 1)
    dead = Liveness().dead_writes(cfg)
    # CONST r1,5 is overwritten before any read; CONST r2,7 is never read.
    assert (0, 0) in dead
    assert (0, 1) in dead
    assert (0, 2) not in dead  # the MOV feeds the RET


def test_branch_condition_counts_as_use():
    cfg = diamond_cfg()
    result = solve(cfg, Liveness())
    assert 0 in result.entry[0]  # the param feeds the entry branch


# -- must-defined ------------------------------------------------------------


def test_must_defined_accepts_both_arm_definition():
    assert MustDefined().undefined_uses(diamond_cfg()) == []


def test_must_defined_rejects_one_arm_definition():
    cfg = diamond_cfg()
    cfg.blocks[2].instrs = []  # drop the false-arm definition of r1
    problems = MustDefined().undefined_uses(cfg)
    assert (3, 0, 1) in problems


def test_must_defined_sees_loop_init():
    assert MustDefined().undefined_uses(loop_cfg()) == []


def test_must_defined_terminator_use():
    cfg = FunctionCFG("retuse", 0, 0)
    cfg.new_block()
    cfg.nregs = 1
    cfg.blocks[0].term = (RET, 0)  # r0 never written, no params
    assert MustDefined().undefined_uses(cfg) == [(0, 0, 0)]


# -- whole-program properties ------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(programs())
def test_compiled_programs_are_fully_defined(source):
    program = compile_source(source)
    for cfg in program.funcs:
        assert MustDefined().undefined_uses(cfg) == []


@settings(max_examples=40, deadline=None)
@given(programs())
def test_liveness_entry_needs_only_params(source):
    # At function entry only parameters may be live: anything else would be
    # a use-before-def, which the verifier guarantees cannot happen.
    program = compile_source(source)
    for cfg in program.funcs:
        live_in = solve(cfg, Liveness()).entry[0]
        assert all(reg < cfg.nparams for reg in live_in)


# -- reference oracle ----------------------------------------------------------
#
# A naive solve: every block in turn, one instruction at a time, until no
# state changes.  It follows the solver's contract: the entry block keeps
# the boundary state, a block without predecessors (forward) or successors
# (backward) keeps its starting state.  ``MustDefined.undefined_uses`` uses
# per-block masks and walks only suspect blocks; it must list exactly the
# problems a walk of every instruction over this solve lists.


def _reference_solve(cfg, analysis):
    preds = cfg.predecessors()
    forward = analysis.direction == FORWARD

    def across(block, state):
        if forward:
            for instr in block.instrs:
                state = analysis.transfer_instr(instr, state)
            return analysis.transfer_term(block.term, state)
        state = analysis.transfer_term(block.term, state)
        for instr in reversed(block.instrs):
            state = analysis.transfer_instr(instr, state)
        return state

    ret_blocks = set(cfg.ret_blocks())
    start = {}
    for block in cfg.blocks:
        edge = block.id == 0 if forward else block.id in ret_blocks
        start[block.id] = analysis.boundary(cfg) if edge else analysis.initial(cfg)
    done = {block.id: across(block, start[block.id]) for block in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            sources = preds[block.id] if forward else cfg.successors(block.id)
            if (forward and block.id == 0) or not sources:
                continue
            state = done[sources[0]]
            for other in sources[1:]:
                state = analysis.join(state, done[other])
            start[block.id] = state
            result = across(block, state)
            if result != done[block.id]:
                done[block.id] = result
                changed = True
    if forward:
        return start, done
    return done, start


def _reference_undefined_uses(cfg):
    entry, _ = _reference_solve(cfg, MustDefined())
    problems = []
    for block in cfg.blocks:
        defined = entry[block.id]
        for index, instr in enumerate(block.instrs):
            for reg in instr_uses(instr):
                if reg < 0 or not (defined >> reg) & 1:
                    problems.append((block.id, index, reg))
            dst = instr_def(instr)
            if dst is not None:
                defined |= 1 << dst
        for reg in term_uses(block.term):
            if reg < 0 or not (defined >> reg) & 1:
                problems.append((block.id, len(block.instrs), reg))
    return problems


def _lowered_functions(name):
    program_ast = parse(get_subject(name).source)
    check_program(program_ast)
    return lower_program(program_ast, name).funcs


def _clone(cfg):
    copy = FunctionCFG(cfg.name, cfg.index, cfg.nparams)
    copy.nregs = cfg.nregs
    for block in cfg.blocks:
        clone = copy.new_block()
        clone.instrs = list(block.instrs)
        clone.term = block.term
    return copy


MUTANTS_PER_FUNCTION = 6


def _definition_removed(cfg):
    """Copies of ``cfg``, each missing one definition: every definition in
    turn, at a stride that spreads at most MUTANTS_PER_FUNCTION of them
    over the function."""
    sites = [
        (block.id, index)
        for block in cfg.blocks
        for index, instr in enumerate(block.instrs)
        if instr_def(instr) is not None
    ]
    stride = max(1, -(-len(sites) // MUTANTS_PER_FUNCTION))
    for block_id, index in sites[::stride]:
        mutant = _clone(cfg)
        del mutant.blocks[block_id].instrs[index]
        yield mutant


@pytest.mark.parametrize("name", all_subject_names())
def test_undefined_uses_match_the_reference_walk(name):
    # One instance for every function: nothing may leak between solves.
    analysis = MustDefined()
    found = 0
    for stage in (_lowered_functions(name), get_subject(name).program.funcs):
        for cfg in stage:
            assert analysis.undefined_uses(cfg) == _reference_undefined_uses(cfg)
            for mutant in _definition_removed(cfg):
                problems = analysis.undefined_uses(mutant)
                assert problems == _reference_undefined_uses(mutant), mutant.name
                found += bool(problems)
    assert found  # some removed definition was one a use needed


def test_undefined_uses_report_negative_registers():
    cfg = diamond_cfg()
    cfg.blocks[1].instrs.append((MOV, 2, -1))
    cfg.blocks[3].term = (RET, -2)
    assert MustDefined().undefined_uses(cfg) == [(1, 1, -1), (3, 1, -2)]
    assert MustDefined().undefined_uses(cfg) == _reference_undefined_uses(cfg)


def test_must_defined_plain_solve_walks_instructions():
    # The instance has just solved another function with its gen table;
    # a plain solve afterwards must not see that table.
    analysis = MustDefined()
    analysis.undefined_uses(diamond_cfg())
    cfg = loop_cfg()
    result = solve(cfg, analysis)
    entry, exit_states = _reference_solve(cfg, MustDefined())
    assert (result.entry, result.exit) == (entry, exit_states)


@pytest.mark.parametrize("name", all_subject_names())
def test_liveness_matches_the_reference_solve(name):
    for cfg in get_subject(name).program.funcs:
        # Optimized functions have no unreachable blocks, so the worklist
        # visits every block the reference visits.
        assert len(reverse_postorder(cfg)) == len(cfg.blocks)
        result = solve(cfg, Liveness())
        assert (result.entry, result.exit) == _reference_solve(cfg, Liveness())
