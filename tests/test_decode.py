"""The decoded form that the interpreter and the shadow loop run.

:func:`repro.runtime.interpreter.decode` folds CONSTs into constant slots,
forwards MOVs into the instruction that computed their source, fuses a
block-final compare into the BR that reads its result, and gives each BIN
operator its own opcode.  Each case below is a hand-built CFG
(in the style of ``tests/test_shadow_domains.py``) that exercises one
rewrite, asserts what the decode did to it, and runs it through every
executor: the interpreter, taint tracking and concolic extraction run the
decoded form, and the compiled backend runs code generated from the
IR.  They must agree on retval, trap kind,
detail, line and stack, ``instr_count``, probe totals and map.
"""

import pytest

from repro.cfg.graph import FunctionCFG
from repro.analysis.dataflow import Liveness, solve
from repro.analysis.symbolic import ConcolicExec, format_expr
from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BR,
    BUILTIN,
    CALL,
    COMPARISON_OPS,
    CONST,
    JMP,
    LOAD,
    MOV,
    RET,
    STORE,
)
from repro.cfg.program import ProgramCFG
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime import traps
from repro.runtime.interpreter import (
    BIN_BASE,
    BRC_BASE,
    DEFAULT_INSTR_BUDGET,
    _program_forms,
    decode,
    execute,
)
from repro.subjects import get_subject, subject_names
from repro.taint.track import TaintExec
from tests.executors import outcome, run_all_executors

ADD, DIV, EQ = BINOPS["+"], BINOPS["/"], BINOPS["=="]
LT, NE = BINOPS["<"], BINOPS["!="]
ALLOC = BUILTIN_CODES["alloc"]


def _function(name, index, nparams, nregs, blocks):
    cfg = FunctionCFG(name, index, nparams)
    cfg.nregs = nregs
    for instrs, term in blocks:
        block = cfg.new_block()
        block.instrs.extend(instrs)
        block.term = term
    return cfg


def _program(*functions):
    """ProgramCFG from ``(name, nparams, nregs, blocks)`` specs; main first."""
    cfgs = [_function(name, i, *spec) for i, (name, *spec) in enumerate(functions)]
    program = ProgramCFG(cfgs, [])
    program.validate()
    return program


def _decoded(program, name="main"):
    """(template, [(cost, instrs, term)]) of one function."""
    _, template, blocks = decode(program.func(name))
    return template, blocks


def _ops(instrs):
    return [ins[0] for ins in instrs]


def _slot(template, func, reg, value):
    """Assert ``reg`` is a constant slot of ``func`` holding ``value``."""
    assert reg >= func.nregs and template[reg] == value


# -- constant slots --------------------------------------------------------------


def _folded_everywhere():
    # main(input): a CONST feeds each operand kind, then BR and RET.
    return _program(
        (
            "main",
            1,
            14,
            [
                (
                    [
                        (CONST, 1, 0),
                        (LOAD, 2, 0, 1, 1),  # r2 = input[0]
                        (CONST, 3, 2),
                        (BIN, ADD, 4, 2, 3, 2),  # r4 = r2 + 2
                        (CONST, 5, 4),
                        (BUILTIN, 6, ALLOC, (5,), 3),  # r6 = alloc(4)
                        (CONST, 7, 1),
                        (STORE, 6, 7, 4, 4),  # r6[1] = r4
                        (CONST, 8, 3),
                        (CALL, 9, 1, (8, 4), 5),  # r9 = add(3, r4)
                        (CONST, 10, 1),
                    ],
                    (BR, 10, 1, 2),
                ),
                ([(CONST, 11, 5), (BIN, EQ, 12, 2, 11, 6)], (BR, 12, 2, 3)),
                ([], (RET, 9)),
                ([(CONST, 13, 9)], (RET, 13)),
            ],
        ),
        ("add", 2, 3, [([(BIN, ADD, 2, 0, 1, 9)], (RET, 2))]),
    )


@pytest.mark.parametrize("data, retval", [(b"\x05\x00", 10), (b"\x01\x00", 9)])
def test_consts_fold_into_every_operand(data, retval):
    program = _folded_everywhere()
    func = program.func("main")
    template, blocks = _decoded(program)
    (_, entry, br_term), (_, cmp_block, cmp_term), _, (_, ret_instrs, ret_term) = blocks
    assert CONST not in _ops(entry) and cmp_block == ()
    assert ret_instrs == ()
    load, add, alloc, store, call = entry
    _slot(template, func, load[3], 0)
    _slot(template, func, add[4], 2)
    _slot(template, func, alloc[3][0], 4)
    _slot(template, func, store[2], 1)
    _slot(template, func, call[3][0], 3)
    _slot(template, func, br_term[1], 1)
    _slot(template, func, cmp_term[3], 5)  # the fused compare's right operand
    _slot(template, func, ret_term[1], 9)
    # One slot per distinct constant: 1 feeds both the STORE and the BR.
    assert template[func.nregs :] == [0, 2, 4, 1, 3, 5, 9]
    assert run_all_executors(program, data).retval == retval


def test_const_live_out_of_its_block_is_kept():
    # r1 = 6 reaches b1's RET, so it is dispatched; r2 = 1 is folded.
    program = _program(
        (
            "main",
            1,
            4,
            [
                ([(CONST, 1, 6), (CONST, 2, 1), (BIN, ADD, 3, 1, 2, 1)], (JMP, 1)),
                ([(BIN, ADD, 3, 3, 1, 2)], (RET, 3)),
            ],
        )
    )
    _, blocks = _decoded(program)
    entry = blocks[0][1]
    assert entry[0] == (CONST, 1, 6)
    assert _ops(entry) == [CONST, BIN_BASE + ADD]
    assert run_all_executors(program).retval == 13


def test_const_redefined_later_in_its_block():
    # The first r1 = 2 is folded: r1 is written again before the block
    # ends.  The second, r1 = 10, is live out and stays.
    program = _program(
        (
            "main",
            1,
            4,
            [
                (
                    [
                        (CONST, 1, 2),
                        (BIN, ADD, 1, 1, 1, 1),  # reads the folded 2, writes r1
                        (BIN, ADD, 2, 1, 1, 2),
                        (CONST, 1, 10),
                        (BIN, ADD, 3, 2, 1, 3),
                    ],
                    (JMP, 1),
                ),
                ([(BIN, ADD, 3, 3, 1, 4)], (RET, 3)),
            ],
        )
    )
    func = program.func("main")
    template, blocks = _decoded(program)
    entry = blocks[0][1]
    assert [ins for ins in entry if ins[0] == CONST] == [(CONST, 1, 10)]
    first = entry[0]
    assert first[2] == 1
    _slot(template, func, first[3], 2)
    _slot(template, func, first[4], 2)
    assert entry[1][3:5] == (1, 1)  # the BIN's r1, not the slot
    assert run_all_executors(program).retval == 28


# -- forwarded moves ---------------------------------------------------------------


def _moves(tail):
    """main: r2 = input[0] + input[0]; MOV r3, r2; then ``tail``."""
    return _program(
        (
            "main",
            1,
            6,
            [
                (
                    [
                        (CONST, 1, 0),
                        (LOAD, 1, 0, 1, 1),
                        (BIN, ADD, 2, 1, 1, 2),
                        (MOV, 3, 2),
                    ]
                    + tail[0],
                    (JMP, 1),
                ),
                (tail[1], (RET, 4)),
            ],
        )
    )


def test_mov_forwarded_when_its_source_is_dead():
    program = _moves(([(MOV, 4, 3)], []))
    _, blocks = _decoded(program)
    entry = blocks[0][1]
    # Both moves fold into the BIN, which now writes r4 directly.
    assert MOV not in _ops(entry)
    assert entry[-1] == (BIN_BASE + ADD, ADD, 4, 1, 1, 2)
    assert blocks[0][0] == 6
    assert run_all_executors(program, b"\x07").retval == 14


@pytest.mark.parametrize(
    "tail",
    [
        ([(BIN, ADD, 4, 3, 2, 3)], []),  # r2 read later in the block
        ([], [(BIN, ADD, 4, 3, 2, 3)]),  # r2 live out of the block
    ],
    ids=["read-later", "live-out"],
)
def test_mov_kept_when_its_source_is_read_later(tail):
    program = _moves(tail)
    _, blocks = _decoded(program)
    entry = blocks[0][1]
    assert (MOV, 3, 2) in entry
    assert entry[1] == (BIN_BASE + ADD, ADD, 2, 1, 1, 2)
    assert run_all_executors(program, b"\x07").retval == 28


# -- traps and timeouts in folded blocks -------------------------------------------


def _trapping(instrs):
    """main calls f(input); f runs ``instrs`` over its CONSTs and returns r1.

    f's r0 is the input ref."""
    return _program(
        ("main", 1, 2, [([(CALL, 1, 1, (0,), 1)], (RET, 1))]),
        ("f", 1, 6, [(instrs, (RET, 1))]),
    )


@pytest.mark.parametrize(
    "instrs, kind, detail",
    [
        (
            [
                (CONST, 2, 0),
                (LOAD, 3, 0, 2, 2),
                (CONST, 4, 0),
                (BIN, DIV, 1, 3, 4, 3),
            ],
            traps.DIV_BY_ZERO,
            "division by zero",
        ),
        (
            [(CONST, 2, 1), (CONST, 3, 100), (LOAD, 1, 0, 3, 3), (CONST, 4, 5)],
            traps.OOB_READ,
            "index 100 of 2",
        ),
        (
            [(CONST, 2, 1), (CONST, 3, -1), (BUILTIN, 1, ALLOC, (3,), 3)],
            traps.BAD_ALLOC,
            "alloc(-1)",
        ),
    ],
    ids=["div", "oob-read", "bad-alloc"],
)
def test_trap_in_a_folded_block(instrs, kind, detail):
    program = _trapping(instrs)
    _, blocks = _decoded(program, "f")
    assert CONST not in _ops(blocks[0][1])
    result = run_all_executors(program, b"\x01\x02")
    trap = result.trap
    assert (trap.kind, trap.detail, trap.function, trap.line) == (kind, detail, "f", 3)
    assert [(frame.function, frame.line) for frame in trap.stack] == [
        ("f", 3),
        ("main", 1),
    ]
    assert result.instr_count == 2 + len(instrs) + 1


def test_timeout_in_a_folded_loop():
    # b1 adds a folded 1 to r1 and loops while r1 is non-zero, which it
    # stays; r1's initial CONST is live out.
    program = _program(
        (
            "main",
            1,
            3,
            [
                ([(CONST, 1, 0)], (JMP, 1)),
                ([(CONST, 2, 1), (BIN, ADD, 1, 1, 2, 1)], (BR, 1, 1, 2)),
                ([], (RET, -1)),
            ],
        )
    )
    _, blocks = _decoded(program)
    assert _ops(blocks[0][1]) == [CONST]
    assert _ops(blocks[1][1]) == [BIN_BASE + ADD]
    result = run_all_executors(program)
    assert result.timeout and result.trap is None
    # Every pass over b1 is charged its 2 IR instructions plus the BR.
    assert result.instr_count == 2 + 3 * ((DEFAULT_INSTR_BUDGET - 2) // 3 + 1)


# -- fused compares ----------------------------------------------------------------


def _compare(binop, live_out=False, tail=()):
    """main: r3 = input[0] OP 5, then ``tail``, then a BR on r3 to b1
    (returns 1) or b2 (returns 2).  With ``live_out`` b1 reads r3."""
    b1 = [(MOV, 4, 3)] if live_out else []
    return _program(
        (
            "main",
            1,
            6,
            [
                (
                    [
                        (CONST, 1, 0),
                        (LOAD, 1, 0, 1, 1),
                        (CONST, 2, 5),
                        (BIN, binop, 3, 1, 2, 2),
                    ]
                    + list(tail),
                    (BR, 3, 1, 2),
                ),
                (b1 + [(CONST, 5, 1)], (RET, 5)),
                ([(CONST, 5, 2)], (RET, 5)),
            ],
        )
    )


_PY_COMPARE = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@pytest.mark.parametrize("byte", [4, 5, 6])
@pytest.mark.parametrize("symbol", sorted(_PY_COMPARE))
def test_each_compare_fuses_and_takes_both_ways(symbol, byte):
    binop = BINOPS[symbol]
    program = _compare(binop)
    template, blocks = _decoded(program)
    _, instrs, term = blocks[0]
    assert _ops(instrs) == [LOAD]
    assert term[:2] == (BRC_BASE + binop, binop)
    assert term[2] == instrs[0][1] and template[term[3]] == 5
    assert term[4:] == (2, 1, 2)
    assert blocks[0][0] == 5
    result = run_all_executors(program, bytes([byte]))
    assert result.retval == (1 if _PY_COMPARE[symbol](byte, 5) else 2)
    assert result.instr_count == 5 + 2


def test_compare_live_out_of_its_block_stays_unfused():
    program = _compare(LT, live_out=True)
    _, blocks = _decoded(program)
    _, instrs, term = blocks[0]
    assert _ops(instrs) == [LOAD, BIN_BASE + LT]
    assert term == (BR, 3, 1, 2)
    assert run_all_executors(program, b"\x04").retval == 1


@pytest.mark.parametrize(
    "last, retval",
    [((LOAD, 2, 0, 1, 1), 7), ((BIN, ADD, 2, 3, 3, 1), 14)],
    ids=["load", "add"],
)
def test_branch_on_a_non_compare_stays_unfused(last, retval):
    # main branches on r2 = input[0] (or input[0] + input[0]); b1 returns r2.
    program = _program(
        (
            "main",
            1,
            4,
            [
                ([(CONST, 1, 0), (LOAD, 3, 0, 1, 1), last], (BR, 2, 1, 2)),
                ([], (RET, 2)),
                ([], (RET, -1)),
            ],
        )
    )
    _, blocks = _decoded(program)
    assert _ops(blocks[0][1])[-1] == (LOAD if last[0] == LOAD else BIN_BASE + ADD)
    assert blocks[0][2] == (BR, 2, 1, 2)
    assert run_all_executors(program, b"\x00").retval == 0
    assert run_all_executors(program, b"\x07").retval == retval


def test_compare_before_a_folded_const_fuses():
    # r4 = 9 is dead out of b0, so it folds away and the compare is last.
    program = _compare(NE, tail=[(CONST, 4, 9)])
    _, blocks = _decoded(program)
    _, instrs, term = blocks[0]
    assert _ops(instrs) == [LOAD]
    assert term[0] == BRC_BASE + NE
    assert blocks[0][0] == 6
    result = run_all_executors(program, b"\x05")
    assert (result.retval, result.instr_count) == (2, 6 + 2)


@pytest.mark.parametrize("symbol", ["<", "<=", ">", ">="])
def test_fused_ordering_on_a_ref_traps_at_the_compare(symbol):
    # f compares its input ref against 0 at line 3.
    binop = BINOPS[symbol]
    program = _trapping([(CONST, 2, 0), (BIN, binop, 3, 0, 2, 3)])
    f = program.func("f")
    f.blocks[0].term = (BR, 3, 1, 1)
    f.new_block().term = (RET, -1)
    program.validate()
    _, blocks = _decoded(program, "f")
    assert blocks[0][1] == () and blocks[0][2][0] == BRC_BASE + binop
    result = run_all_executors(program)
    trap = result.trap
    assert (trap.kind, trap.detail, trap.function, trap.line) == (
        traps.TYPE_CONFUSION,
        "array used as integer",
        "f",
        3,
    )
    assert [(frame.function, frame.line) for frame in trap.stack] == [
        ("f", 3),
        ("main", 1),
    ]
    assert result.instr_count == 2 + 3


def test_timeout_in_a_block_ending_in_a_fused_compare():
    # b1 adds a folded 1 to r1 and loops while r1 != 0, which it stays.
    program = _program(
        (
            "main",
            1,
            5,
            [
                ([(CONST, 1, 0)], (JMP, 1)),
                (
                    [
                        (CONST, 2, 1),
                        (BIN, ADD, 1, 1, 2, 1),
                        (CONST, 3, 0),
                        (BIN, NE, 4, 1, 3, 1),
                    ],
                    (BR, 4, 1, 2),
                ),
                ([], (RET, -1)),
            ],
        )
    )
    _, blocks = _decoded(program)
    assert _ops(blocks[1][1]) == [BIN_BASE + ADD]
    assert blocks[1][2][0] == BRC_BASE + NE
    result = run_all_executors(program)
    assert result.timeout and result.trap is None
    assert result.instr_count == 2 + 5 * ((DEFAULT_INSTR_BUDGET - 2) // 5 + 1)


def _chain(live_out):
    """main branches on input[0] + input[1] < 7, then on input[0] == 65.

    b3 copies both compare results when ``live_out`` (so neither fuses)
    and two other registers otherwise: the IR lengths are the same."""
    copies = [(MOV, 8, 5), (MOV, 9, 6)] if live_out else [(MOV, 8, 1), (MOV, 9, 2)]
    return _program(
        (
            "main",
            1,
            10,
            [
                (
                    [
                        (CONST, 3, 0),
                        (LOAD, 1, 0, 3, 1),
                        (CONST, 3, 1),
                        (LOAD, 2, 0, 3, 1),
                        (BIN, ADD, 3, 1, 2, 2),
                        (CONST, 4, 7),
                        (BIN, LT, 5, 3, 4, 3),
                    ],
                    (BR, 5, 1, 2),
                ),
                ([(CONST, 7, 65), (BIN, EQ, 6, 1, 7, 4)], (BR, 6, 3, 2)),
                ([(CONST, 7, 2)], (RET, 7)),
                (copies + [(CONST, 7, 3)], (RET, 7)),
            ],
        )
    )


def _taint_key(tmap):
    sites = {
        site: (rec.bits_a, rec.bits_b, rec.hits, rec.pairs)
        for site, rec in tmap.cmp_sites.items()
    }
    return sites, tmap.branch_trail, tmap.branch_masks, tmap.control


def _condition_key(condition):
    return condition.truncated, [
        (c.index, c.site, c.taken_dst, c.taken_true, format_expr(c.expr))
        for c in condition
    ]


@pytest.mark.parametrize("data", [b"\x41\x01", b"\x41\x09", b"\x02\x01"])
def test_fused_and_unfused_compares_observe_alike(data):
    fused, unfused = _chain(False), _chain(True)
    terms = [block[2][0] for block in _decoded(fused)[1][:2]]
    assert terms == [BRC_BASE + LT, BRC_BASE + EQ]
    assert [block[2][0] for block in _decoded(unfused)[1][:2]] == [BR, BR]
    runs = []
    for program in (fused, unfused):
        result, tmap = TaintExec(program, None, cmplog=True).run(data)
        sym_result, condition = ConcolicExec(program, None, cmplog=True).run(data)
        assert outcome(sym_result) == outcome(result)
        runs.append((outcome(result), _taint_key(tmap), _condition_key(condition)))
        run_all_executors(program, data)
    assert runs[0] == runs[1]
    assert runs[0][1][0]  # the compares were seen


# -- the form itself ---------------------------------------------------------------


@pytest.mark.parametrize("name", subject_names())
def test_decoded_blocks_cost_their_ir(name):
    program = get_subject(name).program
    for func in program.funcs:
        fname, template, blocks = decode(func)
        assert fname == func.name
        assert template[: func.nregs] == [0] * func.nregs
        assert len(blocks) == len(func.blocks)
        for block, (cost, instrs, _) in zip(func.blocks, blocks):
            assert cost == len(block.instrs) + 1
            assert len(instrs) <= len(block.instrs)
            assert BIN not in _ops(instrs)


@pytest.mark.parametrize("name", subject_names())
def test_every_eligible_branch_is_fused(name):
    # A BR stays plain only when no compare right before it writes its
    # condition, or when that condition is live out of the block.
    program = get_subject(name).program
    fused = 0
    for func in program.funcs:
        live = solve(func, Liveness())
        for block, (_, instrs, term) in zip(func.blocks, decode(func)[2]):
            if term[0] >= BRC_BASE:
                fused += 1
                binop, line = term[1], term[4]
                assert term[0] == BRC_BASE + binop and binop in COMPARISON_OPS
                assert block.term[0] == BR and term[5:] == block.term[2:]
                compares = [(ins[1], ins[5]) for ins in block.instrs if ins[0] == BIN]
                assert compares[-1] == (binop, line)
            elif term[0] == BR:
                last = instrs[-1] if instrs else None
                assert (
                    last is None
                    or last[0] - BIN_BASE not in COMPARISON_OPS
                    or last[2] != term[1]
                    or term[1] in live.exit[block.id]
                )
    assert fused


def test_functions_decode_at_their_first_call_once():
    program = _program(
        ("main", 1, 2, [([(CALL, 1, 1, (), 1)], (RET, 1))]),
        ("called", 0, 1, [([(CONST, 0, 4)], (RET, 0))]),
        ("never", 0, 1, [([], (RET, -1))]),
    )
    forms = _program_forms(program)
    assert forms == [None, None, None]
    assert execute(program, b"").retval == 4
    main_form, called_form, never_form = forms
    assert main_form is not None and called_form is not None
    assert never_form is None
    execute(program, b"")
    assert forms[0] is main_form and forms[1] is called_form
    assert _program_forms(program) is forms
