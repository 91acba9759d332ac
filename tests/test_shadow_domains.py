"""Each shadow domain's propagation rules, one hand-built CFG per rule.

The programs are built directly as :class:`~repro.cfg.graph.FunctionCFG`
blocks, so every test exercises exactly one rule of the shared shadow loop
(:class:`repro.runtime.shadow.ShadowExec`) under both domains: taint labels
(:class:`repro.taint.TaintExec`) and symbolic expressions
(:class:`repro.analysis.symbolic.ConcolicExec`).  Every run also checks the
mirroring contract: the shadow run's ExecutionResult equals a plain run's.
"""

import pytest

from repro.analysis.symbolic import ConcolicExec, format_expr
from repro.cfg.graph import FunctionCFG
from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BR,
    BUILTIN,
    CALL,
    CONST,
    JMP,
    LOAD,
    RET,
    STORE,
    UN,
    UNOPS,
)
from repro.cfg.program import ProgramCFG
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime import traps
from repro.runtime.interpreter import execute
from repro.runtime.shadow import ShadowExec
from repro.taint import TaintExec

ADD, LT, GT, EQ, AND = (BINOPS[op] for op in ("+", "<", ">", "==", "&"))
DIV, SHL = BINOPS["/"], BINOPS["<<"]
NEG = UNOPS["-"]
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


def _key(result):
    trap = result.trap and (result.trap.kind, result.trap.line)
    return result.retval, trap, result.instr_count, result.hits, result.cmp_log


def _run(program, data):
    """(taint result, TaintMap, concolic result, PathCondition) of one input."""
    plain = execute(program, data, cmplog=True)
    result, tmap = TaintExec(program, None, cmplog=True).run(data)
    sym_result, condition = ConcolicExec(program, None, cmplog=True).run(data)
    assert _key(result) == _key(plain)
    assert _key(sym_result) == _key(plain)
    return result, tmap, sym_result, condition


def _exprs(condition):
    return [format_expr(c.expr) for c in condition]


def _branch(cond, *instrs):
    """main: ``instrs``, then branch on ``cond`` to two returning blocks."""
    return [(list(instrs), (BR, cond, 1, 2)), ([], (RET, -1)), ([], (RET, -1))]


def test_bin_and_un_join_operand_shadows():
    # r5 = -(input[0] + input[1]); r7 = r5 + 7; branch on r7 < 0.
    program = _program(
        (
            "main",
            1,
            9,
            _branch(
                8,
                (CONST, 1, 0),
                (CONST, 2, 1),
                (LOAD, 3, 0, 1, 1),
                (LOAD, 4, 0, 2, 1),
                (BIN, ADD, 5, 3, 4, 1),
                (UN, NEG, 5, 5),
                (CONST, 6, 7),
                (BIN, ADD, 7, 5, 6, 2),
                (CONST, 6, 0),
                (BIN, LT, 8, 7, 6, 3),
            ),
        )
    )
    _, tmap, _, condition = _run(program, b"\x01\x02")
    site = tmap.cmp_sites[("main", 3, LT)]
    assert (site.mask_a, site.mask_b) == ({0, 1}, set())
    assert _exprs(condition) == ["((-(byte[0] + byte[1]) + 7) < 0)"]


def test_clean_operands_stay_clean():
    program = _program(
        (
            "main",
            1,
            4,
            _branch(3, (CONST, 1, 2), (CONST, 2, 3), (BIN, LT, 3, 1, 2, 1)),
        )
    )
    _, tmap, _, condition = _run(program, b"\x05")
    assert tmap.cmp_sites[("main", 1, LT)].mask() == set()
    assert tmap.control == frozenset()
    assert len(condition) == 0


@pytest.mark.parametrize("index_from_input", [False, True])
def test_load_with_shadowed_index(index_from_input):
    # k = input[0] & 1 (or a constant 1); branch on input[k] == 9.
    k = (
        [(CONST, 1, 0), (LOAD, 2, 0, 1, 1), (CONST, 3, 1), (BIN, AND, 4, 2, 3, 1)]
        if index_from_input
        else [(CONST, 4, 1)]
    )
    program = _program(
        (
            "main",
            1,
            8,
            _branch(7, *k, (LOAD, 5, 0, 4, 2), (CONST, 6, 9), (BIN, EQ, 7, 5, 6, 3)),
        )
    )
    _, tmap, _, condition = _run(program, b"\x01\x02")
    mask = tmap.cmp_sites[("main", 3, EQ)].mask_a
    if index_from_input:
        # Taint joins the index's label; symbolic drops the loaded value.
        assert mask == {0, 1} and 0 in tmap.control
        assert _exprs(condition) == []
    else:
        assert mask == {1}
        assert _exprs(condition) == ["(byte[1] == 9)"]


@pytest.mark.parametrize("index_from_input", [False, True])
def test_store_with_shadowed_index(index_from_input):
    # buf = alloc(2); buf[0] = input[1]; buf[k] = 0; branch on buf[0] == 90,
    # where k = input[0] & 1 is 1 on this input (or a constant 1).
    k = (
        [(LOAD, 2, 0, 1, 1), (CONST, 3, 1), (BIN, AND, 4, 2, 3, 1)]
        if index_from_input
        else [(CONST, 4, 1)]
    )
    program = _program(
        (
            "main",
            1,
            10,
            _branch(
                9,
                (CONST, 1, 2),
                (BUILTIN, 5, ALLOC, (1,), 1),
                (CONST, 1, 0),
                (CONST, 6, 1),
                (LOAD, 7, 0, 6, 1),
                (STORE, 5, 1, 7, 2),
                *k,
                (STORE, 5, 4, 1, 3),
                (LOAD, 7, 5, 1, 4),
                (CONST, 8, 90),
                (BIN, EQ, 9, 7, 8, 5),
            ),
        )
    )
    _, tmap, _, condition = _run(program, b"\x01\x02")
    # Taint keeps the untouched cell's label; the index steers control.
    assert tmap.cmp_sites[("main", 5, EQ)].mask_a == {1}
    assert (0 in tmap.control) == index_from_input
    # Symbolic: the write could have hit buf[0] under another input.
    assert _exprs(condition) == ([] if index_from_input else ["(byte[1] == 90)"])


def test_call_and_ret_carry_shadows():
    # main: r2 = twice(input[2]); r3 = zero(r1); branch on r2 > r3.
    program = _program(
        (
            "main",
            1,
            5,
            _branch(
                4,
                (CONST, 1, 2),
                (LOAD, 1, 0, 1, 1),
                (CALL, 2, 1, (1,), 2),
                (CALL, 3, 2, (1,), 3),
                (BIN, GT, 4, 2, 3, 4),
            ),
        ),
        ("twice", 1, 2, [([(BIN, ADD, 1, 0, 0, 10)], (RET, 1))]),
        ("zero", 1, 1, [([], (RET, -1))]),
    )
    _, tmap, _, condition = _run(program, b"\x00\x00\x03")
    site = tmap.cmp_sites[("main", 4, GT)]
    assert (site.mask_a, site.mask_b) == ({2}, set())
    assert _exprs(condition) == ["((byte[2] + byte[2]) > 0)"]


def test_branch_observer():
    # b0 branches on a constant, b1 on input[0] to one target both ways.
    program = _program(
        (
            "main",
            1,
            3,
            [
                ([(CONST, 1, 1)], (BR, 1, 1, 2)),
                ([(CONST, 2, 0), (LOAD, 2, 0, 2, 1)], (BR, 2, 2, 2)),
                ([], (JMP, 3)),
                ([], (RET, -1)),
            ],
        )
    )
    _, tmap, _, condition = _run(program, b"\x00")
    # Taint observes every branch, clean ones with an empty mask.
    assert tmap.branch_trail == [
        (("main", 0), 1, frozenset()),
        (("main", 1), 2, frozenset({0})),
    ]
    assert tmap.control == frozenset({0})
    # Concolic records only the shadowed one, with the concrete direction.
    [constraint] = condition
    assert (constraint.site, constraint.taken_dst) == (("main", 1), 2)
    assert constraint.taken_true is False
    assert format_expr(constraint.expr) == "byte[0]"


@pytest.mark.parametrize(
    "instrs, data, kind",
    [
        ([(CONST, 2, 100), (BIN, DIV, 3, 2, 1, 7)], b"\x00", traps.DIV_BY_ZERO),
        ([(CONST, 2, 1), (BIN, SHL, 3, 2, 1, 7)], b"\x40", traps.SHIFT_RANGE),
        ([(LOAD, 3, 0, 1, 7)], b"\x05", traps.OOB_READ),
    ],
)
def test_trapping_operand_reaches_control(instrs, data, kind):
    # r1 = input[0] is the divisor, shift amount or index, and it traps.
    program = _program(
        (
            "main",
            1,
            4,
            [([(CONST, 1, 0), (LOAD, 1, 0, 1, 1), *instrs], (RET, 3))],
        )
    )
    result, tmap, _, condition = _run(program, data)
    assert (result.trap.kind, result.trap.line) == (kind, 7)
    assert tmap.control == frozenset({0})
    assert len(condition) == 0


def test_empty_domain_mirrors_plain_run():
    program = _program(
        (
            "main",
            1,
            4,
            _branch(3, (CONST, 1, 0), (LOAD, 2, 0, 1, 1), (BIN, LT, 3, 2, 1, 1)),
        )
    )
    result, artifact = ShadowExec(program, None, 1000, 8, True).run(b"\x07")
    assert _key(result) == _key(execute(program, b"\x07", cmplog=True))
    assert artifact is None
