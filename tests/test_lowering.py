"""AST -> CFG lowering tests."""

import pytest

from repro.cfg.instructions import BR, RET
from repro.lang import compile_source


def lower_main(body, optimize=False):
    program = compile_source("fn main(input) { %s }" % body, optimize=optimize)
    return program.func("main")


def terminator_kinds(cfg):
    return sorted(b.term[0] for b in cfg.blocks)


def test_straight_line_single_block():
    cfg = lower_main("var x = 1; var y = x + 2; return y;")
    assert len(cfg.blocks) == 1
    assert cfg.blocks[0].term[0] == RET


def test_missing_return_synthesized():
    cfg = lower_main("var x = 1;")
    assert cfg.blocks[-1].term == (RET, -1)


def test_if_produces_branch_and_join():
    cfg = lower_main("var x = 0; if (input) { x = 1; } return x;")
    assert any(b.term[0] == BR for b in cfg.blocks)
    # entry branches to then-block and join
    assert len(cfg.blocks) >= 3


def test_if_else_produces_two_arms():
    cfg = lower_main("var x = 0; if (input) { x = 1; } else { x = 2; } return x;")
    branches = [b for b in cfg.blocks if b.term[0] == BR]
    assert len(branches) == 1
    t, f = branches[0].term[2], branches[0].term[3]
    assert t != f


def test_while_creates_back_edge():
    cfg = lower_main("var i = 0; while (i < 3) { i = i + 1; } return i;")
    from repro.cfg.analysis import back_edges

    assert len(back_edges(cfg)) == 1


def test_for_desugars_with_step_block():
    cfg = lower_main("var t = 0; for (var i = 0; i < 4; i = i + 1) { t = t + i; } return t;")
    from repro.cfg.analysis import back_edges

    assert len(back_edges(cfg)) == 1


def test_break_jumps_to_exit():
    cfg = lower_main("while (1) { break; } return 7;")
    from repro.runtime import execute

    program = compile_source("fn main(input) { while (1) { break; } return 7; }")
    assert execute(program, b"").retval == 7


def test_continue_reaches_step():
    program = compile_source(
        "fn main(input) { var t = 0;"
        " for (var i = 0; i < 5; i = i + 1) { if (i == 2) { continue; } t = t + 1; }"
        " return t; }"
    )
    from repro.runtime import execute

    assert execute(program, b"").retval == 4


def test_unreachable_code_pruned():
    cfg = lower_main("return 1; ")
    assert len(cfg.blocks) == 1


def test_diverging_both_arms_prunes_join():
    cfg = lower_main("if (input) { return 1; } else { return 2; }")
    for block in cfg.blocks:
        assert block.term is not None
    # join block had no predecessors and is gone
    preds = cfg.predecessors()
    assert all(block.id == 0 or preds[block.id] for block in cfg.blocks)


def test_short_circuit_and_creates_control_flow():
    cfg = lower_main("var x = input[0] && input[1]; return x;")
    assert sum(1 for b in cfg.blocks if b.term[0] == BR) >= 2


def test_short_circuit_semantics_and():
    program = compile_source(
        "fn main(input) { if (len(input) > 0 && input[0] == 'x') { return 1; } return 0; }"
    )
    from repro.runtime import execute

    assert execute(program, b"").retval == 0  # no OOB read on empty input
    assert execute(program, b"x").retval == 1
    assert execute(program, b"y").retval == 0


def test_short_circuit_semantics_or():
    program = compile_source(
        "fn main(input) { if (len(input) == 0 || input[0] == 'x') { return 1; } return 0; }"
    )
    from repro.runtime import execute

    assert execute(program, b"").retval == 1
    assert execute(program, b"xa").retval == 1
    assert execute(program, b"ya").retval == 0


def test_not_in_condition_swaps_targets():
    program = compile_source(
        "fn main(input) { if (!(len(input) == 0)) { return 1; } return 0; }"
    )
    from repro.runtime import execute

    assert execute(program, b"a").retval == 1
    assert execute(program, b"").retval == 0


def test_dense_block_numbering():
    cfg = lower_main(
        "var t = 0; if (input) { t = 1; } while (t < 5) { t = t + 1; } return t;"
    )
    assert [b.id for b in cfg.blocks] == list(range(len(cfg.blocks)))


def test_validate_passes_on_all_lowered_functions():
    source = """
    fn helper(a, b) { if (a > b) { return a; } return b; }
    fn main(input) {
        var best = 0;
        for (var i = 0; i < len(input); i = i + 1) {
            best = helper(best, input[i]);
        }
        return best;
    }
    """
    program = compile_source(source)
    program.validate()


def test_main_arity_enforced():
    with pytest.raises(ValueError):
        compile_source("fn main(a, b) { return 0; }")


def test_missing_main_rejected():
    with pytest.raises(ValueError):
        compile_source("fn helper(a) { return a; }")


def test_string_pool_deduplicates():
    program = compile_source(
        'fn main(input) { var a = memcmp(input, 0, "AB", 0, 2);'
        ' var b = memcmp(input, 0, "AB", 0, 2); return a + b; }'
    )
    assert program.strings.count(b"AB") == 1


def test_call_lowering_argument_order():
    program = compile_source(
        "fn sub(a, b) { return a - b; } fn main(input) { return sub(10, 4); }"
    )
    from repro.runtime import execute

    assert execute(program, b"").retval == 6


def test_integer_literals_wrap_to_int64():
    """An out-of-range literal is lowered as its int64 value, so codegen
    folding (which wraps) and the interpreter (which does not re-wrap
    AND/OR/XOR/SHR or compares) see the same operand."""
    from repro.cfg.instructions import CONST
    from repro.runtime.compiler import execute as compiled_execute
    from repro.runtime.interpreter import execute as interp_execute

    cfg = lower_main("return 18446744073709551615;")
    assert (CONST, cfg.blocks[0].instrs[0][1], -1) in cfg.blocks[0].instrs
    program = compile_source(
        "fn f(a) { return a & a; } fn main(input) { return f(18446744073709551615); }"
    )
    assert interp_execute(program, b"").retval == -1
    assert compiled_execute(program, b"").retval == -1
