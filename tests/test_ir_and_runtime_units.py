"""Unit tests for the small infrastructure modules: instruction formatting,
graph/program validation, virtual clock, values, heap."""

import pytest

from repro.cfg.block import BasicBlock
from repro.cfg.graph import FunctionCFG
from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BR,
    CALL,
    CONST,
    JMP,
    LOAD,
    MOV,
    RET,
    STORE,
    format_instr,
    format_term,
)
from repro.cfg.program import ProgramCFG
from repro.fuzzer.clock import TICKS_PER_HOUR, VirtualClock, hours_to_ticks
from repro.lang import compile_source
from repro.runtime.memory import MAX_ALLOC, Heap
from repro.runtime.values import ArrayRef, wrap_int


# -- instruction formatting -------------------------------------------------


def test_format_instr_variants():
    assert format_instr((CONST, 1, 42)) == "r1 = 42"
    assert format_instr((MOV, 1, 2)) == "r1 = r2"
    assert "r2 = r3 + r4" in format_instr((BIN, BINOPS["+"], 2, 3, 4, 7))
    assert "line 9" in format_instr((LOAD, 1, 2, 3, 9))
    assert "line 9" in format_instr((STORE, 1, 2, 3, 9))
    assert "call f5" in format_instr((CALL, 1, 5, (2, 3), 4))


def test_format_instr_rejects_unknown():
    with pytest.raises(ValueError):
        format_instr((99, 1, 2))


def test_format_term_variants():
    assert format_term((JMP, 3)) == "jmp b3"
    assert format_term((BR, 1, 2, 3)) == "br r1 ? b2 : b3"
    assert format_term((RET, -1)) == "ret"
    assert format_term((RET, 5)) == "ret r5"


# -- blocks and graphs --------------------------------------------------------


def test_block_successors():
    block = BasicBlock(0)
    block.term = (BR, 1, 2, 3)
    assert block.successors() == (2, 3)
    block.term = (BR, 1, 2, 2)  # identical targets collapse
    assert block.successors() == (2,)
    block.term = (RET, -1)
    assert block.successors() == ()


def test_block_pretty_lists_instructions():
    block = BasicBlock(4)
    block.instrs.append((CONST, 0, 1))
    block.term = (RET, 0)
    text = block.pretty()
    assert text.startswith("b4:")
    assert "r0 = 1" in text


def test_cfg_validate_rejects_unterminated():
    cfg = FunctionCFG("f", 0, 0)
    cfg.new_block()
    with pytest.raises(ValueError):
        cfg.validate()


def test_cfg_validate_rejects_bad_target():
    cfg = FunctionCFG("f", 0, 0)
    block = cfg.new_block()
    block.term = (JMP, 7)
    with pytest.raises(ValueError):
        cfg.validate()


def test_cfg_validate_requires_return():
    cfg = FunctionCFG("f", 0, 0)
    a = cfg.new_block()
    a.term = (JMP, 0)
    with pytest.raises(ValueError):
        cfg.validate()


def test_program_func_lookup_and_stats():
    program = compile_source(
        "fn helper(x) { return x + 1; } fn main(input) { return helper(2); }"
    )
    assert program.func("helper").name == "helper"
    stats = program.stats()
    assert stats["functions"] == 2
    assert stats["edges"] == len(program.all_edges())


def test_program_pretty_contains_all_functions():
    program = compile_source(
        "fn helper(x) { return x; } fn main(input) { return helper(1); }"
    )
    text = program.pretty()
    assert "fn helper" in text and "fn main" in text


def test_program_requires_main():
    cfg = FunctionCFG("f", 0, 1)
    block = cfg.new_block()
    block.term = (RET, -1)
    program = ProgramCFG([cfg], [])
    with pytest.raises(ValueError):
        program.validate()


# -- virtual clock -------------------------------------------------------------


def test_clock_budget_lifecycle():
    clock = VirtualClock(100)
    assert not clock.expired()
    assert clock.remaining() == 100
    clock.charge(60)
    assert clock.remaining() == 40
    clock.charge(60)
    assert clock.expired()
    assert clock.remaining() == 0


def test_hours_to_ticks_scaling():
    assert hours_to_ticks(1) == TICKS_PER_HOUR
    assert hours_to_ticks(2, 0.5) == TICKS_PER_HOUR
    assert hours_to_ticks(0.5, 1.0) == TICKS_PER_HOUR // 2


# -- values and heap --------------------------------------------------------------


def test_wrap_int_boundaries():
    assert wrap_int(2 ** 63 - 1) == 2 ** 63 - 1
    assert wrap_int(2 ** 63) == -(2 ** 63)
    assert wrap_int(-(2 ** 63) - 1) == 2 ** 63 - 1
    assert wrap_int(2 ** 64) == 0


def test_heap_alloc_and_bounds():
    heap = Heap()
    ref = heap.alloc(4)
    assert heap.length(ref) == 4
    assert heap.storage(ref) == [0, 0, 0, 0]
    assert heap.alloc(-1) is None
    assert heap.alloc(MAX_ALLOC + 1) is None


def test_an_input_over_max_alloc_is_placed_not_allocated():
    """The harness places the input directly: ``MAX_ALLOC`` limits the
    program's ``alloc``, not the input.  Taint tracking is left out: its
    per-byte labels are bitsets, so labelling n input bytes builds O(n**2)
    bits.  Concolic extraction runs the same ``ShadowExec.run``."""
    from repro.analysis.symbolic import extract_path_condition
    from repro.coverage.feedback import feedback_by_name
    from repro.runtime.compiler import compile_program
    from repro.runtime.interpreter import execute
    from tests.executors import outcome

    program = compile_source("fn main(input) { return len(input); }")
    instrumentation = feedback_by_name("edge").instrument(program)
    compiled = compile_program(program, instrumentation)
    data = bytes(MAX_ALLOC + 1)
    want = execute(program, data, instrumentation)
    assert want.retval == MAX_ALLOC + 1
    for result in (
        compiled.execute(data),
        extract_path_condition(program, data, instrumentation=instrumentation)[0],
    ):
        assert outcome(result) == outcome(want)


def test_heap_string_pool_is_readonly():
    heap = Heap([b"AB"])
    ref = heap.string_ref(0)
    assert heap.is_readonly(ref)
    assert heap.snapshot_bytes(ref) == b"AB"
    fresh = heap.alloc(2)
    assert not heap.is_readonly(fresh)


def test_array_ref_repr():
    assert "ro" in repr(ArrayRef(3, readonly=True))
    assert "rw" in repr(ArrayRef(3))
