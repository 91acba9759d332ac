"""The pure-HIT fast path equals the generic per-action path.

:meth:`~repro.coverage.feedback.Instrumentation.finalize` marks an
instrumentation pure-HIT when every probe site holds exactly one
``ACT_HIT``; the interpreter and the shadow loop then read map indices from
the edge rows and charge probes from the map after the run.  Here the same
instrumentation is rebuilt with the pure-HIT rows withheld (action-tuple
rows, flag off), which sends every probe through the per-action
accounting, and both must give field-for-field equal results on every
subject's seeds, grown inputs and bug witnesses, with cmplog off and on.
"""

import copy

import pytest

from repro.coverage.feedback import feedback_by_name
from repro.experiments.bench import grow_inputs
from repro.experiments.config import FUZZER_CONFIGS
from repro.lang import compile_source
from repro.runtime import interpreter
from repro.subjects import all_subject_names, get_subject
from repro.taint.track import taint_execute

PURE_HIT_CONFIGS = ("pcguard", "afl", "block", "taint", "concolic")
GENERIC_CONFIGS = ("path", "pathafl", "ngram4", "path2gram")


def generic_copy(instrumentation, program):
    """``instrumentation`` with action-tuple rows and the pure-HIT flag off."""
    clone = copy.copy(instrumentation)
    clone.pure_hit = False
    clone.edge_rows = []
    for func in program.funcs:
        rows = [None] * len(func.blocks)
        for (src, dst), acts in instrumentation.edge_actions[func.index].items():
            if rows[src] is None:
                rows[src] = {}
            rows[src][dst] = acts
        clone.edge_rows.append(rows)
    return clone


def result_key(result):
    trap = result.trap
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        result.retval,
        trap,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        list(result.hits.items()),
        result.cmp_log,
    )


@pytest.mark.parametrize("config", PURE_HIT_CONFIGS + GENERIC_CONFIGS)
def test_pure_hit_is_decided_per_feedback(config):
    program = get_subject("flvmeta").program
    instr = FUZZER_CONFIGS[config].feedback_factory().instrument(program)
    assert instr.pure_hit == (config in PURE_HIT_CONFIGS)
    rows = [row for func_rows in instr.edge_rows for row in func_rows if row]
    values = [value for row in rows for value in row.values()]
    assert values
    if instr.pure_hit:
        assert all(isinstance(value, int) for value in values)
    else:
        assert all(isinstance(value, tuple) for value in values)


def test_two_hits_at_one_site_are_not_pure_hit():
    program = compile_source("fn main(input) { return len(input); }")
    instr = feedback_by_name("edge").instrument(program)
    assert instr.pure_hit
    instr.add_entry_action(program.main_index, (interpreter.ACT_HIT, 7))
    assert not instr.finalize(program).pure_hit


@pytest.mark.parametrize("name", all_subject_names())
@pytest.mark.parametrize("feedback", ["edge", "block"])
def test_fast_path_equals_generic_path(name, feedback):
    subject = get_subject(name)
    program = subject.program
    fast = feedback_by_name(feedback).instrument(program)
    assert fast.pure_hit
    generic = generic_copy(fast, program)
    budget, depth = subject.exec_instr_budget, subject.call_depth_limit
    inputs = list(subject.seeds) + grow_inputs(subject)
    inputs += [bug.witness for bug in subject.bugs]
    for data in inputs:
        for cmplog in (False, True):
            limits = (budget, depth, cmplog)
            expected = interpreter.execute(program, data, generic, *limits)
            got = interpreter.execute(program, data, fast, *limits)
            assert result_key(got) == result_key(expected)
            shadow, _ = taint_execute(program, data, fast, *limits)
            assert result_key(shadow) == result_key(expected)
            shadow, _ = taint_execute(program, data, generic, *limits)
            assert result_key(shadow) == result_key(expected)
