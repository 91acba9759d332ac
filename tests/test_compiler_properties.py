"""Property tests: compiled == interpreted on random MiniC programs.

Uses the same structured program generator as the feasibility properties
(:mod:`tests.genprog`): every generated source compiles and terminates, so
each example is a full differential run across backends — return value,
trap identity, timeout, instruction count, probe accounting, coverage map,
and Ball-Larus path ids all must match.  A second property checks the
probe-pruning layer's obligations on random programs via
:func:`repro.coverage.prune.check_plan`.  A third draws programs over the
whole builtin surface (``programs(builtins=True)``) and runs every
executor on them: no Python exception may escape any of them, the
compiled variants must equal the interpreter, and taint and concolic
runs must return the plain run's result.
"""

from hypothesis import given, settings

from repro.coverage.feedback import feedback_by_name
from repro.coverage.prune import build_prune_plan, check_plan
from repro.lang import compile_source
from repro.runtime.compiler import execute as compiled_execute
from repro.runtime.interpreter import execute as interp_execute
from tests.executors import run_all_executors
from tests.genprog import programs

INPUTS = (b"", b"\x00", b"\x80", b"\xff\x01\x02\x03", bytes(range(32)))


def _result_key(result):
    trap = result.trap
    trap_key = None
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap_key = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        result.retval,
        trap_key,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        dict(result.hits),
    )


@given(programs())
@settings(max_examples=25, deadline=None)
def test_compiled_equals_interpreted_under_path_feedback(source):
    program = compile_source(source)
    instrumentation = feedback_by_name("path").instrument(program)
    for data in INPUTS:
        ref = interp_execute(program, data, instrumentation)
        got = compiled_execute(program, data, instrumentation)
        assert _result_key(got) == _result_key(ref)


@given(programs())
@settings(max_examples=15, deadline=None)
def test_compiled_equals_interpreted_under_edge_feedback(source):
    program = compile_source(source)
    instrumentation = feedback_by_name("edge").instrument(program)
    for data in INPUTS:
        ref = interp_execute(program, data, instrumentation)
        got = compiled_execute(program, data, instrumentation)
        assert _result_key(got) == _result_key(ref)


@given(programs())
@settings(max_examples=15, deadline=None)
def test_compiled_respects_tiny_budgets(source):
    program = compile_source(source)
    instrumentation = feedback_by_name("path").instrument(program)
    for budget in (1, 13, 101):
        for data in INPUTS[:3]:
            ref = interp_execute(
                program, data, instrumentation, instr_budget=budget
            )
            got = compiled_execute(
                program, data, instrumentation, instr_budget=budget
            )
            assert _result_key(got) == _result_key(ref)


@given(programs())
@settings(max_examples=15, deadline=None)
def test_prune_plan_sound_on_random_programs(source):
    program = compile_source(source)
    instrumentation = feedback_by_name("edge").instrument(program)
    plan = build_prune_plan(program, instrumentation)
    if plan is None:
        return
    # check_plan runs both backends over the inputs and raises on any
    # violated obligation (trap identity, coverage map after
    # reconstruction, accounting).
    check_plan(program, instrumentation, plan, INPUTS)


@given(programs(builtins=True))
@settings(max_examples=80, deadline=None)
def test_every_executor_agrees_on_builtin_programs(source):
    program = compile_source(source)
    for data in INPUTS:
        run_all_executors(program, data)
