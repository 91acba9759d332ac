"""IR-to-Python compiler: exact equivalence with the reference interpreter.

Every test asserts the compiled backend's full observable surface against
the interpreter — return value, trap (kind, site, detail, stack), timeout,
instruction accounting, probe accounting, coverage map, cmplog operands —
because the compiler's contract is bit-identical semantics, not "close
enough for fuzzing".
"""

import os

import pytest

from repro.coverage.feedback import feedback_by_name
from repro.coverage.prune import build_prune_plan
from repro.lang import compile_source
from repro.runtime import backend as backend_mod
from repro.runtime.backend import make_backend, resolve_backend
from repro.runtime.compiler import compile_program, execute as compiled_execute
from repro.runtime.interpreter import execute as interp_execute
from repro.subjects import get_subject

FEEDBACKS = ("edge", "path", "block", "ngram4", "pathafl", "path2gram")

LOOPY = """
fn helper(x) {
    return (x * 7 + 3) & 255;
}

fn main(input) {
    var acc = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        var b = input[i];
        if (b > 128) { acc = acc + helper(b); }
        else { acc = acc - b; }
        while (b > 0) { b = b / 2; acc = acc + 1; }
    }
    return acc & 65535;
}
"""

TRAPPY = """
fn main(input) {
    var n = read32(input, 0);
    var buf = alloc(16);
    buf[n & 31] = 1;
    return buf[0] + input[n & 63];
}
"""


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
        list(result.cmp_log),
    )


def assert_equivalent(program, data, instrumentation=None, **kwargs):
    ref = interp_execute(program, data, instrumentation, **kwargs)
    got = compiled_execute(program, data, instrumentation, **kwargs)
    assert _result_key(got) == _result_key(ref)
    return ref


@pytest.mark.parametrize("feedback", FEEDBACKS)
def test_loopy_program_equivalent_under_every_feedback(feedback):
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name(feedback).instrument(program)
    for data in (b"", b"\x00", b"hello world", bytes(range(256))):
        assert_equivalent(program, data, instrumentation)


@pytest.mark.parametrize("feedback", ("edge", "path"))
def test_traps_match_site_detail_and_stack(feedback):
    program = compile_source(TRAPPY)
    instrumentation = feedback_by_name(feedback).instrument(program)
    for data in (b"", b"\x00\x00\x00\x11", b"\xff\xff\xff\xff", b"\x00" * 64):
        assert_equivalent(program, data, instrumentation)


def test_timeout_point_is_exact():
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name("path").instrument(program)
    data = bytes(range(256)) * 2
    # Walk budgets across the whole execution, including values far below
    # one loop iteration: a run past its budget is replayed on the
    # interpreter, and one within it must not be.
    full = interp_execute(program, data, instrumentation)
    for budget in (1, 17, 100, full.instr_count - 1, full.instr_count):
        assert_equivalent(program, data, instrumentation, instr_budget=budget)


SPINNING = """
fn helper(x) {
    if (x > 7) { return x - 5; }
    return x + 3;
}

fn main(input) {
    var acc = len(input);
    while (1) { acc = helper(acc); }
    return acc;
}
"""


def test_pruned_timeout_is_the_interpreters_run():
    """A pruned program's timed-out run is replayed on the interpreter
    over the full instrumentation: its map and probe charges are the
    interpreter's, not the pruned program's partial ones."""
    program = compile_source(SPINNING)
    instrumentation = feedback_by_name("edge").instrument(program)
    plan = build_prune_plan(program, instrumentation)
    assert plan is not None and plan.dropped > 0
    got = compile_program(program, instrumentation, plan).execute(
        b"AB", instr_budget=500
    )
    ref = interp_execute(program, b"AB", instrumentation, instr_budget=500)
    assert ref.timeout
    assert _result_key(got) == _result_key(ref)


def test_cmplog_operands_match():
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name("edge").instrument(program)
    ref = interp_execute(program, b"compare me", instrumentation, cmplog=True)
    got = compiled_execute(program, b"compare me", instrumentation, cmplog=True)
    assert got.cmp_log == ref.cmp_log
    assert ref.cmp_log  # the program compares, so the log must be non-empty


def test_uninstrumented_execution_equivalent():
    program = compile_source(LOOPY)
    assert_equivalent(program, b"plain run, no feedback")


def test_compiled_program_is_memoized():
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name("edge").instrument(program)
    assert compile_program(program, instrumentation) is compile_program(
        program, instrumentation
    )


def test_pooled_runtime_survives_interleaved_inputs():
    program = compile_source(TRAPPY)
    instrumentation = feedback_by_name("edge").instrument(program)
    compiled = compile_program(program, instrumentation)
    inputs = [b"", b"\x00\x00\x00\x04AAAAAA", b"\xff" * 8, b"\x00" * 64]
    for _ in range(3):  # repeated passes reuse the pooled runtime
        for data in inputs:
            ref = interp_execute(program, data, instrumentation)
            got = compiled.execute(data)
            assert _result_key(got) == _result_key(ref)


def test_prune_plan_preserves_coverage_map():
    subject = get_subject("flvmeta")
    program = subject.program
    instrumentation = feedback_by_name("edge").instrument(program)
    plan = build_prune_plan(program, instrumentation)
    assert plan is not None and plan.dropped > 0
    compiled = compile_program(program, instrumentation, plan)
    for seed in subject.seeds:
        ref = interp_execute(program, bytes(seed), instrumentation)
        got = compiled.execute(bytes(seed))
        # The observed coverage map is reconstructed exactly; the probe
        # accounting legitimately drops (elided probes never executed).
        assert dict(got.hits) == dict(ref.hits)
        assert (got.retval, got.timeout, got.instr_count) == (
            ref.retval,
            ref.timeout,
            ref.instr_count,
        )
        assert got.trap is None and ref.trap is None
        assert got.probe_cost <= ref.probe_cost


@pytest.mark.parametrize("name", FEEDBACKS + ("ngram2",))
def test_probe_prune_applies_only_to_pure_hit_feedbacks(name):
    """Path-state feedbacks get no prune plan, so probe_prune=True compiles
    the very program probe_prune=False does (cache key ``noprune``)."""
    program = get_subject("jhead").program
    instrumentation = feedback_by_name(name).instrument(program)
    pruned = make_backend(
        program, instrumentation, backend="compile", probe_prune=True
    )
    if name in ("edge", "block"):
        assert pruned.prune_plan is not None
        return
    assert pruned.prune_plan is None
    plain = make_backend(program, instrumentation, backend="compile")
    assert pruned.execute.__self__ is plain.execute.__self__
    assert pruned.execute.__self__._key.endswith("-noprune")


def test_resolve_backend_env(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend() == "interp"
    monkeypatch.setenv("REPRO_BACKEND", "compile")
    assert resolve_backend() == "compile"
    assert resolve_backend("interp") == "interp"  # argument wins
    with pytest.raises(ValueError):
        resolve_backend("jit")
    monkeypatch.setenv("REPRO_BACKEND", "nonsense")
    with pytest.raises(ValueError):
        resolve_backend()


def test_backend_objects_execute_identically(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name("path").instrument(program)
    interp = make_backend(program, instrumentation, backend="interp")
    compiled = make_backend(program, instrumentation, backend="compile")
    assert (interp.name, compiled.name) == ("interp", "compile")
    for data in (b"", b"abc", bytes(range(64))):
        assert _result_key(compiled.execute(data)) == _result_key(
            interp.execute(data)
        )


def test_backend_env_var_is_honored(monkeypatch):
    program = compile_source(LOOPY)
    monkeypatch.setenv("REPRO_BACKEND", "compile")
    assert make_backend(program).name == "compile"
    monkeypatch.setenv("REPRO_BACKEND", "interp")
    assert make_backend(program).name == "interp"
    assert backend_mod._ENV_VAR == "REPRO_BACKEND"


def test_compiled_cache_dir_roundtrip(tmp_path, monkeypatch):
    from repro.runtime import compiler as compiler_mod

    monkeypatch.setenv(compiler_mod.CACHE_ENV, str(tmp_path))
    compiler_mod.clear_cache()
    program = compile_source(LOOPY)
    instrumentation = feedback_by_name("path").instrument(program)
    ref = interp_execute(program, b"cache me", instrumentation)
    got = compiled_execute(program, b"cache me", instrumentation)
    assert _result_key(got) == _result_key(ref)
    cached_files = [
        os.path.join(root, name)
        for root, _, names in os.walk(str(tmp_path))
        for name in names
    ]
    assert cached_files  # sources were persisted
    # A cold process (cleared memo) must load from disk and agree.
    compiler_mod.clear_cache()
    again = compiled_execute(program, b"cache me", instrumentation)
    assert _result_key(again) == _result_key(ref)
