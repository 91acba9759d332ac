"""Symbolic extraction + solver tests: mirroring, soundness, witnesses.

The load-bearing properties:

- the shadow interpreter's ExecutionResult is bit-identical to a plain
  interpretation of the same input (same mirroring contract as taint);
- every recorded constraint is *self-consistent*: evaluating its
  expression over the run's own input bytes reproduces the branch
  direction the run took (``Constraint.holds`` is True) — on generated
  programs and on all 18 Table-I subjects;
- every solver witness, replayed through the real interpreter and
  :func:`~repro.triage.pathreport.profile_input`, actually takes the
  flipped branch direction the solver predicted.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import solver, symbolic
from repro.analysis.solver import SolveStats, apply_witness, solve_flip
from repro.analysis.symbolic import (
    Constraint,
    PathCondition,
    eval_expr,
    expr_support,
    extract_path_condition,
    format_expr,
    interval_expr,
    match_byte_fold,
)
from repro.coverage.feedback import EdgeFeedback
from repro.experiments.bench import grow_inputs
from repro.lang import compile_source
from repro.runtime.interpreter import execute
from repro.subjects import SUITE_NAMES, get_subject
from repro.triage.pathreport import profile_input
from tests.genprog import programs

MODMUL = """
fn main(input) {
    if (len(input) < 5) { return 0; }
    if (read32(input, 0) != 0x4D414743) { return 1; }
    var x = input[4];
    if ((x * 3) % 251 == 17) { trap(1); }
    return 2;
}
"""

MAGIC_SEED = b"MAGC\x00\x00"


def _byte_at(data):
    return lambda off: data[off]


# -- extraction mirroring ------------------------------------------------------


def test_extraction_result_matches_plain_interpretation():
    program = compile_source(MODMUL)
    for data in (MAGIC_SEED, b"nope", b"", b"MAGC\xad\x00", b"\x00" * 8):
        plain = execute(program, data)
        result, _ = extract_path_condition(program, data)
        assert result.retval == plain.retval
        assert result.instr_count == plain.instr_count
        assert (result.trap is None) == (plain.trap is None)
        if result.trap is not None:
            assert result.trap.bug_id() == plain.trap.bug_id()


def test_extraction_mirrors_instrumented_hits():
    program = compile_source(MODMUL)
    instrumentation = EdgeFeedback().instrument(program)
    plain = execute(program, MAGIC_SEED, instrumentation=instrumentation)
    result, _ = extract_path_condition(
        program, MAGIC_SEED, instrumentation=instrumentation
    )
    assert result.hits == plain.hits
    assert result.probe_count == plain.probe_count


def test_constraints_record_path_guards():
    program = compile_source(MODMUL)
    _, condition = extract_path_condition(program, MAGIC_SEED)
    # len() is concrete, so exactly the magic guard and the modmul guard.
    assert len(condition) == 2
    magic, guard = condition.constraints
    assert sorted(magic.support()) == [0, 1, 2, 3]
    assert sorted(guard.support()) == [4]
    assert magic.taken_true is False  # != magic was false (seed matches)
    assert guard.taken_true is False
    assert "byte[4]" in format_expr(guard.expr)


def test_sym_bytes_bounds_the_symbolic_set():
    program = compile_source(MODMUL)
    _, condition = extract_path_condition(program, MAGIC_SEED, sym_bytes={4})
    assert len(condition) == 1
    assert condition.constraints[0].support() == {4}


def test_constraint_cap_truncates():
    source = """
fn main(input) {
    var n = input[0];
    var i = 0;
    while (i < n) { i = i + 1; }
    return i;
}
"""
    program = compile_source(source)
    _, condition = extract_path_condition(
        program, b"\x0a", max_constraints=4
    )
    assert len(condition) == 4
    assert condition.truncated


WINDOW = """
fn main(input) {
    if (len(input) < 8) { return 0; }
    var buf = alloc(4);
    copy(buf, 0, input, 0, 4);
    var k = input[0] & 3;
    %s;
    if (buf[1] == 90) { trap(7); }
    return 1;
}
"""


@pytest.mark.parametrize(
    "stmt",
    [
        "copy(buf, 1, input, 2 + k, 1)",  # input-dependent source offset
        "copy(buf, 1, input, 2, k)",  # input-dependent length
        "copy(buf, 2 - k, input, 5, 1)",  # input-dependent destination offset
        "fill(buf, 2 - k, 1, 0)",  # input-dependent fill offset
        "fill(buf, 1, k, 0)",  # input-dependent fill length
    ],
)
def test_input_dependent_copy_fill_windows_drop_constraints(stmt):
    # On the seed k == 0; under other inputs buf[1] holds another byte
    # (or zero), so a constraint on the seed's window would be fabricated.
    program = compile_source(WINDOW % stmt)
    _, condition = extract_path_condition(program, b"\x00ABCDEFG")
    assert [c.describe() for c in condition] == []


def test_concrete_copy_window_keeps_constraints():
    program = compile_source(WINDOW % "copy(buf, 1, input, 2, 1)")
    _, condition = extract_path_condition(program, b"\x00ABCDEFG")
    assert [sorted(c.support()) for c in condition] == [[2]]


def test_path_condition_prefix_and_site_queries():
    program = compile_source(MODMUL)
    _, condition = extract_path_condition(program, MAGIC_SEED)
    guard = condition.constraints[-1]
    assert condition.prefix(guard.index) == [condition.constraints[0]]
    assert condition.at_site(guard.site) == [guard]


# -- expression evaluation -----------------------------------------------------


def test_eval_expr_agrees_with_the_run():
    program = compile_source(MODMUL)
    for data in (MAGIC_SEED, b"MAGC\xad\x00", b"zzzzzz"):
        _, condition = extract_path_condition(program, data)
        for constraint in condition:
            assert constraint.holds(_byte_at(data)) is True


def test_match_byte_fold_on_read32():
    program = compile_source(MODMUL)
    _, condition = extract_path_condition(program, MAGIC_SEED)
    magic = condition.constraints[0]
    # The comparison itself is not a fold; its read operand is.
    assert match_byte_fold(magic.expr) is None
    assert match_byte_fold(magic.expr.a) == [0, 1, 2, 3]
    assert expr_support(magic.expr) == {0, 1, 2, 3}


def test_interval_expr_is_exact_on_byte_folds():
    program = compile_source(MODMUL)
    _, condition = extract_path_condition(program, MAGIC_SEED)
    fold = condition.constraints[0].expr.a
    iv = interval_expr(fold, {})
    assert (iv.lo, iv.hi) == (0, 0xFFFFFFFF)
    from repro.analysis.interval import Interval

    pinned = interval_expr(fold, {0: Interval(0x4D, 0x4D)})
    assert (pinned.lo, pinned.hi) == (0x4D000000, 0x4DFFFFFF)


# -- the solver ----------------------------------------------------------------


def _flip_last(source, data, **kwargs):
    program = compile_source(source)
    _, condition = extract_path_condition(program, data)
    target = condition.constraints[-1]
    assignment, stats = solve_flip(
        target, condition.prefix(target.index), data, **kwargs
    )
    return program, target, assignment, stats


def test_solver_flips_nonlinear_modmul_guard():
    program, _, assignment, stats = _flip_last(MODMUL, MAGIC_SEED)
    assert assignment == {4: 173}
    assert stats.solved
    witness = apply_witness(MAGIC_SEED, assignment)
    result = execute(program, witness)
    assert result.trap is not None and "trap(1)" in result.trap.detail


def test_solver_direct_magic_equality():
    # Flipping `read32 != magic` from the failing seed is input-to-state
    # correspondence: solved by byte assignment with zero search nodes.
    program = compile_source(MODMUL)
    data = b"XXXXZZ"
    _, condition = extract_path_condition(program, data)
    target = condition.constraints[-1]
    assignment, stats = solve_flip(target, condition.prefix(target.index), data)
    assert assignment == {0: 0x4D, 1: 0x41, 2: 0x47, 3: 0x43}
    assert stats.nodes == 0
    assert execute(program, apply_witness(data, assignment)).retval != 1


def test_solver_honours_prefix_constraints():
    source = """
fn main(input) {
    var x = input[0];
    if (x > 100) {
        if (x < 120) { trap(1); }
    }
    return x;
}
"""
    data = bytes([150])  # outer true, inner false
    program, target, assignment, stats = _flip_last(source, data)
    assert assignment is not None
    # The witness must keep the outer guard true AND flip the inner one.
    assert 100 < assignment[0] < 120
    result = execute(program, apply_witness(data, assignment))
    assert result.trap is not None


def test_solver_respects_support_cap():
    program = compile_source(MODMUL)
    data = b"XXXXZZ"
    _, condition = extract_path_condition(program, data)
    target = condition.constraints[-1]  # 4-byte support
    assignment, stats = solve_flip(
        target, condition.prefix(target.index), data, max_bytes=2
    )
    assert assignment is None
    assert stats.gave_up


def test_solver_stats_cost_is_deterministic():
    _, _, one, stats_a = _flip_last(MODMUL, MAGIC_SEED)
    _, _, two, stats_b = _flip_last(MODMUL, MAGIC_SEED)
    assert one == two
    assert (stats_a.nodes, stats_a.evals) == (stats_b.nodes, stats_b.evals)
    assert stats_a.clock_cost() == stats_b.clock_cost()
    assert isinstance(stats_a, SolveStats)


def test_solver_walks_each_constraint_support_once(monkeypatch):
    # solve_flip reads the support of its target and of every prefix
    # constraint; over many solves on one long path condition each
    # constraint's expression must be walked at most once.
    subject = get_subject("jq")
    data = grow_inputs(subject)[0]
    _, condition = extract_path_condition(
        subject.program,
        data,
        instr_budget=subject.exec_instr_budget,
        call_depth_limit=subject.call_depth_limit,
    )
    assert len(condition) > 100
    walks = Counter()
    real = symbolic.expr_support

    def spy(expr):
        walks[id(expr)] += 1
        return real(expr)

    monkeypatch.setattr(symbolic, "expr_support", spy)
    monkeypatch.setattr(solver, "expr_support", spy, raising=False)
    for constraint in condition.constraints[::10]:
        solve_flip(constraint, condition.prefix(constraint.index), data)
    owners = Counter(id(c.expr) for c in condition)
    assert walks
    assert all(count <= owners[key] for key, count in walks.items())


# -- witness soundness (the acceptance property) -------------------------------


def _check_witnesses(program, data, max_flips=4):
    """Solve flips of every constraint; verify each witness's direction.

    Returns how many witnesses were verified.  Verification is the full
    chain: re-extract on the witness and check the first constraint at
    the target site took the flipped direction, then confirm through
    ``profile_input`` that the replay is consistent (crash state agrees).
    """
    _, condition = extract_path_condition(program, data)
    verified = 0
    for constraint in condition:
        if verified >= max_flips:
            break
        assignment, _ = solve_flip(
            constraint, condition.prefix(constraint.index), data
        )
        if assignment is None:
            continue
        witness = apply_witness(data, assignment)
        want = not constraint.taken_true
        # The solver's own prediction must hold under concrete evaluation.
        value = eval_expr(constraint.expr, _byte_at(witness))
        assert value is not None and (value != 0) == want
        result, replay = extract_path_condition(program, witness)
        # Align by constraint index: if the replay followed the same path
        # prefix, its constraint at the target's index sits at the same
        # site and MUST take the flipped direction.  A diverged prefix
        # (possible when an upstream branch fell to concrete under the
        # expression-node cap) is skipped — that incompleteness is why the
        # engine verifies every witness by replay rather than trusting it.
        aligned = next((c for c in replay if c.index == constraint.index), None)
        if aligned is not None and aligned.site == constraint.site:
            assert aligned.taken_true == want, (
                "witness did not take the predicted direction at %r"
                % (constraint.site,)
            )
            verified += 1
        profile = profile_input(program, witness)
        assert profile.crashed == (result.trap is not None)
    return verified


def test_witness_soundness_on_modmul():
    program = compile_source(MODMUL)
    assert _check_witnesses(program, MAGIC_SEED) > 0
    assert _check_witnesses(program, b"XXXXZZ") > 0


@settings(max_examples=25, deadline=None)
@given(programs(), st.binary(min_size=1, max_size=8))
def test_constraints_self_consistent_on_generated_programs(source, data):
    program = compile_source(source)
    plain = execute(program, data)
    result, condition = extract_path_condition(program, data)
    assert result.retval == plain.retval
    assert result.instr_count == plain.instr_count
    for constraint in condition:
        assert constraint.holds(_byte_at(data)) is True


@settings(max_examples=15, deadline=None)
@given(programs(), st.binary(min_size=1, max_size=6))
def test_witness_soundness_on_generated_programs(source, data):
    _check_witnesses(compile_source(source), data, max_flips=2)


def test_constraints_self_consistent_on_suite():
    inputs = (b"", b"\x00" * 8, b"MAGCabcd", bytes(range(16)))
    for name in SUITE_NAMES:
        program = get_subject(name).program
        for data in inputs:
            plain = execute(program, data)
            result, condition = extract_path_condition(program, data)
            assert result.retval == plain.retval, name
            assert result.instr_count == plain.instr_count, name
            for constraint in condition:
                assert constraint.holds(_byte_at(data)) is True, name


def test_witness_soundness_on_suite():
    # End-to-end on the real Table-I subjects: at least some flips must
    # verify across the suite (most guards are solvable at small width).
    verified = 0
    for name in SUITE_NAMES:
        program = get_subject(name).program
        verified += _check_witnesses(program, b"MAGCabcd", max_flips=2)
    assert verified > 0


def test_constraint_and_pathcondition_types_exported():
    from repro import analysis

    assert analysis.Constraint is Constraint
    assert analysis.PathCondition is PathCondition
    assert analysis.extract_path_condition is extract_path_condition
    assert analysis.SolveStats is SolveStats
    assert analysis.solve_flip is solve_flip
