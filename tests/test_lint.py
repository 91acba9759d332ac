"""Linter tests: one per rule, the committed subject baseline, and a
crash-freedom property over generated programs."""

import json
import os

from hypothesis import given, settings

from repro.analysis.lint import lint_program, lint_source, render_text
from repro.cfg.graph import FunctionCFG
from repro.cfg.instructions import MOV, RET
from repro.cfg.program import ProgramCFG
from repro.lang import compile_source
from repro.subjects import SUITE_NAMES, get_subject
from tests.genprog import programs

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "..", "results", "lint_baseline.json"
)


def rules_of(findings):
    return {f.rule for f in findings}


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- rule-by-rule ------------------------------------------------------------


def test_unused_variable():
    findings = lint_source(
        "fn main(input) { var x = 1; return 0; }"
    )
    hits = by_rule(findings, "unused-variable")
    assert len(hits) == 1
    assert hits[0].severity == "warning"
    assert "'x'" in hits[0].message
    assert hits[0].function == "main"


def test_dead_store():
    findings = lint_source(
        """
fn main(input) {
    var x = len(input);
    var y = x + 1;
    x = 2;
    return y;
}
"""
    )
    hits = by_rule(findings, "dead-store")
    assert len(hits) == 1
    assert hits[0].line == 5


def test_loop_carried_store_is_not_dead():
    findings = lint_source(
        """
fn main(input) {
    var x = 0;
    var i = 0;
    while (i < 3) {
        i = i + x;
        x = x + 1;
    }
    return i;
}
"""
    )
    assert by_rule(findings, "dead-store") == []


def test_unreachable_statement_after_return():
    findings = lint_source(
        "fn main(input) { return 0; return 1; }"
    )
    assert by_rule(findings, "unreachable-code")


def test_constant_condition():
    findings = lint_source(
        "fn main(input) { if (1 == 2) { return 3; } return 0; }"
    )
    hits = by_rule(findings, "constant-condition")
    assert hits
    assert "false" in hits[0].message or "not taken" in hits[0].message


def test_constant_condition_reads_literals_as_int64():
    # 2**64 is lowered as 0, so the branch is never taken.
    findings = lint_source(
        "fn main(input) { if (18446744073709551616) { return 3; } return 0; }"
    )
    hits = by_rule(findings, "constant-condition")
    assert hits and "false" in hits[0].message


def test_tautological_comparison_by_value_ranges():
    # x is input-dependent (SCCP sees nothing), but x & 15 is in [0, 15]
    # so x > 20 is provably false — only the interval rule can say so.
    findings = lint_source(
        """
fn main(input) {
    var x = input[0] & 15;
    if (x > 20) { return 1; }
    return 0;
}
"""
    )
    hits = by_rule(findings, "tautological-comparison")
    assert len(hits) == 1
    assert hits[0].severity == "warning"
    assert "false" in hits[0].message
    assert by_rule(findings, "constant-condition") == []


def test_tautological_comparison_true_direction():
    findings = lint_source(
        """
fn main(input) {
    var x = read16(input, 0);
    if (x < 100000) { return 1; }
    return 0;
}
"""
    )
    hits = by_rule(findings, "tautological-comparison")
    assert len(hits) == 1
    assert "true" in hits[0].message


def test_sccp_constant_branch_not_double_reported():
    # A genuinely constant guard stays a constant-condition finding and
    # must not also appear as tautological-comparison.
    findings = lint_source(
        "fn main(input) { if (1 == 2) { return 3; } return 0; }"
    )
    assert by_rule(findings, "constant-condition")
    assert by_rule(findings, "tautological-comparison") == []


def test_intentional_infinite_loop_not_flagged_as_constant_at_ast_level():
    # while(1){...break...} has an exit; only the dedicated IR rule may
    # mention the constant branch, the loop itself is legal.
    findings = lint_source(
        """
fn main(input) {
    var i = 0;
    while (1) {
        i = i + 1;
        if (i > 3) { break; }
    }
    return i;
}
"""
    )
    assert by_rule(findings, "loop-no-exit") == []


def test_loop_with_no_exit():
    findings = lint_source(
        """
fn main(input) {
    var x = 0;
    while (1) {
        x = x + 1;
    }
    return x;
}
"""
    )
    hits = by_rule(findings, "loop-no-exit")
    assert len(hits) == 1
    assert hits[0].severity == "error"


def test_unused_function():
    findings = lint_source(
        """
fn helper(a) { return a + 1; }
fn main(input) { return 0; }
"""
    )
    hits = by_rule(findings, "unused-function")
    assert len(hits) == 1
    assert "'helper'" in hits[0].message


def test_transitively_used_function_not_flagged():
    findings = lint_source(
        """
fn inner(a) { return a; }
fn outer(a) { return inner(a); }
fn main(input) { return outer(1); }
"""
    )
    assert by_rule(findings, "unused-function") == []


def test_unused_param():
    findings = lint_source(
        """
fn helper(a, b) { return a; }
fn main(input) { return helper(len(input), 2); }
"""
    )
    hits = by_rule(findings, "unused-param")
    assert len(hits) == 1
    assert "'b'" in hits[0].message
    assert hits[0].severity == "info"


def test_use_before_init_on_hand_built_ir():
    # Source-level MiniC cannot express this (var requires an initializer),
    # so the rule is exercised straight on IR.
    cfg = FunctionCFG("f", 0, 0)
    cfg.new_block()
    cfg.nregs = 2
    cfg.blocks[0].instrs = [(MOV, 0, 1)]
    cfg.blocks[0].term = (RET, 0)
    program = ProgramCFG([cfg], strings=[], source_name="handmade")
    hits = by_rule(lint_program(program), "use-before-init")
    assert len(hits) >= 1
    assert hits[0].severity == "error"


def test_clean_program_has_no_findings():
    findings = lint_source(
        """
fn main(input) {
    var total = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        total = total + input[i];
    }
    return total;
}
"""
    )
    assert findings == []


def test_render_text_summary():
    text = render_text(
        lint_source("fn main(input) { var x = len(input); return 0; }")
    )
    assert "unused-variable" in text
    assert text.strip().endswith("(1 warning)")


# -- baseline ----------------------------------------------------------------


def test_subject_findings_match_committed_baseline():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)["subjects"]
    assert set(baseline) == set(SUITE_NAMES)
    for name in SUITE_NAMES:
        subject = get_subject(name)
        findings = [f.to_dict() for f in lint_source(subject.source, name)]
        assert findings == baseline[name]["findings"], name


def test_baseline_path_spaces_report_pruning():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)["subjects"]
    pruned = [
        name
        for name, entry in baseline.items()
        if entry["path_space"]["infeasible_paths"] > 0
    ]
    # The acceptance bar is >= 1 subject; the suite comfortably clears it.
    assert len(pruned) >= 1
    for entry in baseline.values():
        space = entry["path_space"]
        assert space["feasible_paths"] + space["infeasible_paths"] == space[
            "num_paths"
        ]


# -- crash freedom -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(programs())
def test_lint_never_crashes_on_generated_programs(source):
    findings = lint_source(source, "gen")
    for finding in findings:
        assert finding.severity in ("error", "warning", "info")
        assert finding.line >= 0
    lint_program(compile_source(source), "gen-ir")
