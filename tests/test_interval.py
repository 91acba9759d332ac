"""Interval abstract-interpretation tests: soundness, widening, proofs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.constprop import conditional_constants
from repro.analysis.foldops import fold_binop, fold_unop
from repro.analysis.interval import (
    INT_MAX,
    INT_MIN,
    Interval,
    bin_interval,
    interval_analysis,
    refine_compare,
    un_interval,
)
from repro.cfg.instructions import (
    COMPARISON_OPS,
    OP_DIV,
    OP_MOD,
    OP_SHL,
    OP_SHR,
)
from repro.lang import compile_source
from repro.runtime.values import wrap_int
from repro.subjects import load_suite


def _c_div(a, b):
    q = abs(a) // abs(b)
    return wrap_int(q if (a < 0) == (b < 0) else -q)


def _c_mod(a, b):
    return wrap_int(a - _c_div(a, b) * b)


def _concrete(binop, a, b):
    """The VM's result for ``a binop b``, or None when it traps."""
    if binop in (OP_DIV, OP_MOD):
        if b == 0:
            return None
        return _c_div(a, b) if binop == OP_DIV else _c_mod(a, b)
    if binop in (OP_SHL, OP_SHR):
        if not 0 <= b < 64:
            return None
        return wrap_int(a << b) if binop == OP_SHL else (a >> b)
    return fold_binop(binop, a, b)


_bounds = st.integers(min_value=INT_MIN, max_value=INT_MAX)
_small = st.integers(min_value=-300, max_value=300)


@st.composite
def intervals(draw):
    if draw(st.booleans()):
        lo = draw(_small)
        hi = draw(st.integers(min_value=lo, max_value=lo + 64))
    else:
        lo = draw(_bounds)
        hi = draw(st.integers(min_value=lo, max_value=INT_MAX))
    return Interval(lo, hi)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=0, max_value=15),
    intervals(),
    intervals(),
    st.randoms(use_true_random=False),
)
def test_bin_interval_is_sound(binop, ia, ib, rng):
    a = rng.randint(ia.lo, ia.hi)
    b = rng.randint(ib.lo, ib.hi)
    result = _concrete(binop, a, b)
    if result is None:
        return  # trapping execution has no value to bound
    iv = bin_interval(binop, ia, ib)
    assert iv.lo <= result <= iv.hi, (binop, ia, ib, a, b, result, iv)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2),
    intervals(),
    st.randoms(use_true_random=False),
)
def test_un_interval_is_sound(unop, ia, rng):
    a = rng.randint(ia.lo, ia.hi)
    iv = un_interval(unop, ia)
    result = fold_unop(unop, a)
    assert iv.lo <= result <= iv.hi


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(COMPARISON_OPS)),
    intervals(),
    intervals(),
    st.randoms(use_true_random=False),
)
def test_refine_compare_keeps_satisfying_pairs(binop, ia, ib, rng):
    a = rng.randint(ia.lo, ia.hi)
    b = rng.randint(ib.lo, ib.hi)
    if fold_binop(binop, a, b) != 1:
        return
    na, nb = refine_compare(binop, ia, ib)
    assert na is not None and nb is not None
    assert na.contains(a)
    assert nb.contains(b)


MASKED = """
fn main(input) {
    var x = input[0] & 15;
    if (x > 20) { return 1; }
    return 0;
}
"""

LOOP = """
fn main(input) {
    var i = 0;
    var total = 0;
    while (i < len(input)) {
        total = total + input[i];
        i = i + 1;
    }
    return total;
}
"""

REFINED_LOOP = """
fn main(input) {
    var i = 0;
    while (i < 10) {
        i = i + 1;
    }
    if (i > 100) { return 1; }
    return 0;
}
"""


def test_masked_guard_proved_false_where_sccp_cannot():
    cfg = compile_source(MASKED).func("main")
    const = conditional_constants(cfg)
    assert not const.constant_branches()  # x varies: SCCP is blind here
    result = interval_analysis(cfg)
    proved = dict(result.proved_branches())
    assert 0 in set(proved.values()) or proved  # some branch proved false
    assert any(value == 0 for value in proved.values())
    assert result.dead_edges()


def test_widening_terminates_on_unbounded_loop():
    cfg = compile_source(LOOP).func("main")
    result = interval_analysis(cfg)
    assert result.executable_blocks  # fixed point reached at all


def test_branch_refinement_recovers_loop_bound():
    # Widening smears i upward inside the loop, but the exit edge of
    # i < 10 clamps it back: the trailing i > 100 test is proved false.
    cfg = compile_source(REFINED_LOOP).func("main")
    result = interval_analysis(cfg)
    assert any(value == 0 for _, value in result.proved_branches())


def test_interval_never_contradicts_sccp_on_suite():
    # Where SCCP proves a branch constant, interval analysis must agree
    # (or stay silent); its dead edges must never kill an edge some real
    # execution takes, which the feasibility soundness suite checks
    # dynamically — here we check mutual consistency of the two provers.
    for subject in load_suite():
        for func in subject.program.funcs:
            const = conditional_constants(func)
            result = interval_analysis(func)
            sccp = dict(const.constant_branches())
            for block_id, value in result.proved_branches():
                if block_id in sccp:
                    assert (sccp[block_id] != 0) == (value != 0)
            assert result.executable_blocks <= const.executable_blocks | {
                block.id for block in func.blocks
            }


def test_entry_env_covers_runtime_values():
    # Spot-check: registers at block entries of a straight-line function
    # bound the actual constants flowing through.
    source = """
    fn main(input) {
        var a = 5;
        var b = a * 7;
        if (b == 35) { return 1; }
        return 0;
    }
    """
    cfg = compile_source(source).func("main")
    result = interval_analysis(cfg)
    proved = result.proved_branches()
    assert proved and proved[0][1] == 1
