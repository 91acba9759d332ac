"""Operands the compiler resolves at codegen, checked against the interpreter.

Two facts are known when the code is generated and no longer paid for on
every execution:

- the int64 wrap: arithmetic assigns the plain Python result and wraps it
  only when it leaves [-2**63, 2**63 - 1];
- string literals: a STR register whose ref never escapes is never built;
  its bytes are module constants, bounds checks with literal offsets and
  counts are decided at codegen, and constant windows are hoisted.

The boundary program builds every operand at run time from input bytes, so
nothing folds; each case runs under the interpreter and under the
compiled backend, cmplog off and on, and the results must agree field
for field.
"""

import struct

import pytest

from repro.analysis.foldops import fold_binop, fold_unop
from repro.cfg.instructions import (
    OP_ADD,
    OP_BNOT,
    OP_MUL,
    OP_NEG,
    OP_SHL,
    OP_SHR,
    OP_SUB,
)
from repro.coverage.feedback import feedback_by_name
from repro.lang import compile_source
from repro.runtime import traps
from repro.runtime.compiler import compile_program, generate_sources
from repro.runtime.interpreter import execute as interp_execute
from repro.runtime.values import ArrayRef, wrap_int

MIN = -(1 << 63)
MAX = (1 << 63) - 1


def _value_key(value):
    # Refs compare by identity, which differs between any two runs.
    if isinstance(value, ArrayRef):
        return ("ref", value.array_id, value.readonly)
    return value


def _result_key(result):
    trap = result.trap
    trap_key = None
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap_key = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        _value_key(result.retval),
        trap_key,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        dict(result.hits),
        [tuple(_value_key(v) for v in entry) for entry in result.cmp_log],
    )


def run_everywhere(source, inputs, feedbacks=("path", "edge")):
    """Interpreter results, after checking that the compiled backend
    agrees on every input, cmplog off and on."""
    program = compile_source(source)
    results = []
    for name in feedbacks:
        instrumentation = feedback_by_name(name).instrument(program)
        compiled = compile_program(program, instrumentation)
        for cmplog in (False, True):
            for data in inputs:
                ref = interp_execute(program, data, instrumentation, cmplog=cmplog)
                got = compiled.execute(data, cmplog=cmplog)
                assert _result_key(got) == _result_key(ref), (name, cmplog, data)
                if name == feedbacks[0] and not cmplog:
                    results.append(ref)
    return results


# -- the overflow-only wrap -----------------------------------------------------

# Case index -> expression over run-time operands.  ``x`` and ``y`` are
# int64s read from input bytes; ``v`` is an out-of-range literal (wrapped
# to -1 when lowered) unless the input selects ``x``.
CASES = (
    "x + y",
    "x - y",
    "x * y",
    "x / y",
    "x % y",
    "-x",
    "~x",
    "abs(x)",
    "x << y",
    "x >> y",
    "x + 1",
    "x - 1",
    "1 - x",
    "x * -1",
    "x / -1",
    "x % -1",
    "x << 63",
    "x / 7",
    "x % -7",
    "v + 1",
    "-v",
    "~v",
    "v * 3",
    "v / -1",
    "v % 7",
    "abs(v)",
    "v << 1",
    "v - y",
)

BOUNDARY = """
fn word(input, off) {
    return (read32(input, off) << 32) | read32(input, off + 4);
}

fn main(input) {
    var x = word(input, 0);
    var y = word(input, 8);
    var op = input[16];
    var v = 18446744073709551615;
    if (input[17] == 1) { v = x; }
%s
    return 0;
}
""" % "\n".join(
    "    if (op == %d) { return %s; }" % (i, expr) for i, expr in enumerate(CASES)
)

EDGES = (MIN, MIN + 1, -(1 << 32), -7, -1, 0, 1, 3, 1 << 31, 1 << 62, MAX - 1, MAX)

# Case index -> (operator, fold) for the cases foldops evaluates.
FOLDED = {
    0: (OP_ADD, fold_binop),
    1: (OP_SUB, fold_binop),
    2: (OP_MUL, fold_binop),
    5: (OP_NEG, fold_unop),
    6: (OP_BNOT, fold_unop),
    8: (OP_SHL, fold_binop),
    9: (OP_SHR, fold_binop),
}


def _operands(x, y, case, select_x=0):
    return struct.pack(">qqBB", x, y, case, select_x)


def _c_div(a, b):
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


@pytest.mark.parametrize("case", range(len(CASES)), ids=CASES)
def test_int64_edges_agree_across_backends(case):
    inputs = [
        _operands(x, y, case, sel)
        for x in EDGES
        for y in ((0, 1, -1, 63, 64, MIN, MAX) if case > 9 else EDGES)
        for sel in (0, 1)
    ]
    results = run_everywhere(BOUNDARY, inputs, feedbacks=("path",))
    for data, result in zip(inputs, results):
        x, y, _, sel = struct.unpack(">qqBB", data)
        if case in FOLDED and result.trap is None:
            op, fold = FOLDED[case]
            want = fold(op, x, y) if fold is fold_binop else fold(op, x)
            assert result.retval == want, (CASES[case], x, y)
        if result.trap is None and case in (3, 14):
            divisor = y if case == 3 else -1
            assert result.retval == wrap_int(_c_div(x, divisor))


def test_named_int64_edges():
    """The overflowing cases by name, against the interpreter's values."""
    expect = {
        (3, MIN, -1): MIN,  # MIN / -1
        (4, MIN, -1): 0,  # MIN % -1
        (5, MIN, 0): MIN,  # -MIN
        (7, MIN, 0): MIN,  # abs(MIN)
        (16, 1, 0): MIN,  # 1 << 63
        (16, 3, 0): MIN,  # 3 << 63
        (2, 1 << 32, 1 << 32): 0,  # 2**64 wraps to 0
        (2, MAX, MAX): 1,
        (0, MAX, 1): MIN,
        (1, MIN, 1): MAX,
        (10, MAX, 0): MIN,
        (12, MIN, 0): MIN + 1,
    }
    inputs = [_operands(x, y, case) for case, x, y in expect]
    results = run_everywhere(BOUNDARY, inputs, feedbacks=("path",))
    for (case, x, y), result in zip(expect, results):
        assert result.trap is None
        assert result.retval == expect[(case, x, y)], (CASES[case], x, y)
    # An out-of-range literal reaches BNOT, NEG and the others as its
    # int64 value (literals are wrapped when lowered).
    literal = (1 << 64) - 1
    inputs = [_operands(0, 5, case) for case in range(19, 28)]
    results = run_everywhere(BOUNDARY, inputs, feedbacks=("path",))
    assert results[2].retval == wrap_int(~literal) == 0
    assert results[1].retval == wrap_int(-literal) == 1


def _literal(value):
    """MiniC source for the int64 ``value`` (MIN has no positive literal)."""
    return "%d" % value if value >= 0 else "(0 - %d - 1)" % (-(value + 1))


def test_constant_operands_fold_like_foldops():
    """The same edges with literal operands: codegen folds them, and the
    folded values match foldops and the interpreter."""
    pairs = ((MIN, -1), (MAX, 1), (MIN, 1), (MAX, MAX), (MIN, 63))
    for x, y in pairs:
        source = (
            "fn main(input) { var x = %s; var y = %s; var s = input[0];"
            " if (s == 0) { return x + y; } if (s == 1) { return x - y; }"
            " if (s == 2) { return x * y; } if (s == 3) { return x / y; }"
            " if (s == 4) { return x %% y; } if (s == 5) { return -x; }"
            " return x << y; }" % (_literal(x), _literal(y))
        )
        results = run_everywhere(source, [bytes([s]) for s in range(7)], ("path",))
        values = [r.retval for r in results]
        assert values[0] == fold_binop(OP_ADD, x, y)
        assert values[1] == fold_binop(OP_SUB, x, y)
        assert values[2] == fold_binop(OP_MUL, x, y)
        assert values[3] == wrap_int(_c_div(x, y))
        assert values[5] == fold_unop(OP_NEG, x)
        if 0 <= y < 64:
            assert values[6] == fold_binop(OP_SHL, x, y)


# -- string-literal operands ----------------------------------------------------

IDENTITY = """
fn lit() { return "ab"; }

fn walk(s, n) {
    if (n == 0) { return s; }
    return walk(s, n - 1);
}

fn main(input) {
    var s = "ab";
    var t = s;
    var u = "ab";
    var prev = 0;
    var again = 0;
    for (var i = 0; i < 2; i = i + 1) {
        var w = "ab";
        if (i == 1) { again = w == prev; }
        prev = w;
    }
    var same = s == s;
    var alias = s == t;
    var twice = s == u;
    var calls = lit() == lit();
    var through = walk(s, len(input)) == s;
    return same * 10000 + alias * 1000 + twice * 100 + calls * 10 + again + through * 100000;
}
"""


def test_literal_identity():
    """``s == s`` is 1 and a moved or passed literal is the same ref, while
    two evaluations of one literal are two refs."""
    results = run_everywhere(IDENTITY, [b"", b"abc"])
    assert [r.retval for r in results] == [111000, 111000]


SHARED = """
fn eq(a, b) {
    var r = 0;
    if (a == b) { r = 1; }
    return r;
}

fn main(input) {
    var s = "k";
    var t = s;
    var u = t;
    var n = 0;
    while (n < len(input)) { n = n + 1; }
    var k = eq(s, n);
    return k + (t == u) * 10 + eq(u, s) * 100 + (s == t) * 1000;
}
"""


def test_moved_literal_is_built_once_for_every_holder():
    """Registers holding one STR's value escape at different points (a
    loop header, an inlined call's argument, its continuation, a compare)
    and still hold one ref."""
    results = run_everywhere(SHARED, [b"", b"ab"])
    assert [r.retval for r in results] == [1110, 1110]


ESCAPES = """
fn first(s) { return s[0]; }

fn pick(s, t, k) {
    if (k > 1) { return s; }
    return t;
}

fn main(input) {
    var s = "xyz";
    var box = alloc(2);
    box[0] = s;
    var back = box[0];
    var r = pick(s, "q", len(input));
    return first(back) + first(r) * 256 + (back == s) * 65536 + len(r) * 1000000;
}
"""


def test_literal_escapes_through_store_call_and_return():
    results = run_everywhere(ESCAPES, [b"", b"go"])
    x, q = ord("x"), ord("q")
    assert [r.retval for r in results] == [
        x + q * 256 + 65536 + 1000000,
        x + x * 256 + 65536 + 3000000,
    ]


def test_literal_returned_from_main_is_a_readonly_ref():
    results = run_everywhere('fn main(input) { var s = "hi"; return s; }', [b""])
    assert isinstance(results[0].retval, ArrayRef)
    assert results[0].retval.readonly


WRITES = """
fn poke(a, k) {
    a[k] = 1;
    return 0;
}

fn main(input) {
    var s = "abcd";
    var k = input[0];
    if (k == 0) { s[1] = 7; }
    if (k == 1) { return poke(s, 2); }
    if (k == 2) { return copy(s, 0, input, 0, 1); }
    if (k == 3) { return fill(s, 0, 1, 9); }
    var t = s;
    t[0] = 5;
    return 0;
}
"""


def test_writes_to_literals_trap_readonly():
    results = run_everywhere(WRITES, [bytes([k]) for k in range(5)])
    details = [(r.trap.kind, r.trap.detail) for r in results]
    assert details == [
        (traps.READONLY_WRITE, "write to constant"),
        (traps.READONLY_WRITE, "write to constant"),
        (traps.READONLY_WRITE, "copy into constant"),
        (traps.READONLY_WRITE, "fill into constant"),
        (traps.READONLY_WRITE, "write to constant"),
    ]


WINDOWS = """
fn main(input) {
    var k = input[0];
    var i = input[1];
    var s = "abc";
    if (k == 0) { return s[5]; }
    if (k == 1) { return s[i]; }
    if (k == 2) { return memcmp(input, 0, "ab", 1, 2); }
    if (k == 3) { return memcmp("ab", 0, input, 0, 3); }
    if (k == 4) { return memcmp(input, 0, "ab", 0 - 1, 1); }
    if (k == 5) { return memcmp(input, 0, s, 0, i); }
    if (k == 6) { return read16("a", 0); }
    if (k == 7) { return read32(s, i); }
    if (k == 8) { return read16le(s, 0 - 1); }
    if (k == 9) { return s[0 - 1]; }
    return s[i - 3];
}
"""


def test_out_of_bounds_literal_windows_trap_identically():
    inputs = [bytes([k, i]) for k in range(11) for i in (0, 1, 3, 9)]
    results = run_everywhere(WINDOWS, inputs)
    by_case = {data[0]: r for data, r in zip(inputs, results) if data[1] == 9}
    assert by_case[0].trap.detail == "index 5 of 3"
    assert by_case[1].trap.detail == "index 9 of 3"
    assert by_case[2].trap.detail == "range [1, 3) of 2"
    assert by_case[3].trap.detail == "range [0, 3) of 2"
    assert by_case[4].trap.detail == "range [-1, 0) of 2"
    assert by_case[6].trap.detail == "range [0, 2) of 1"
    assert by_case[8].trap.detail == "range [-1, 1) of 3"
    assert by_case[9].trap.detail == "index -1 of 3"
    assert all(r.trap.kind == traps.OOB_READ for r in by_case.values())


ARITH_INDEX = """
fn main(input) {
    var b = alloc(4);
    var i = len(input) - 2;
    if (input[0] == 1) { b[i] = 7; return 0; }
    return b[i];
}
"""


def test_arithmetic_indices_keep_their_bounds_guard():
    """An index proven int by arithmetic drops its class test, not its
    bounds test: -1 and the length itself trap on every backend."""
    inputs = [bytes([k]) * n for k in (0, 1) for n in range(1, 7)]
    results = run_everywhere(ARITH_INDEX, inputs)
    traps_seen = [(r.trap.kind, r.trap.detail) if r.trap else None for r in results]
    assert traps_seen == [
        (traps.OOB_READ, "index -1 of 4"), None, None, None, None,
        (traps.OOB_READ, "index 4 of 4"),
        (traps.OOB_WRITE, "index -1 of 4"), None, None, None, None,
        (traps.OOB_WRITE, "index 4 of 4"),
    ]


READS = """
fn main(input) {
    var s = "hello";
    var n = len(input);
    var acc = len(s);
    acc = acc * 7 + read16(s, 1);
    acc = acc * 7 + read32(s, 1);
    acc = acc * 7 + read16le(s, 3);
    acc = acc * 7 + read32le(s, 0);
    acc = acc * 7 + s[4];
    acc = acc * 7 + memcmp(s, 1, "yellow", 1, 4);
    acc = acc * 7 + memcmp(s, 0, "help", 0, 3);
    if (n > 0) {
        acc = acc * 7 + memcmp(input, 0, s, 0, n);
        acc = acc * 7 + read16(s, input[0] & 3);
        acc = acc * 7 + s[input[0] & 3];
    }
    return acc;
}
"""


def test_len_read_and_memcmp_on_literals_agree():
    results = run_everywhere(READS, [b"", b"h", b"he", b"hex", b"\x02\x01"])
    assert all(r.trap is None for r in results)


def test_cmplog_logs_literal_compares_identically():
    source = """
    fn main(input) {
        var s = "MAGIC";
        var t = s;
        if (t == s) {
            if (memcmp(input, 0, s, 0, 5) == 0) { return 1; }
        }
        if (memcmp(input, 0, "MAG", 0, 3) == 0) { return 2; }
        return 0;
    }
    """
    run_everywhere(source, [b"MAGIC", b"MAGXX", b"", b"MA"])
    program = compile_source(source)
    ref = interp_execute(program, b"MAGXX", cmplog=True)
    got = compile_program(program).execute(b"MAGXX", cmplog=True)
    assert _result_key(got) == _result_key(ref)
    assert (b"MAGXX", b"MAGIC") in ref.cmp_log
    assert (b"MAG", b"MAG") in ref.cmp_log


def test_unescaped_literals_build_no_ref():
    """A literal read only by memcmp, len, read* or an index never becomes
    an ArrayRef in the generated code; one that escapes does, once."""
    quiet = compile_source(
        'fn main(input) { var s = "key"; if (len(input) < 3) { return s[1]; }'
        " return memcmp(input, 0, s, 0, 3) + len(s) + read16(s, 1); }"
    )
    loud = compile_source('fn main(input) { var s = "key"; var t = s; return t == s; }')
    for program, refs in ((quiet, 0), (loud, 1)):
        instrumentation = feedback_by_name("edge").instrument(program)
        for cmplog in (False, True):
            text = "".join(generate_sources(program, instrumentation, None, cmplog))
            assert text.count("ArrayRef(") == refs, text
