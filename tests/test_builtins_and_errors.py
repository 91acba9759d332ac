"""Consistency tests for the builtin registry and diagnostics, and the
builtins' trap rules on every executor."""

import re

import pytest

from repro.lang import compile_source
from repro.lang.builtins_spec import BUILTIN_CODES, BUILTIN_NAMES, BUILTINS
from repro.lang.errors import LexError, MiniCError, ParseError, SemaError
from repro.runtime import traps
from repro.runtime.interpreter import execute as interp_execute
from tests.executors import run_all_executors


def test_builtin_codes_bijective():
    assert len(BUILTIN_CODES) == len(BUILTINS)
    assert sorted(BUILTIN_CODES.values()) == list(range(len(BUILTINS)))
    for name, code in BUILTIN_CODES.items():
        assert BUILTIN_NAMES[code] == name


def test_builtin_arities_positive():
    for name, arity in BUILTINS.items():
        assert arity >= 1, name


def test_vm_dispatch_covers_every_builtin():
    from repro.runtime.interpreter import _BUILTIN_DISPATCH

    assert set(_BUILTIN_DISPATCH) == set(BUILTIN_CODES.values())


def test_error_hierarchy():
    assert issubclass(LexError, MiniCError)
    assert issubclass(ParseError, MiniCError)
    assert issubclass(SemaError, MiniCError)


def test_error_message_includes_line():
    err = ParseError("boom", line=12)
    assert "line 12" in str(err)
    assert err.message == "boom"
    assert err.line == 12


def test_error_without_line():
    err = LexError("plain")
    assert str(err) == "plain"
    assert err.line == 0


def test_every_builtin_callable_from_minic():
    """Each builtin compiles and executes with plausible arguments."""
    from repro.runtime import execute

    calls = {
        "alloc": "len(alloc(3))",
        "len": "len(input)",
        "abs": "abs(0 - 4)",
        "min": "min(2, 9)",
        "max": "max(2, 9)",
        "memcmp": 'memcmp(input, 0, "a", 0, 1)',
        "copy": "copy(alloc(4), 0, input, 0, 1)",
        "fill": "fill(alloc(4), 0, 2, 7)",
        "read16": "read16(input, 0)",
        "read32": "read32(input, 0)",
        "read16le": "read16le(input, 0)",
        "read32le": "read32le(input, 0)",
    }
    assert set(calls) == set(BUILTINS) - {"trap"}
    for name, expr in calls.items():
        program = compile_source("fn main(input) { return %s; }" % expr)
        result = execute(program, b"abcdef")
        assert not result.crashed, name


# -- trap rules: one row per (check, rule), on every executor ------------------
#
# Each row is one builtin call, operator, array access or call with its
# operands and what it must do: a return value (``None``: a ref, compared
# across executors only) or a ``(trap kind, detail)``; a detail naming a
# ref index is a pattern, since the ref's array id depends on the mode.
# Every row is rendered three ways, so each rule is exercised on run-time
# operands (every operand loaded from a heap cell, so codegen knows
# neither its class nor its value), on codegen-constant
# operands (integer literals, arrays of proven class) and on string-literal
# operands (every read-only window a literal).  Each rendering runs under
# the interpreter, the compiled backend, taint tracking and concolic
# extraction, cmplog off and on, under ``edge`` and ``path``; all
# must agree field for field with the interpreter.

# Argument shapes: an integer, a writable array, a readable array (a
# string literal when operands are literals), a read-only string, and a
# writable array whose first cell holds a ref to itself.
I, A, R, S, H = "int", "array", "readable", "string", "holder"

TC, OOB_R, OOB_W = traps.TYPE_CONFUSION, traps.OOB_READ, traps.OOB_WRITE
NOT_INT, NOT_ARR = (TC, "expected an integer"), (TC, "expected an array")


def _range(kind, lo, hi, size):
    return kind, "range [%d, %d) of %d" % (lo, hi, size)


ROWS = [
    # (id, builtin, args, expected)
    ("alloc-ok", "alloc", [(I, 3)], None),
    ("alloc-type0", "alloc", [(A, b"AB")], NOT_INT),
    ("alloc-negative", "alloc", [(I, -1)], (traps.BAD_ALLOC, "alloc(-1)")),
    ("alloc-huge", "alloc", [(I, 1048577)], (traps.BAD_ALLOC, "alloc(1048577)")),
    ("len-ok", "len", [(R, b"ABC")], 3),
    ("len-type0", "len", [(I, 5)], NOT_ARR),
    ("abs-ok", "abs", [(I, -5)], 5),
    ("abs-type0", "abs", [(A, b"AB")], NOT_INT),
    ("min-ok", "min", [(I, 4), (I, -2)], -2),
    ("min-type0", "min", [(A, b"AB"), (I, 1)], NOT_INT),
    ("min-type1", "min", [(I, 1), (S, b"ab")], NOT_INT),
    ("min-wrapped-literal", "min", [(I, (1 << 64) - 1), (I, 0)], -1),
    ("max-ok", "max", [(I, 4), (I, -2)], 4),
    ("max-type0", "max", [(S, b"ab"), (I, 1)], NOT_INT),
    ("max-type1", "max", [(I, 1), (A, b"AB")], NOT_INT),
    ("memcmp-equal", "memcmp", [(R, b"ABCD"), (I, 1), (R, b"XBCD"), (I, 1), (I, 3)], 0),
    ("memcmp-differ", "memcmp", [(R, b"ABCD"), (I, 0), (R, b"ABCE"), (I, 0), (I, 4)], 1),
    ("memcmp-empty", "memcmp", [(R, b"AB"), (I, 2), (R, b"XY"), (I, 0), (I, 0)], 0),
    ("memcmp-type0", "memcmp", [(I, 1), (I, 0), (R, b"AB"), (I, 0), (I, 1)], NOT_ARR),
    ("memcmp-type1", "memcmp", [(R, b"AB"), (A, b"AB"), (R, b"AB"), (I, 0), (I, 1)], NOT_INT),
    ("memcmp-type2", "memcmp", [(R, b"AB"), (I, 0), (I, 1), (I, 0), (I, 1)], NOT_ARR),
    ("memcmp-type3", "memcmp", [(R, b"AB"), (I, 0), (R, b"AB"), (A, b"AB"), (I, 1)], NOT_INT),
    ("memcmp-type4", "memcmp", [(R, b"AB"), (I, 0), (R, b"AB"), (I, 0), (S, b"AB")], NOT_INT),
    ("memcmp-type-before-bounds", "memcmp", [(R, b"AB"), (I, 5), (R, b"AB"), (I, 0), (A, b"AB")], NOT_INT),
    ("memcmp-negative-offset0", "memcmp", [(R, b"ABCD"), (I, -1), (R, b"ABCD"), (I, 0), (I, 1)], _range(OOB_R, -1, 0, 4)),
    ("memcmp-negative-count", "memcmp", [(R, b"ABCD"), (I, 0), (R, b"ABCD"), (I, 0), (I, -1)], _range(OOB_R, 0, -1, 4)),
    ("memcmp-overrun0", "memcmp", [(R, b"ABCD"), (I, 3), (R, b"ABCD"), (I, 0), (I, 2)], _range(OOB_R, 3, 5, 4)),
    ("memcmp-negative-offset1", "memcmp", [(R, b"ABCD"), (I, 0), (R, b"AB"), (I, -1), (I, 1)], _range(OOB_R, -1, 0, 2)),
    ("memcmp-overrun1", "memcmp", [(R, b"ABCD"), (I, 0), (R, b"AB"), (I, 1), (I, 2)], _range(OOB_R, 1, 3, 2)),
    ("memcmp-window0-first", "memcmp", [(R, b"AB"), (I, 2), (R, b"AB"), (I, 3), (I, 1)], _range(OOB_R, 2, 3, 2)),
    ("copy-ok", "copy", [(A, b"ABCD"), (I, 1), (R, b"XY"), (I, 0), (I, 2)], 0),
    ("copy-type0", "copy", [(I, 1), (I, 0), (R, b"XY"), (I, 0), (I, 1)], NOT_ARR),
    ("copy-type1", "copy", [(A, b"AB"), (R, b"XY"), (R, b"XY"), (I, 0), (I, 1)], NOT_INT),
    ("copy-type2", "copy", [(A, b"AB"), (I, 0), (I, 1), (I, 0), (I, 1)], NOT_ARR),
    ("copy-type3", "copy", [(A, b"AB"), (I, 0), (R, b"XY"), (S, b"XY"), (I, 1)], NOT_INT),
    ("copy-type4", "copy", [(A, b"AB"), (I, 0), (R, b"XY"), (I, 0), (A, b"XY")], NOT_INT),
    ("copy-readonly", "copy", [(S, b"ABCD"), (I, 0), (R, b"XY"), (I, 0), (I, 1)], (traps.READONLY_WRITE, "copy into constant")),
    ("copy-readonly-before-bounds", "copy", [(S, b"AB"), (I, -1), (R, b"XY"), (I, 0), (I, 1)], (traps.READONLY_WRITE, "copy into constant")),
    ("copy-negative-offset0", "copy", [(A, b"ABCD"), (I, -1), (R, b"XY"), (I, 0), (I, 1)], _range(OOB_W, -1, 0, 4)),
    ("copy-negative-count", "copy", [(A, b"ABCD"), (I, 0), (R, b"XY"), (I, 0), (I, -1)], _range(OOB_W, 0, -1, 4)),
    ("copy-overrun0", "copy", [(A, b"ABCD"), (I, 3), (R, b"XY"), (I, 0), (I, 2)], _range(OOB_W, 3, 5, 4)),
    ("copy-negative-offset1", "copy", [(A, b"ABCD"), (I, 0), (R, b"XY"), (I, -1), (I, 1)], _range(OOB_R, -1, 0, 2)),
    ("copy-overrun1", "copy", [(A, b"ABCD"), (I, 0), (R, b"XY"), (I, 1), (I, 2)], _range(OOB_R, 1, 3, 2)),
    ("fill-ok", "fill", [(A, b"ABCD"), (I, 1), (I, 2), (I, 7)], 0),
    ("fill-type0", "fill", [(I, 1), (I, 0), (I, 1), (I, 7)], NOT_ARR),
    ("fill-type1", "fill", [(A, b"AB"), (S, b"AB"), (I, 1), (I, 7)], NOT_INT),
    ("fill-type2", "fill", [(A, b"AB"), (I, 0), (A, b"AB"), (I, 7)], NOT_INT),
    ("fill-type3", "fill", [(A, b"AB"), (I, 0), (I, 1), (A, b"AB")], NOT_INT),
    ("fill-readonly", "fill", [(S, b"AB"), (I, 0), (I, 1), (I, 7)], (traps.READONLY_WRITE, "fill into constant")),
    ("fill-negative-offset", "fill", [(A, b"ABCD"), (I, -1), (I, 1), (I, 7)], _range(OOB_W, -1, 0, 4)),
    ("fill-negative-count", "fill", [(A, b"ABCD"), (I, 0), (I, -1), (I, 7)], _range(OOB_W, 0, -1, 4)),
    ("fill-overrun", "fill", [(A, b"ABCD"), (I, 3), (I, 2), (I, 7)], _range(OOB_W, 3, 5, 4)),
    ("trap-type0", "trap", [(A, b"AB")], NOT_INT),
    ("trap-assert", "trap", [(I, 7)], (traps.ASSERT_FAIL, "trap(7)")),
    # A window holding a ref: memcmp compares it (cmplog logs no entry).
    ("memcmp-ref-window0", "memcmp", [(H, b"ABCD"), (I, 0), (R, b"ABCD"), (I, 0), (I, 2)], 1),
    ("memcmp-ref-window1", "memcmp", [(R, b"ABCD"), (I, 0), (H, b"ABCD"), (I, 0), (I, 4)], 1),
    ("memcmp-past-ref", "memcmp", [(H, b"ABCD"), (I, 1), (R, b"ABCD"), (I, 1), (I, 3)], 0),
    ("copy-ref-window", "copy", [(A, b"ABCD"), (I, 0), (H, b"XY"), (I, 0), (I, 2)], 0),
]
for _name, _width, _value in (
    ("read16", 2, 0x4243),
    ("read32", 4, 0x42434445),
    ("read16le", 2, 0x4342),
    ("read32le", 4, 0x45444342),
):
    ROWS += [
        ("%s-ok" % _name, _name, [(R, b"ABCDE"), (I, 1)], _value),
        ("%s-type0" % _name, _name, [(I, 1), (I, 0)], NOT_ARR),
        ("%s-type1" % _name, _name, [(R, b"ABCDE"), (S, b"AB")], NOT_INT),
        ("%s-negative-offset" % _name, _name, [(R, b"ABCDE"), (I, -1)], _range(OOB_R, -1, _width - 1, 5)),
        ("%s-overrun" % _name, _name, [(R, b"ABCDE"), (I, 4)], _range(OOB_R, 4, 4 + _width, 5)),
        ("%s-ref-window" % _name, _name, [(H, b"ABCDE"), (I, 0)], (TC, "array read as bytes")),
        ("%s-past-ref" % _name, _name, [(H, b"ABCDE"), (I, 1)], _value),
    ]


# Operators, array accesses and calls: their rendered statement (``{j}`` is
# operand ``j``); any other row name is a call.  A ``br`` row fuses its
# compare into the branch.  UN traps carry line 0: the IR has no line for
# them.
FORMS = {op: "return {0} %s {1};" % op for op in (
    "+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^",
    "<", "<=", ">", ">=", "==", "!=",
)}
FORMS.update(
    {"br" + op: "if ({0} %s {1}) {{ return 1; }} return 0;" % op for op in ("<", "<=", ">", ">=")}
)
FORMS.update({"neg": "return -{0};", "bnot": "return ~{0};", "lnot": "return !{0};"})
FORMS.update({"load": "return {0}[{1}];", "store": "{0}[{1}] = {2}; return 0;"})
UNARY = ("neg", "bnot", "lnot")

DZ, SR = traps.DIV_BY_ZERO, traps.SHIFT_RANGE
NOT_NUM, NOT_INDEXABLE = (TC, "array used as integer"), (TC, "indexing a non-array")
RO = (traps.READONLY_WRITE, "write to constant")
MIN = 1 << 63  # wraps to INT64_MIN when lowered


def _index(kind, idx, size):
    return kind, "index %d of %d" % (idx, size)


def _ref_index(kind, size):
    return kind, re.compile(r"index ArrayRef\(#\d+, rw\) of %d" % size)


ROWS += [
    ("div-ok", "/", [(I, -7), (I, 2)], -3),
    ("mod-ok", "%", [(I, -7), (I, 2)], -1),
    ("div-zero", "/", [(I, 7), (I, 0)], (DZ, "division by zero")),
    ("mod-zero", "%", [(I, 7), (I, 0)], (DZ, "modulo by zero")),
    ("div-zero-ref-dividend", "/", [(R, b"AB"), (I, 0)], (DZ, "division by zero")),
    ("mod-zero-ref-dividend", "%", [(A, b"AB"), (I, 0)], (DZ, "modulo by zero")),
    ("div-ref-divisor", "/", [(I, 7), (R, b"AB")], NOT_NUM),
    ("mod-ref-dividend", "%", [(R, b"AB"), (I, 3)], NOT_NUM),
    ("shl-ok", "<<", [(I, 3), (I, 2)], 12),
    ("shl-ref-amount", "<<", [(I, 3), (R, b"AB")], NOT_NUM),
    ("shl-ref-range", "<<", [(R, b"AB"), (I, 70)], (SR, "shift by 70")),
    ("shl-negative", "<<", [(I, 5), (I, -1)], (SR, "shift by -1")),
    ("shr-range", ">>", [(I, 5), (I, 64)], (SR, "shift by 64")),
    ("shr-ref", ">>", [(A, b"AB"), (I, 1)], NOT_NUM),
    ("add-ref", "+", [(R, b"AB"), (I, 1)], NOT_NUM),
    ("sub-ref", "-", [(I, 1), (A, b"AB")], NOT_NUM),
    ("mul-ref", "*", [(S, b"AB"), (I, 2)], NOT_NUM),
    ("and-ref", "&", [(I, 1), (R, b"AB")], NOT_NUM),
    ("eq-ref", "==", [(R, b"AB"), (I, 1)], 0),
    ("ne-ref", "!=", [(I, 1), (A, b"AB")], 1),
]
for _op in ("<", "<=", ">", ">="):
    ROWS += [
        ("cmp%s-ref" % _op, _op, [(R, b"AB"), (I, 1)], NOT_NUM),
        ("br%s-ref" % _op, "br" + _op, [(I, 1), (R, b"AB")], NOT_NUM),
    ]
ROWS += [
    ("br<-ok", "br<", [(I, 1), (I, 2)], 1),
    ("neg-min", "neg", [(I, MIN)], -MIN),
    ("neg-ref", "neg", [(R, b"AB")], (TC, "array in arithmetic")),
    ("bnot-ref", "bnot", [(A, b"AB")], (TC, "array in arithmetic")),
    ("lnot-ref", "lnot", [(R, b"AB")], 0),
    ("load-ok", "load", [(R, b"ABC"), (I, 1)], 66),
    ("load-int", "load", [(I, 5), (I, 0)], NOT_INDEXABLE),
    ("load-int-ref-index", "load", [(I, 5), (A, b"AB")], NOT_INDEXABLE),
    ("load-negative", "load", [(R, b"ABC"), (I, -1)], _index(OOB_R, -1, 3)),
    ("load-at-length", "load", [(R, b"ABC"), (I, 3)], _index(OOB_R, 3, 3)),
    ("load-literal-ref-index", "load", [(R, b"MAGIC"), (A, b"AB")], _ref_index(OOB_R, 5)),
    ("load-ref-index", "load", [(A, b"ABCD"), (A, b"X")], _ref_index(OOB_R, 4)),
    ("load-ref-cell", "load", [(H, b"AB"), (I, 0)], None),
    ("store-ok", "store", [(A, b"ABCD"), (I, 3), (I, 9)], 0),
    ("store-int", "store", [(I, 5), (I, 0), (I, 1)], NOT_INDEXABLE),
    ("store-literal", "store", [(S, b"AB"), (I, 0), (I, 1)], RO),
    ("store-literal-oob", "store", [(S, b"AB"), (I, 5), (I, 1)], RO),
    ("store-literal-ref-index", "store", [(S, b"AB"), (A, b"X"), (I, 1)], RO),
    ("store-negative", "store", [(A, b"ABCD"), (I, -1), (I, 1)], _index(OOB_W, -1, 4)),
    ("store-overrun", "store", [(A, b"ABCDEFGH"), (I, 8), (I, 1)], _index(OOB_W, 8, 8)),
    ("store-ref-index", "store", [(A, b"ABCD"), (A, b"X"), (I, 1)], _ref_index(OOB_W, 4)),
    ("store-ref-value", "store", [(A, b"ABCD"), (I, 0), (A, b"X")], 0),
    ("call-depth", "main", [(I, 1)], (traps.STACK_OVERFLOW, "call depth exceeded")),
]

MODES = ("runtime", "constant", "literal")


def _array_lines(var, data):
    """``var = alloc(len(data))``, filled with ``data``."""
    cells = "".join(" %s[%d] = %d;" % (var, i, b) for i, b in enumerate(data))
    return "    var %s = alloc(%d);%s" % (var, len(data), cells)


def _literal(data):
    return '"%s"' % data.decode("ascii")


def render(builtin, args, mode):
    """MiniC source whose ``main`` ends in the row's statement in ``mode``."""
    lines, operands = [], []
    if mode == "runtime":
        lines.append("    var box = alloc(%d);" % len(args))
    for j, (shape, value) in enumerate(args):
        if shape in (A, R, H) and not (shape == R and mode == "literal"):
            lines.append(_array_lines("v%d" % j, value))
            if shape == H:
                lines.append("    v%d[0] = v%d;" % (j, j))
            expr = "v%d" % j
        elif shape in (R, S):
            expr = _literal(value)
        else:
            expr = "%d" % value
        if mode == "runtime":
            lines.append("    box[%d] = %s;" % (j, expr))
            expr = "box[%d]" % j
        elif mode == "constant" and shape == S:
            lines.append("    var v%d = %s;" % (j, expr))
            expr = "v%d" % j
        operands.append(expr)
    form = FORMS.get(builtin)
    if form is None:
        lines.append("    return %s(%s);" % (builtin, ", ".join(operands)))
    else:
        lines.append("    " + form.format(*operands))
    return "fn main(input) {\n%s\n}\n" % "\n".join(lines)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "builtin,args,expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_builtin_trap_rules(builtin, args, expected, mode):
    source = render(builtin, args, mode)
    result = run_all_executors(compile_source(source))
    if isinstance(expected, tuple):
        assert result.trap is not None, result.retval
        kind, detail = expected
        assert result.trap.kind == kind
        if isinstance(detail, str):
            assert result.trap.detail == detail
        else:
            assert detail.fullmatch(result.trap.detail), result.trap.detail
        # The statement's own line: the source's last one.
        line = 0 if builtin in UNARY else source.count("\n") - 1
        assert result.trap.line == line
    else:
        assert result.trap is None, result.trap
        if expected is not None:
            assert result.retval == expected


# The ref-window reproducers: a window holding an array ref.
READ_REF = "fn main(input) { var a = alloc(4); a[0] = a; return %s(a, 0); }"
MEMCMP_REF = (
    "fn main(input) { var a = alloc(2); var b = alloc(2); a[0] = b;"
    " if (memcmp(a, 0, b, 0, 2) == 0) { return 1; } return 0; }"
)


@pytest.mark.parametrize("name", ["read16", "read32", "read16le", "read32le"])
def test_read_over_a_ref_traps_type_confusion(name):
    result = run_all_executors(compile_source(READ_REF % name))
    assert (result.trap.kind, result.trap.detail) == (TC, "array read as bytes")


def test_cmplog_memcmp_over_a_ref_keeps_the_plain_result():
    program = compile_source(MEMCMP_REF)
    result = run_all_executors(program)
    assert (result.retval, result.trap) == (0, None)
    # The memcmp logs no entry; the `== 0` compare after it still does.
    assert interp_execute(program, b"", cmplog=True).cmp_log == [(1, 0)]
