"""Random structured MiniC program generation for property-based tests.

Hypothesis strategies that build random-but-valid MiniC sources: nested
ifs/whiles/fors over a small pool of integer variables, short-circuit
conditions, and array traffic on the input.  Every generated program
compiles; loops are bounded by construction so executions terminate well
inside the instruction budget: each ``while`` counts in the guard of its
own nesting depth, so an inner loop never resets an outer loop's counter.

``programs(builtins=True)`` also draws the rest of the VM's surface:
``alloc`` (sizes that fail included), array loads and stores (refs stored
too), ``memcmp``/``copy``/``fill``/``read*`` over in-range and
out-of-range windows, ``len``/``min``/``max``/``abs``, ``trap``,
``/ % << >>`` and unary ``- ~ !``.  Such a program traps often, and a
register may hold an array ref where an integer is expected: every
executor must turn each of those into a VM trap, never a Python
exception.
"""

from hypothesis import strategies as st

VARS = ["a", "b", "c"]

# Compound statements (if/while/for) nest below this depth; a while at
# depth d counts in guard<d>.
MAX_NEST = 2

# Builtin programs: arrays (``box[0]`` holds ``buf``, ``box[1]`` a
# literal's ref and ``box[2]`` an integer, so a load from ``box`` used as
# an array may be either; ``buf[1]`` holds a ref too), window offsets and counts that are mostly in
# range, and allocation sizes that sometimes fail.  Repeats weight a draw.
ARRAYS = ["buf", "buf", "box", "box", "input", '"MAGIC"', "box[0]", "box[1]", "box[2]"]
WINDOW = ["0", "0", "1", "1", "2", "3", "7", "-1", "in0 & 7", "a & 3", "b"]
SIZES = ["0", "3", "8", "-1", "1048577", "in0 & 15"]
PRELUDE = (
    "var buf = alloc(8); var box = alloc(3);"
    ' box[0] = buf; box[1] = "MAGIC"; box[2] = in0; buf[1] = box; '
)


@st.composite
def expressions(draw, depth=0, builtins=False):
    last = 5 if depth < 2 else 2
    if builtins and depth < 3:
        # Builtin calls and a unary operator; their operands are one level
        # deeper.
        last += 3
    choice = draw(st.integers(0, last))
    if choice == 0:
        return str(draw(st.integers(0, 100)))
    if choice == 1:
        return draw(st.sampled_from(VARS))
    if choice == 2:
        return "in0"  # first input byte, loaded once up front
    if builtins and depth < 3 and choice == last:
        op = draw(st.sampled_from(["-", "~", "!"]))
        return "%s(%s)" % (op, draw(expressions(depth=depth + 1, builtins=True)))
    if choice > 5 or depth >= 2:
        return draw(builtin_calls(depth))
    left = draw(expressions(depth=depth + 1, builtins=builtins))
    right = draw(expressions(depth=depth + 1, builtins=builtins))
    if choice == 3:
        ops = ["+", "-", "*", "&", "|", "^"]
        if builtins:
            ops += ["/", "%", "<<", ">>"]
        return "(%s %s %s)" % (left, draw(st.sampled_from(ops)), right)
    if choice == 4:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return "(%s %s %s)" % (left, op, right)
    op = draw(st.sampled_from(["&&", "||"]))
    return "(%s %s %s)" % (left, op, right)


@st.composite
def builtin_calls(draw, depth):
    """An integer-valued builtin call or array load."""
    arr = st.sampled_from(ARRAYS)
    win = st.sampled_from(WINDOW)
    inner = expressions(depth=depth + 1, builtins=True)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return "%s[%s]" % (draw(arr), draw(win))
    if kind == 1:
        return "len(%s)" % draw(arr)
    if kind == 2:
        name = draw(st.sampled_from(["min", "max"]))
        return "%s(%s, %s)" % (name, draw(inner), draw(inner))
    if kind == 3:
        return "abs(%s)" % draw(inner)
    if kind == 4:
        return "memcmp(%s, %s, %s, %s, %s)" % (
            draw(arr), draw(win), draw(arr), draw(win), draw(win),
        )
    name = draw(st.sampled_from(["read16", "read32", "read16le", "read32le"]))
    return "%s(%s, %s)" % (name, draw(arr), draw(win))


@st.composite
def builtin_statements(draw):
    """A store, copy, fill, allocation or conditional trap."""
    arr = st.sampled_from(ARRAYS)
    win = st.sampled_from(WINDOW)
    value = expressions(builtins=True)
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return "%s[%s] = %s;" % (draw(arr), draw(win), draw(value))
    if kind == 1:
        return "%s[%s] = %s;" % (draw(arr), draw(win), draw(arr))  # a ref
    if kind == 2:
        return "copy(%s, %s, %s, %s, %s);" % (
            draw(arr), draw(win), draw(arr), draw(win), draw(win),
        )
    if kind == 3:
        return "fill(%s, %s, %s, %s);" % (draw(arr), draw(win), draw(win), draw(value))
    if kind == 4:
        return "box[%d] = alloc(%s);" % (draw(st.integers(0, 2)), draw(st.sampled_from(SIZES)))
    return "if (%s) { trap(%s); }" % (draw(value), draw(value))


@st.composite
def statements(draw, depth=0, in_loop=False, builtins=False):
    max_kind = 5 if depth < MAX_NEST else 2
    kind = draw(st.integers(0, max_kind + builtins))
    if kind > max_kind:
        return draw(builtin_statements())
    exprs = expressions(builtins=builtins)
    if kind == 0:
        var = draw(st.sampled_from(VARS))
        return "%s = %s;" % (var, draw(exprs))
    if kind == 1:
        return "acc = acc + %s;" % draw(st.sampled_from(VARS))
    if kind == 2:
        if in_loop and draw(st.booleans()):
            return draw(st.sampled_from(["break;", "continue;"]))
        var = draw(st.sampled_from(VARS))
        return "%s = %s & 255;" % (var, draw(exprs))
    if kind == 3:
        cond = draw(exprs)
        then = draw(blocks(depth=depth + 1, in_loop=in_loop, builtins=builtins))
        if draw(st.booleans()):
            other = draw(blocks(depth=depth + 1, in_loop=in_loop, builtins=builtins))
            return "if (%s) { %s } else { %s }" % (cond, then, other)
        return "if (%s) { %s }" % (cond, then)
    if kind == 4:
        # Bounded while: its depth's own counter guarantees termination.
        body = draw(blocks(depth=depth + 1, in_loop=True, builtins=builtins))
        limit = draw(st.integers(1, 6))
        return "guard%d = 0; while (guard%d < %d) { guard%d = guard%d + 1; %s }" % (
            depth, depth, limit, depth, depth, body,
        )
    body = draw(blocks(depth=depth + 1, in_loop=True, builtins=builtins))
    limit = draw(st.integers(1, 5))
    return "for (var i = 0; i < %d; i = i + 1) { %s }" % (limit, body)


@st.composite
def blocks(draw, depth=0, in_loop=False, builtins=False):
    count = draw(st.integers(1, 3 if depth else 5))
    return " ".join(
        draw(statements(depth=depth, in_loop=in_loop, builtins=builtins))
        for _ in range(count)
    )


@st.composite
def programs(draw, builtins=False):
    """A full MiniC source with one generated main()."""
    body = draw(blocks(builtins=builtins))
    guards = " ".join("var guard%d = 0;" % depth for depth in range(MAX_NEST))
    return (
        "fn main(input) {\n"
        "    var in0 = 0;\n"
        "    if (len(input) > 0) { in0 = input[0]; }\n"
        "    var a = 1; var b = 2; var c = 3;\n"
        "    var acc = 0; %s\n"
        "    %s%s\n"
        "    return acc + a + b + c;\n"
        "}\n" % (guards, PRELUDE if builtins else "", body)
    )
