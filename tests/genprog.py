"""Random structured MiniC program generation for property-based tests.

Hypothesis strategies that build random-but-valid MiniC sources: nested
ifs/whiles/fors over a small pool of integer variables, short-circuit
conditions, and array traffic on the input.  Every generated program
compiles; loops are bounded by construction so executions terminate well
inside the instruction budget: each ``while`` counts in the guard of its
own nesting depth, so an inner loop never resets an outer loop's counter.
"""

from hypothesis import strategies as st

VARS = ["a", "b", "c"]

# Compound statements (if/while/for) nest below this depth; a while at
# depth d counts in guard<d>.
MAX_NEST = 2


@st.composite
def expressions(draw, depth=0):
    choice = draw(st.integers(0, 5 if depth < 2 else 2))
    if choice == 0:
        return str(draw(st.integers(0, 100)))
    if choice == 1:
        return draw(st.sampled_from(VARS))
    if choice == 2:
        return "in0"  # first input byte, loaded once up front
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    if choice == 3:
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        return "(%s %s %s)" % (left, op, right)
    if choice == 4:
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return "(%s %s %s)" % (left, op, right)
    op = draw(st.sampled_from(["&&", "||"]))
    return "(%s %s %s)" % (left, op, right)


@st.composite
def statements(draw, depth=0, in_loop=False):
    max_kind = 5 if depth < MAX_NEST else 2
    kind = draw(st.integers(0, max_kind))
    if kind == 0:
        var = draw(st.sampled_from(VARS))
        return "%s = %s;" % (var, draw(expressions()))
    if kind == 1:
        return "acc = acc + %s;" % draw(st.sampled_from(VARS))
    if kind == 2:
        if in_loop and draw(st.booleans()):
            return draw(st.sampled_from(["break;", "continue;"]))
        var = draw(st.sampled_from(VARS))
        return "%s = %s & 255;" % (var, draw(expressions()))
    if kind == 3:
        cond = draw(expressions())
        then = draw(blocks(depth=depth + 1, in_loop=in_loop))
        if draw(st.booleans()):
            other = draw(blocks(depth=depth + 1, in_loop=in_loop))
            return "if (%s) { %s } else { %s }" % (cond, then, other)
        return "if (%s) { %s }" % (cond, then)
    if kind == 4:
        # Bounded while: its depth's own counter guarantees termination.
        body = draw(blocks(depth=depth + 1, in_loop=True))
        limit = draw(st.integers(1, 6))
        return "guard%d = 0; while (guard%d < %d) { guard%d = guard%d + 1; %s }" % (
            depth, depth, limit, depth, depth, body,
        )
    body = draw(blocks(depth=depth + 1, in_loop=True))
    limit = draw(st.integers(1, 5))
    return "for (var i = 0; i < %d; i = i + 1) { %s }" % (limit, body)


@st.composite
def blocks(draw, depth=0, in_loop=False):
    count = draw(st.integers(1, 3 if depth else 5))
    return " ".join(
        draw(statements(depth=depth, in_loop=in_loop)) for _ in range(count)
    )


@st.composite
def programs(draw):
    """A full MiniC source with one generated main()."""
    body = draw(blocks())
    guards = " ".join("var guard%d = 0;" % depth for depth in range(MAX_NEST))
    return (
        "fn main(input) {\n"
        "    var in0 = 0;\n"
        "    if (len(input) > 0) { in0 = input[0]; }\n"
        "    var a = 1; var b = 2; var c = 3;\n"
        "    var acc = 0; %s\n"
        "    %s\n"
        "    return acc + a + b + c;\n"
        "}\n" % (guards, body)
    )
