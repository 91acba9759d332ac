"""Mutation operators.

The havoc stage stacks a random number of operators, as AFL++ does; the
reduced ``legacy`` set approximates the older AFL 2.52b stack used by the
PathAFL/AFL baselines (no dictionary-less token intelligence, fewer
width-aware arithmetic variants).  ``havoc`` runs every operator as a
branch of one loop over a ``bytearray``, named by the codes below, and
respects ``max_len``.

Stream contract: every draw below consumes exactly the Mersenne-Twister
words that ``random.Random.randrange``/``choice`` would, in the same order,
but is written inline on ``getrandbits`` with CPython's rejection rule
(``_randbelow_with_getrandbits``, unchanged in 3.9-3.12)::

    k = n.bit_length(); r = getrandbits(k)
    while r >= n: r = getrandbits(k)        # r == randrange(n)

``randrange(a, b)`` is ``a`` plus such a draw below ``b - a``, ``choice(seq)``
is ``seq`` indexed by a draw below ``len(seq)``, and ``rng.random()`` calls
stay as they are.  Where the original read ``data[randrange(n)] =
randrange(256)`` the value is drawn before the position, as Python
evaluates the right-hand side first.  Changing which words a draw consumes,
or their order, changes every campaign trajectory and must re-bless both
``tests/test_trajectory_pin.py`` and ``tests/test_targeted_pin.py``;
``tests/test_mutators.py`` keeps the original operators, one function
each, as an oracle for every branch.
"""

INTERESTING_8 = (-128, -1, 0, 1, 16, 32, 64, 100, 127)
INTERESTING_16 = (-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767)
INTERESTING_32 = (-2147483648, -100663046, 32768, 65535, 65536, 100663045, 2147483647)

ARITH_MAX = 35

# The draws below spell out the bit widths of these sizes as literals: 9 and
# 10 entries take 4 bits, 7 entries 3 bits, ARITH_MAX 6 bits and a byte value
# (below 256) 9 bits.  The oracle in tests/test_mutators.py fails if a size
# changes without its width.

# The interesting values as the bytes they are written as, indexed like the
# tuples above: byte values, and (big-endian, little-endian) encodings.
INTERESTING_8_U8 = tuple(v & 0xFF for v in INTERESTING_8)
_INTERESTING_16_BYTES = tuple(
    tuple(tuple((v & 0xFFFF).to_bytes(2, order)) for v in INTERESTING_16)
    for order in ("big", "little")
)
_INTERESTING_32_BYTES = tuple(
    tuple(tuple((v & 0xFFFFFFFF).to_bytes(4, order)) for v in INTERESTING_32)
    for order in ("big", "little")
)


def random_bytes(rng, size):
    """A bytearray of ``size`` bytes, each drawn as ``randrange(256)`` would be."""
    gb = rng.getrandbits
    block = bytearray(size)
    for i in range(size):
        value = gb(9)
        while value >= 256:
            value = gb(9)
        block[i] = value
    return block


# Operator codes.  ``havoc`` branches on ranges of them, so the groups
# that share draws stay adjacent: the one-byte operators, the word and dword
# operators, the growing blocks, the same-size-or-shrinking blocks, tokens.
(
    FLIP_BIT,
    SET_RANDOM_BYTE,
    SET_INTERESTING_BYTE,
    SET_INTERESTING_WORD,
    SET_INTERESTING_DWORD,
    ARITH_BYTE,
    ARITH_WORD,
    CLONE_BLOCK,
    INSERT_RANDOM_BLOCK,
    DELETE_BLOCK,
    OVERWRITE_BLOCK,
    OVERWRITE_TOKEN,
    INSERT_TOKEN,
) = range(13)

# The modern (AFL++-like) havoc repertoire, in the order the operator draw
# indexes it.  The token operators are drawn apart, when there are tokens.
HAVOC_OPS = (
    FLIP_BIT,
    SET_RANDOM_BYTE,
    SET_INTERESTING_BYTE,
    SET_INTERESTING_WORD,
    SET_INTERESTING_DWORD,
    ARITH_BYTE,
    ARITH_WORD,
    CLONE_BLOCK,
    INSERT_RANDOM_BLOCK,
    DELETE_BLOCK,
    OVERWRITE_BLOCK,
)

# The reduced AFL 2.52b-era repertoire for the baselines of Appendix C.
LEGACY_OPS = (
    FLIP_BIT,
    SET_RANDOM_BYTE,
    SET_INTERESTING_BYTE,
    ARITH_BYTE,
    CLONE_BLOCK,
    DELETE_BLOCK,
    OVERWRITE_BLOCK,
)


def havoc(rng, data, max_len, tokens=(), legacy=False):
    """Apply a stacked random mutation to ``data`` (returns a new bytes).

    Stacks ``2**(1..6)`` operators as AFL does; dictionary operators join
    the pool when ``tokens`` are available.  Each operator is a branch of
    the loop below.  One that does not fit the buffer is skipped without a
    draw, except that a token operator has drawn its token by then.
    """
    buf = bytearray(data)
    ops = LEGACY_OPS if legacy else HAVOC_OPS
    gb = rng.getrandbits
    random = rng.random
    n_ops = len(ops)
    k_ops = n_ops.bit_length()
    n_tokens = len(tokens)
    k_tokens = n_tokens.bit_length()
    shift = gb(3)
    while shift >= 6:
        shift = gb(3)
    length = len(buf)
    for _ in range(2 << shift):
        if tokens and random() < 0.15:
            op = OVERWRITE_TOKEN if random() < 0.5 else INSERT_TOKEN
        else:
            i = gb(k_ops)
            while i >= n_ops:
                i = gb(k_ops)
            op = ops[i]
        if op < CLONE_BLOCK:
            if op <= SET_INTERESTING_BYTE:
                if not length:
                    continue
                if op == FLIP_BIT:
                    n = length << 3
                    k = n.bit_length()
                    pos = gb(k)
                    while pos >= n:
                        pos = gb(k)
                    buf[pos >> 3] ^= 128 >> (pos & 7)
                    continue
                if op == SET_RANDOM_BYTE:
                    value = gb(9)
                    while value >= 256:
                        value = gb(9)
                else:
                    i = gb(4)
                    while i >= 9:
                        i = gb(4)
                    value = INTERESTING_8_U8[i]
                k = length.bit_length()
                pos = gb(k)
                while pos >= length:
                    pos = gb(k)
                buf[pos] = value
            elif op == ARITH_BYTE:
                if not length:
                    continue
                k = length.bit_length()
                pos = gb(k)
                while pos >= length:
                    pos = gb(k)
                delta = gb(6)
                while delta >= ARITH_MAX:
                    delta = gb(6)
                delta += 1
                if random() < 0.5:
                    delta = -delta
                buf[pos] = (buf[pos] + delta) & 0xFF
            elif op == SET_INTERESTING_DWORD:
                n = length - 3
                if n < 1:
                    continue
                k = n.bit_length()
                start = gb(k)
                while start >= n:
                    start = gb(k)
                i = gb(3)
                while i >= 7:
                    i = gb(3)
                (
                    buf[start],
                    buf[start + 1],
                    buf[start + 2],
                    buf[start + 3],
                ) = _INTERESTING_32_BYTES[random() >= 0.5][i]
            else:
                n = length - 1
                if n < 1:
                    continue
                k = n.bit_length()
                start = gb(k)
                while start >= n:
                    start = gb(k)
                if op == SET_INTERESTING_WORD:
                    i = gb(4)
                    while i >= 10:
                        i = gb(4)
                    pair = _INTERESTING_16_BYTES[random() >= 0.5][i]
                    buf[start], buf[start + 1] = pair
                    continue
                # ARITH_WORD: the byte order is drawn before the delta.
                if random() < 0.5:
                    high, low = start, start + 1
                else:
                    high, low = start + 1, start
                delta = gb(6)
                while delta >= ARITH_MAX:
                    delta = gb(6)
                delta += 1
                if random() < 0.5:
                    delta = -delta
                value = (buf[high] << 8 | buf[low]) + delta
                buf[high] = value >> 8 & 0xFF
                buf[low] = value & 0xFF
        elif op <= INSERT_RANDOM_BLOCK:
            if length >= max_len:
                continue
            if op == CLONE_BLOCK:
                if not length:
                    continue
                n = min(length, max_len - length)
            else:
                n = min(16, max_len - length)
            k = n.bit_length()
            size = gb(k)
            while size >= n:
                size = gb(k)
            size += 1
            if op == CLONE_BLOCK:
                n = length - size + 1
                k = n.bit_length()
                src = gb(k)
                while src >= n:
                    src = gb(k)
            n = length + 1
            k = n.bit_length()
            dst = gb(k)
            while dst >= n:
                dst = gb(k)
            length += size
            if op == CLONE_BLOCK:
                buf[dst:dst] = buf[src : src + size]
                continue
            block = bytearray(size)
            for j in range(size):
                value = gb(9)
                while value >= 256:
                    value = gb(9)
                block[j] = value
            buf[dst:dst] = block
        elif op <= OVERWRITE_BLOCK:
            if length < 2:
                continue
            n = length - 1
            k = n.bit_length()
            size = gb(k)
            while size >= n:
                size = gb(k)
            size += 1
            n = length - size + 1
            k = n.bit_length()
            src = gb(k)
            while src >= n:
                src = gb(k)
            if op == DELETE_BLOCK:
                del buf[src : src + size]
                length -= size
                continue
            dst = gb(k)
            while dst >= n:
                dst = gb(k)
            buf[dst : dst + size] = buf[src : src + size]
        else:
            i = gb(k_tokens)
            while i >= n_tokens:
                i = gb(k_tokens)
            token = tokens[i]
            if op == INSERT_TOKEN:
                if length + len(token) > max_len:
                    continue
                width = 0
            else:
                width = len(token)
                if width > length:
                    continue
            n = length - width + 1
            k = n.bit_length()
            dst = gb(k)
            while dst >= n:
                dst = gb(k)
            buf[dst : dst + width] = token
            length += len(token) - width
    if not buf:
        buf += random_bytes(rng, 1)
    return bytes(buf)


def splice(rng, first, second):
    """AFL's splice: the head of one input glued to the tail of another."""
    if not first or not second:
        return bytes(first or second or b"\x00")
    gb = rng.getrandbits
    n = len(first)
    k = n.bit_length()
    cut_a = gb(k)
    while cut_a >= n:
        cut_a = gb(k)
    n = len(second) + 1
    k = n.bit_length()
    cut_b = gb(k)
    while cut_b >= n:
        cut_b = gb(k)
    return bytes(first[: cut_a + 1] + second[cut_b:])
