"""Mutation operators.

The havoc stage stacks a random number of the operators below, as AFL++
does; the reduced ``legacy`` set approximates the older AFL 2.52b stack used
by the PathAFL/AFL baselines (no dictionary-less token intelligence, fewer
width-aware arithmetic variants).

All operators work on a ``bytearray`` and respect ``max_len``.

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
``tests/test_mutators.py`` keeps the original operators as an oracle.
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
    tuple((v & 0xFFFF).to_bytes(2, order) for v in INTERESTING_16)
    for order in ("big", "little")
)
_INTERESTING_32_BYTES = tuple(
    tuple((v & 0xFFFFFFFF).to_bytes(4, order) for v in INTERESTING_32)
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


def flip_bit(rng, data, max_len):
    if not data:
        return False
    gb = rng.getrandbits
    n = len(data) << 3
    k = n.bit_length()
    pos = gb(k)
    while pos >= n:
        pos = gb(k)
    data[pos >> 3] ^= 128 >> (pos & 7)
    return True


def set_random_byte(rng, data, max_len):
    if not data:
        return False
    gb = rng.getrandbits
    value = gb(9)
    while value >= 256:
        value = gb(9)
    n = len(data)
    k = n.bit_length()
    pos = gb(k)
    while pos >= n:
        pos = gb(k)
    data[pos] = value
    return True


def set_interesting_byte(rng, data, max_len):
    if not data:
        return False
    gb = rng.getrandbits
    i = gb(4)
    while i >= 9:
        i = gb(4)
    n = len(data)
    k = n.bit_length()
    pos = gb(k)
    while pos >= n:
        pos = gb(k)
    data[pos] = INTERESTING_8_U8[i]
    return True


def set_interesting_word(rng, data, max_len):
    n = len(data) - 1
    if n < 1:
        return False
    gb = rng.getrandbits
    k = n.bit_length()
    start = gb(k)
    while start >= n:
        start = gb(k)
    i = gb(4)
    while i >= 10:
        i = gb(4)
    data[start : start + 2] = _INTERESTING_16_BYTES[rng.random() >= 0.5][i]
    return True


def set_interesting_dword(rng, data, max_len):
    n = len(data) - 3
    if n < 1:
        return False
    gb = rng.getrandbits
    k = n.bit_length()
    start = gb(k)
    while start >= n:
        start = gb(k)
    i = gb(3)
    while i >= 7:
        i = gb(3)
    data[start : start + 4] = _INTERESTING_32_BYTES[rng.random() >= 0.5][i]
    return True


def arith_byte(rng, data, max_len):
    if not data:
        return False
    gb = rng.getrandbits
    n = len(data)
    k = n.bit_length()
    pos = gb(k)
    while pos >= n:
        pos = gb(k)
    delta = gb(6)
    while delta >= ARITH_MAX:
        delta = gb(6)
    delta += 1
    if rng.random() < 0.5:
        delta = -delta
    data[pos] = (data[pos] + delta) & 0xFF
    return True


def arith_word(rng, data, max_len):
    n = len(data) - 1
    if n < 1:
        return False
    gb = rng.getrandbits
    k = n.bit_length()
    start = gb(k)
    while start >= n:
        start = gb(k)
    order = "big" if rng.random() < 0.5 else "little"
    value = int.from_bytes(data[start : start + 2], order)
    delta = gb(6)
    while delta >= ARITH_MAX:
        delta = gb(6)
    delta += 1
    if rng.random() < 0.5:
        delta = -delta
    data[start : start + 2] = ((value + delta) & 0xFFFF).to_bytes(2, order)
    return True


def clone_block(rng, data, max_len):
    length = len(data)
    if not data or length >= max_len:
        return False
    gb = rng.getrandbits
    n = min(length, max_len - length)
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
    n = length + 1
    k = n.bit_length()
    dst = gb(k)
    while dst >= n:
        dst = gb(k)
    data[dst:dst] = data[src : src + size]
    return True


def insert_random_block(rng, data, max_len):
    length = len(data)
    if length >= max_len:
        return False
    gb = rng.getrandbits
    n = min(16, max_len - length)
    k = n.bit_length()
    size = gb(k)
    while size >= n:
        size = gb(k)
    n = length + 1
    k = n.bit_length()
    dst = gb(k)
    while dst >= n:
        dst = gb(k)
    data[dst:dst] = random_bytes(rng, size + 1)
    return True


def delete_block(rng, data, max_len):
    length = len(data)
    if length < 2:
        return False
    gb = rng.getrandbits
    n = length - 1
    k = n.bit_length()
    size = gb(k)
    while size >= n:
        size = gb(k)
    size += 1
    n = length - size + 1
    k = n.bit_length()
    start = gb(k)
    while start >= n:
        start = gb(k)
    del data[start : start + size]
    return True


def overwrite_block(rng, data, max_len):
    length = len(data)
    if length < 2:
        return False
    gb = rng.getrandbits
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
    dst = gb(k)
    while dst >= n:
        dst = gb(k)
    data[dst : dst + size] = data[src : src + size]
    return True


def _dict_op(insert):
    def op(rng, data, max_len, tokens):
        if not tokens:
            return False
        gb = rng.getrandbits
        n = len(tokens)
        k = n.bit_length()
        i = gb(k)
        while i >= n:
            i = gb(k)
        token = tokens[i]
        if insert:
            if len(data) + len(token) > max_len:
                return False
            width = 0
        else:
            width = len(token)
            if width > len(data):
                return False
        n = len(data) - width + 1
        k = n.bit_length()
        dst = gb(k)
        while dst >= n:
            dst = gb(k)
        data[dst : dst + width] = token
        return True

    return op


overwrite_token = _dict_op(insert=False)
insert_token = _dict_op(insert=True)

# The modern (AFL++-like) havoc repertoire.
HAVOC_OPS = (
    flip_bit,
    set_random_byte,
    set_interesting_byte,
    set_interesting_word,
    set_interesting_dword,
    arith_byte,
    arith_word,
    clone_block,
    insert_random_block,
    delete_block,
    overwrite_block,
)

# The reduced AFL 2.52b-era repertoire for the baselines of Appendix C.
LEGACY_OPS = (
    flip_bit,
    set_random_byte,
    set_interesting_byte,
    arith_byte,
    clone_block,
    delete_block,
    overwrite_block,
)


def havoc(rng, data, max_len, tokens=(), legacy=False):
    """Apply a stacked random mutation to ``data`` (returns a new bytes).

    Stacks ``2**(1..6)`` operators as AFL does; dictionary operators join
    the pool when ``tokens`` are available.
    """
    buf = bytearray(data)
    ops = LEGACY_OPS if legacy else HAVOC_OPS
    gb = rng.getrandbits
    random = rng.random
    n_ops = len(ops)
    k_ops = n_ops.bit_length()
    shift = gb(3)
    while shift >= 6:
        shift = gb(3)
    for _ in range(2 << shift):
        if tokens and random() < 0.15:
            if random() < 0.5:
                overwrite_token(rng, buf, max_len, tokens)
            else:
                insert_token(rng, buf, max_len, tokens)
            continue
        i = gb(k_ops)
        while i >= n_ops:
            i = gb(k_ops)
        ops[i](rng, buf, max_len)
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


def deterministic_mutations(data, tokens=()):
    """A light deterministic stage: walking byte flips + token overwrites.

    Yields candidate inputs.  AFL++ skips full deterministic stages by
    default; this trimmed version is only run for favored entries when the
    engine is configured with ``use_det=True``.
    """
    for pos in range(len(data)):
        buf = bytearray(data)
        buf[pos] ^= 0xFF
        yield bytes(buf)
    for token in tokens:
        for pos in range(0, max(len(data) - len(token) + 1, 0), max(len(token), 1)):
            buf = bytearray(data)
            buf[pos : pos + len(token)] = token
            yield bytes(buf)
