"""Mutation-operator tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzer import mutators
from repro.fuzzer.masked import masked_havoc


def rng(seed=0):
    return random.Random(seed)


# Single-operator behaviour is checked on the oracle operators further down;
# the stream-identity tests hold ``havoc`` to them draw for draw.


def test_flip_bit_changes_exactly_one_bit():
    data = bytearray(b"\x00" * 8)
    _oracle_flip_bit(rng(), data, 64)
    assert sum(bin(b).count("1") for b in data) == 1


def test_delete_block_shrinks():
    data = bytearray(b"abcdefgh")
    assert _oracle_delete_block(rng(), data, 64)
    assert 0 < len(data) < 8


def test_clone_block_grows_within_limit():
    data = bytearray(b"abcd")
    assert _oracle_clone_block(rng(), data, 6)
    assert 4 < len(data) <= 6


def test_clone_block_refuses_at_max():
    data = bytearray(b"abcd")
    assert not _oracle_clone_block(rng(), data, 4)


def test_token_overwrite_places_token():
    data = bytearray(b"\x00" * 8)
    assert _oracle_overwrite_token(rng(), data, 64, [b"MAGI"])
    assert b"MAGI" in bytes(data)


def test_token_insert_respects_max_len():
    data = bytearray(b"\x00" * 8)
    assert not _oracle_insert_token(rng(), data, 8, [b"MAGI"])


def test_empty_input_operators_refuse():
    data = bytearray()
    assert not _oracle_flip_bit(rng(), data, 8)
    assert not _oracle_set_random_byte(rng(), data, 8)
    assert not _oracle_delete_block(rng(), data, 8)


def test_havoc_never_returns_empty():
    for seed in range(20):
        result = mutators.havoc(rng(seed), b"", 16)
        assert len(result) >= 1


def test_havoc_deterministic_per_seed():
    a = mutators.havoc(rng(5), b"hello world", 64)
    b = mutators.havoc(rng(5), b"hello world", 64)
    assert a == b


def test_splice_prefix_from_first():
    result = mutators.splice(rng(1), b"AAAA", b"BBBB")
    assert result[0:1] == b"A"
    assert 1 <= len(result) <= 8


def test_splice_with_empty_sides():
    assert mutators.splice(rng(), b"", b"") == b"\x00"
    assert mutators.splice(rng(), b"ab", b"") in (b"a", b"ab")


def test_deterministic_mutations_walk_every_byte():
    variants = list(mutators.deterministic_mutations(b"abc"))
    assert len(variants) == 3
    assert all(len(v) == 3 for v in variants)
    # each variant differs in exactly one position
    for pos, variant in enumerate(variants):
        diffs = [i for i in range(3) if variant[i] != b"abc"[i]]
        assert diffs == [pos]


def test_deterministic_token_stage():
    variants = list(mutators.deterministic_mutations(b"\x00" * 8, [b"AB"]))
    assert any(b"AB" in v for v in variants)


@settings(max_examples=80)
@given(st.binary(min_size=0, max_size=40), st.integers(0, 2 ** 31), st.booleans())
def test_havoc_respects_max_len_property(data, seed, legacy):
    result = mutators.havoc(random.Random(seed), data, 48, legacy=legacy)
    assert 1 <= len(result) <= 48


@settings(max_examples=60)
@given(st.binary(min_size=1, max_size=32), st.integers(0, 2 ** 31))
def test_havoc_with_tokens_property(data, seed):
    tokens = (b"MAGC", b"\xff\xfe")
    result = mutators.havoc(random.Random(seed), data, 40, tokens)
    assert 1 <= len(result) <= 40


# -- stream identity ------------------------------------------------------------
#
# A frozen copy of the operators as first written with ``randrange`` and
# ``choice``, one function per operator.  The kernel in
# ``repro.fuzzer.mutators`` runs them as branches of one loop and draws the
# same Mersenne-Twister words through ``getrandbits`` with CPython's
# rejection rule; these properties check that both return the same bytes and
# leave the generator in the same state.


def _oracle_clip_start(rng, data, width):
    if len(data) < width:
        return None
    return rng.randrange(len(data) - width + 1)


def _oracle_flip_bit(rng, data, max_len):
    if not data:
        return False
    pos = rng.randrange(len(data) * 8)
    data[pos >> 3] ^= 128 >> (pos & 7)
    return True


def _oracle_set_random_byte(rng, data, max_len):
    if not data:
        return False
    data[rng.randrange(len(data))] = rng.randrange(256)
    return True


def _oracle_set_interesting_byte(rng, data, max_len):
    if not data:
        return False
    data[rng.randrange(len(data))] = rng.choice(mutators.INTERESTING_8) & 0xFF
    return True


def _oracle_set_interesting_word(rng, data, max_len):
    start = _oracle_clip_start(rng, data, 2)
    if start is None:
        return False
    value = rng.choice(mutators.INTERESTING_16) & 0xFFFF
    big = rng.random() < 0.5
    data[start : start + 2] = value.to_bytes(2, "big" if big else "little")
    return True


def _oracle_set_interesting_dword(rng, data, max_len):
    start = _oracle_clip_start(rng, data, 4)
    if start is None:
        return False
    value = rng.choice(mutators.INTERESTING_32) & 0xFFFFFFFF
    big = rng.random() < 0.5
    data[start : start + 4] = value.to_bytes(4, "big" if big else "little")
    return True


def _oracle_arith_byte(rng, data, max_len):
    if not data:
        return False
    pos = rng.randrange(len(data))
    delta = rng.randrange(1, mutators.ARITH_MAX + 1)
    if rng.random() < 0.5:
        delta = -delta
    data[pos] = (data[pos] + delta) & 0xFF
    return True


def _oracle_arith_word(rng, data, max_len):
    start = _oracle_clip_start(rng, data, 2)
    if start is None:
        return False
    big = rng.random() < 0.5
    order = "big" if big else "little"
    value = int.from_bytes(data[start : start + 2], order)
    delta = rng.randrange(1, mutators.ARITH_MAX + 1)
    if rng.random() < 0.5:
        delta = -delta
    data[start : start + 2] = ((value + delta) & 0xFFFF).to_bytes(2, order)
    return True


def _oracle_clone_block(rng, data, max_len):
    if not data or len(data) >= max_len:
        return False
    size = rng.randrange(1, min(len(data), max_len - len(data)) + 1)
    src = rng.randrange(len(data) - size + 1)
    dst = rng.randrange(len(data) + 1)
    data[dst:dst] = data[src : src + size]
    return True


def _oracle_insert_random_block(rng, data, max_len):
    if len(data) >= max_len:
        return False
    size = rng.randrange(1, min(16, max_len - len(data)) + 1)
    dst = rng.randrange(len(data) + 1)
    data[dst:dst] = bytes(rng.randrange(256) for _ in range(size))
    return True


def _oracle_delete_block(rng, data, max_len):
    if len(data) < 2:
        return False
    size = rng.randrange(1, len(data))
    start = rng.randrange(len(data) - size + 1)
    del data[start : start + size]
    return True


def _oracle_overwrite_block(rng, data, max_len):
    if len(data) < 2:
        return False
    size = rng.randrange(1, len(data))
    src = rng.randrange(len(data) - size + 1)
    dst = rng.randrange(len(data) - size + 1)
    data[dst : dst + size] = data[src : src + size]
    return True


def _oracle_dict_op(insert):
    def op(rng, data, max_len, tokens):
        if not tokens:
            return False
        token = rng.choice(tokens)
        if insert:
            if len(data) + len(token) > max_len:
                return False
            dst = rng.randrange(len(data) + 1)
            data[dst:dst] = token
            return True
        if len(token) > len(data):
            return False
        dst = rng.randrange(len(data) - len(token) + 1)
        data[dst : dst + len(token)] = token
        return True

    return op


_oracle_overwrite_token = _oracle_dict_op(insert=False)
_oracle_insert_token = _oracle_dict_op(insert=True)

_ORACLE_HAVOC_OPS = (
    _oracle_flip_bit,
    _oracle_set_random_byte,
    _oracle_set_interesting_byte,
    _oracle_set_interesting_word,
    _oracle_set_interesting_dword,
    _oracle_arith_byte,
    _oracle_arith_word,
    _oracle_clone_block,
    _oracle_insert_random_block,
    _oracle_delete_block,
    _oracle_overwrite_block,
)

_ORACLE_LEGACY_OPS = (
    _oracle_flip_bit,
    _oracle_set_random_byte,
    _oracle_set_interesting_byte,
    _oracle_arith_byte,
    _oracle_clone_block,
    _oracle_delete_block,
    _oracle_overwrite_block,
)

# The kernel's operator codes and the oracle operator each one stands for.
_ORACLE_BY_CODE = {
    mutators.FLIP_BIT: _oracle_flip_bit,
    mutators.SET_RANDOM_BYTE: _oracle_set_random_byte,
    mutators.SET_INTERESTING_BYTE: _oracle_set_interesting_byte,
    mutators.SET_INTERESTING_WORD: _oracle_set_interesting_word,
    mutators.SET_INTERESTING_DWORD: _oracle_set_interesting_dword,
    mutators.ARITH_BYTE: _oracle_arith_byte,
    mutators.ARITH_WORD: _oracle_arith_word,
    mutators.CLONE_BLOCK: _oracle_clone_block,
    mutators.INSERT_RANDOM_BLOCK: _oracle_insert_random_block,
    mutators.DELETE_BLOCK: _oracle_delete_block,
    mutators.OVERWRITE_BLOCK: _oracle_overwrite_block,
    mutators.OVERWRITE_TOKEN: _oracle_overwrite_token,
    mutators.INSERT_TOKEN: _oracle_insert_token,
}
_TOKEN_CODES = (mutators.OVERWRITE_TOKEN, mutators.INSERT_TOKEN)


def _oracle_havoc(rng, data, max_len, tokens=(), legacy=False):
    buf = bytearray(data)
    ops = _ORACLE_LEGACY_OPS if legacy else _ORACLE_HAVOC_OPS
    stacking = 1 << rng.randrange(1, 7)
    for _ in range(stacking):
        if tokens and rng.random() < 0.15:
            if rng.random() < 0.5:
                _oracle_overwrite_token(rng, buf, max_len, tokens)
            else:
                _oracle_insert_token(rng, buf, max_len, tokens)
            continue
        op = rng.choice(ops)
        op(rng, buf, max_len)
    if not buf:
        buf.append(rng.randrange(256))
    return bytes(buf)


def _oracle_splice(rng, first, second):
    if not first or not second:
        return bytes(first or second or b"\x00")
    cut_a = rng.randrange(1, len(first) + 1)
    cut_b = rng.randrange(len(second) + 1)
    return bytes(first[:cut_a] + second[cut_b:])


def _oracle_masked_havoc(rng, data, focus, stacking_max=5):
    positions = sorted(off for off in focus if 0 <= off < len(data))
    if not positions:
        return bytes(data)
    buf = bytearray(data)
    stacking = 1 << rng.randrange(1, max(2, stacking_max))
    for _ in range(stacking):
        pos = positions[rng.randrange(len(positions))]
        choice = rng.randrange(4)
        if choice == 0:
            buf[pos] ^= 1 << rng.randrange(8)
        elif choice == 1:
            buf[pos] = rng.randrange(256)
        elif choice == 2:
            buf[pos] = rng.choice(mutators.INTERESTING_8) & 0xFF
        else:
            delta = rng.randrange(1, mutators.ARITH_MAX + 1)
            if rng.random() < 0.5:
                delta = -delta
            buf[pos] = (buf[pos] + delta) & 0xFF
    return bytes(buf)


def _twins(seed):
    return random.Random(seed), random.Random(seed)


_data = st.binary(min_size=0, max_size=48)
_seed = st.integers(0, 2 ** 64)
_tokens = st.lists(st.binary(min_size=0, max_size=6), max_size=4).map(tuple)


def test_oracle_operator_tables_line_up():
    assert len(_ORACLE_BY_CODE) == 13  # no two codes share a value
    assert tuple(_ORACLE_BY_CODE[code] for code in mutators.HAVOC_OPS) == (
        _ORACLE_HAVOC_OPS
    )
    assert tuple(_ORACLE_BY_CODE[code] for code in mutators.LEGACY_OPS) == (
        _ORACLE_LEGACY_OPS
    )


@settings(max_examples=300)
@given(_data, _seed, st.integers(0, 64), _tokens, st.booleans())
def test_havoc_draws_the_oracle_stream(data, seed, max_len, tokens, legacy):
    new, old = _twins(seed)
    assert mutators.havoc(new, data, max_len, tokens, legacy) == _oracle_havoc(
        old, data, max_len, tokens, legacy
    )
    assert new.getstate() == old.getstate()


def _bind_tokens(op, tokens):
    return lambda rng, data, max_len: op(rng, data, max_len, tokens)


@settings(max_examples=300)
@given(_data, _seed, st.integers(0, 64), _tokens)
def test_each_operator_draws_the_oracle_stream(data, seed, max_len, tokens):
    # Every operator code in turn: both operator tables cut down to it, so
    # each draw of the stacked loop runs that one branch of the kernel.  A
    # token operator needs tokens and also meets the 15% token draws.
    for code, oracle_op in _ORACLE_BY_CODE.items():
        pool = ()
        if code in _TOKEN_CODES:
            pool = tokens or (b"MAGI",)
            oracle_op = _bind_tokens(oracle_op, pool)
        new, old = _twins(seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mutators, "HAVOC_OPS", (code,))
            patch.setitem(globals(), "_ORACLE_HAVOC_OPS", (oracle_op,))
            got = mutators.havoc(new, data, max_len, pool)
            want = _oracle_havoc(old, data, max_len, pool)
        assert got == want, code
        assert new.getstate() == old.getstate(), code


_SWEEP_TOKENS = (b"", b"MAGIC_LONGER_THAN_DATA", b"\xff")


def test_havoc_sweep_draws_the_oracle_stream():
    # Deterministic corners the properties may miss: every length up to 8
    # (the word and dword guards), a buffer at and one below max_len.
    for seed in range(100):
        for length in (*range(9), 30):
            data = bytes((seed + 37 * i) & 0xFF for i in range(length))
            for max_len in (length, length + 1, 48):
                for legacy in (False, True):
                    for tokens in ((), _SWEEP_TOKENS):
                        new, old = _twins(seed)
                        case = (seed, length, max_len, legacy, tokens)
                        got = mutators.havoc(new, data, max_len, tokens, legacy)
                        want = _oracle_havoc(old, data, max_len, tokens, legacy)
                        assert got == want, case
                        assert new.getstate() == old.getstate(), case


@settings(max_examples=200)
@given(_data, _data, _seed)
def test_splice_draws_the_oracle_stream(first, second, seed):
    new, old = _twins(seed)
    assert mutators.splice(new, first, second) == _oracle_splice(old, first, second)
    assert new.getstate() == old.getstate()


@settings(max_examples=200)
@given(_data, st.sets(st.integers(-4, 52), max_size=12), _seed, st.integers(0, 8))
def test_masked_havoc_draws_the_oracle_stream(data, focus, seed, stacking_max):
    new, old = _twins(seed)
    assert masked_havoc(new, data, focus, stacking_max) == _oracle_masked_havoc(
        old, data, focus, stacking_max
    )
    assert new.getstate() == old.getstate()


@settings(max_examples=100)
@given(st.integers(0, 40), _seed)
def test_random_bytes_draws_the_oracle_stream(size, seed):
    new, old = _twins(seed)
    assert bytes(mutators.random_bytes(new, size)) == bytes(
        old.randrange(256) for _ in range(size)
    )
    assert new.getstate() == old.getstate()
