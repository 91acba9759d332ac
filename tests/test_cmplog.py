"""Input-to-state (cmplog) substitution tests."""

from hypothesis import example, given, settings, strategies as st

from repro.fuzzer.cmplog import candidates_from_log


def test_byte_pair_substitution():
    data = b"WXYZtail"
    candidates = candidates_from_log(data, [(b"WXYZ", b"MAGI")])
    assert b"MAGItail" in candidates


def test_byte_pair_substitution_both_directions():
    data = b"..MAGI.."
    candidates = candidates_from_log(data, [(b"OBSV", b"MAGI")])
    assert b"..OBSV.." in candidates


def test_integer_pair_width1():
    data = bytes([3, 9, 3])
    candidates = candidates_from_log(data, [(3, 7)])
    assert bytes([7, 9, 3]) in candidates
    assert bytes([3, 9, 7]) in candidates


def test_integer_pair_width2_both_endians():
    data = b"\x01\x02...."
    candidates = candidates_from_log(data, [(0x0102, 0x0A0B)])
    assert b"\x0a\x0b...." in candidates
    data_le = b"\x02\x01...."
    candidates_le = candidates_from_log(data_le, [(0x0102, 0x0A0B)])
    assert b"\x0b\x0a...." in candidates_le


def test_no_occurrence_no_candidates():
    assert candidates_from_log(b"zzzz", [(b"AAAA", b"BBBB")]) == []


def test_equal_integer_pair_skipped():
    assert candidates_from_log(b"\x05\x05", [(5, 5)]) == []


def test_mismatched_length_byte_pairs_skipped():
    assert candidates_from_log(b"abc", [(b"ab", b"xyz")]) == []


def test_candidates_deduplicated():
    data = b"\x07"
    candidates = candidates_from_log(data, [(7, 9), (7, 9)])
    assert len(candidates) == len(set(candidates))


def test_duplicate_pairs_skipped_output_identical():
    """A loop re-logging one comparison derives candidates exactly once."""
    data = bytes(range(16))
    unique = [(3, 77), (b"\x04\x05", b"QQ")]
    noisy = unique * 50
    assert candidates_from_log(data, noisy) == candidates_from_log(data, unique)


def test_swapped_duplicate_pairs_skipped_output_identical():
    """(a, b) and (b, a) normalize to one key; both directions are always
    tried anyway, so skipping the swap changes nothing."""
    data = bytes(range(16))
    assert candidates_from_log(data, [(3, 77), (77, 3)]) == candidates_from_log(
        data, [(3, 77)]
    )
    assert candidates_from_log(
        data, [(b"\x01\x02", b"ab"), (b"ab", b"\x01\x02")]
    ) == candidates_from_log(data, [(b"\x01\x02", b"ab")])


def test_cap_respected():
    data = bytes(range(64))
    log = [(i, i + 100) for i in range(64)]
    candidates = candidates_from_log(data, log, max_candidates=10)
    assert len(candidates) <= 10


def test_end_to_end_solves_magic():
    """The classic cmplog win: a 4-byte magic solved in one stage."""
    from repro.lang import compile_source
    from repro.runtime import execute

    program = compile_source(
        'fn main(input) { if (len(input) < 4) { return 0; }'
        ' if (memcmp(input, 0, "FUZZ", 0, 4) == 0) { return 1; } return 0; }'
    )
    seed = b"AAAA"
    logged = execute(program, seed, cmplog=True)
    candidates = candidates_from_log(seed, logged.cmp_log)
    assert any(execute(program, c).retval == 1 for c in candidates)


# -- the derivation against a frozen copy of its first version ----------------
#
# ``candidates_from_log`` searches each encoding of an integer operand once
# and builds both byte orders of the replacement from the offsets found.
# The functions below are the derivation as it was before that, which
# searched every (encoding, byte order) pair separately; the two must
# return the same list.


def _oracle_encodings(value):
    result = []
    for width in (1, 2, 4, 8):
        masked = value & ((1 << (8 * width)) - 1)
        for order in ("big", "little"):
            encoded = masked.to_bytes(width, order)
            if encoded not in result:
                result.append(encoded)
    return result


def _oracle_substitutions(data, pattern, replacement, cap):
    if not pattern or len(pattern) != len(replacement):
        return []
    out = []
    start = 0
    while len(out) < cap:
        pos = data.find(pattern, start)
        if pos < 0:
            break
        out.append(data[:pos] + replacement + data[pos + len(pattern) :])
        start = pos + 1
    return out


def _oracle_candidates(data, cmp_log, max_candidates=64):
    seen = set()
    seen_pairs = set()
    out = []
    for a, b in cmp_log:
        if len(out) >= max_candidates:
            break
        if isinstance(a, (int, bytes)) and type(a) is type(b):
            key = (a, b) if a <= b else (b, a)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
        if isinstance(a, bytes):
            for pattern, replacement in [(a, b), (b, a)]:
                for cand in _oracle_substitutions(data, pattern, replacement, 4):
                    if cand not in seen and cand != data:
                        seen.add(cand)
                        out.append(cand)
        else:
            if a == b:
                continue
            for pattern, replacement_value in ((a, b), (b, a)):
                for encoded in _oracle_encodings(pattern):
                    width = len(encoded)
                    masked = replacement_value & ((1 << (8 * width)) - 1)
                    for order in ("big", "little"):
                        repl = masked.to_bytes(width, order)
                        for cand in _oracle_substitutions(data, encoded, repl, 2):
                            if cand not in seen and cand != data:
                                seen.add(cand)
                                out.append(cand)
    return out[:max_candidates]


# Small alphabets make operands occur in the input, often more than once.
_ALPHABET = b"\x00\x01\x02\xffAB"
_SMALL_BYTES = st.lists(st.sampled_from(_ALPHABET), max_size=6).map(bytes)
_BYTES = _SMALL_BYTES | st.binary(max_size=6)
_NOTABLE = [0, 1, 2, 0x41, 0xFF, 0x100, 0x0102, 0x4142, -1, -2]
_INTS = st.sampled_from(_NOTABLE) | st.integers(-(1 << 63), (1 << 63) - 1)
_DATA = st.lists(st.sampled_from(_ALPHABET), max_size=24).map(bytes)
# Repeated chunks put one pattern at more offsets than any cap.
_CHUNKS = [b"\x00", b"A", b"AB", b"\x01\x02", b"\x00\x00\x01"]
_REPEATS = st.lists(st.sampled_from(_CHUNKS), max_size=12).map(b"".join)


@st.composite
def _log(draw):
    """Int and bytes pairs: equal pairs, length mismatches, empty
    patterns, and a repeated prefix for duplicates."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            a = draw(_INTS)
            b = a if draw(st.booleans()) else draw(_INTS)
        else:
            a = draw(_BYTES)
            same_length = st.binary(min_size=len(a), max_size=len(a))
            b = draw(same_length | _BYTES)
        pairs.append((a, b))
    return pairs + pairs[: draw(st.integers(0, 3))]


@settings(max_examples=400, deadline=None)
# Patterns at more offsets than their cap: four for bytes, two for ints.
@example(data=b"AB" * 5, log=[(b"AB", b"CD")], cap=64)
@example(data=b"\x00\x01" * 3, log=[(1, 0x0102)], cap=64)
@given(
    data=_DATA | _REPEATS | st.binary(max_size=24),
    log=_log(),
    cap=st.sampled_from([0, 1, 2, 3, 5, 64]),
)
def test_candidates_match_the_frozen_derivation(data, log, cap):
    assert candidates_from_log(data, log, cap) == _oracle_candidates(data, log, cap)
