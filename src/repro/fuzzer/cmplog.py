"""Input-to-state mutation (a cmplog/RedQueen analogue).

The paper enables AFL++'s cmplog instrumentation for every fuzzer
configuration.  Our VM can execute a test case with comparison logging; the
harvested operand pairs — integer comparisons and ``memcmp`` byte windows —
drive direct substitutions: wherever one operand's encoding occurs in the
input, the other operand is patched in.  This solves magic-number and
keyword checks without symbolic execution, matching the "input-to-state
correspondence" of Redqueen (NDSS'19) in spirit.
"""

_WIDTHS = (1, 2, 4, 8)


def _encodings(value):
    """All byte encodings of an integer operand worth searching for."""
    result = []
    for width in _WIDTHS:
        masked = value & ((1 << (8 * width)) - 1)
        for order in ("big", "little"):
            encoded = masked.to_bytes(width, order)
            if encoded not in result:
                result.append(encoded)
    return result


def _positions(data, pattern, pos, cap):
    """The first ``cap`` offsets of ``pattern`` in ``data``, overlaps
    included, given the first, ``pos``."""
    out = [pos]
    while len(out) < cap:
        pos = data.find(pattern, pos + 1)
        if pos < 0:
            break
        out.append(pos)
    return out


def candidates_from_log(data, cmp_log, max_candidates=64):
    """Derive substitution candidates for ``data`` from a comparison log.

    ``cmp_log`` holds ``(a, b)`` pairs: two ints (scalar comparisons), two
    bytes objects (memcmp windows), or, for ``==``/``!=`` on arrays, pairs
    holding an ``ArrayRef``, which have no encoding and are skipped.  For
    every other pair, occurrences of one side's encoding in ``data`` are
    patched to the other side.  Deduplicated and capped to keep the stage's
    execution budget bounded.
    """
    seen = set()
    seen_pairs = set()
    out = []
    for a, b in cmp_log:
        if len(out) >= max_candidates:
            break
        if type(a) is not type(b) or not isinstance(a, (int, bytes)):
            continue
        # A seed that loops over a comparison logs the same operand pair on
        # every iteration; each duplicate would re-derive an identical
        # candidate set (all already in ``seen``).  Skipping by normalized
        # pair key changes nothing in the output — both directions are
        # tried symmetrically below — and cuts the stage's derivation work.
        key = (a, b) if a <= b else (b, a)
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        if isinstance(a, bytes):
            if not a or len(a) != len(b):
                continue
            for pattern, replacement in ((a, b), (b, a)):
                pos = data.find(pattern)
                if pos < 0:
                    continue
                for pos in _positions(data, pattern, pos, 4):
                    cand = data[:pos] + replacement + data[pos + len(pattern) :]
                    if cand not in seen and cand != data:
                        seen.add(cand)
                        out.append(cand)
        else:
            if a == b:
                continue
            for pattern, replacement_value in ((a, b), (b, a)):
                for encoded in _encodings(pattern):
                    # Each encoding is searched once; both byte orders of
                    # the replacement (one for a single byte) go where it
                    # was found.
                    pos = data.find(encoded)
                    if pos < 0:
                        continue
                    positions = _positions(data, encoded, pos, 2)
                    width = len(encoded)
                    masked = replacement_value & ((1 << (8 * width)) - 1)
                    for order in ("big", "little") if width > 1 else ("big",):
                        repl = masked.to_bytes(width, order)
                        for pos in positions:
                            cand = data[:pos] + repl + data[pos + width :]
                            if cand not in seen and cand != data:
                                seen.add(cand)
                                out.append(cand)
    return out[:max_candidates]
