"""Masked mutation: Angora/FairFuzz-style byte-targeted operators.

Given a taint-derived ``(focus, frozen)`` split of the input's byte offsets
— *focus* are the bytes the target branch's comparison reads, *frozen* are
the bytes satisfying the guards on the way in — these operators concentrate
all mutation energy on the focus bytes and never touch the rest.  Keeping
the input length fixed is deliberate: any insertion or deletion would shift
the frozen bytes out from under the guards they satisfy.

Three stages, cheapest-per-bit first:

- :func:`masked_candidates` — input-to-state substitutions patched *only
  into focus bytes*, using the TaintMap's per-site operand samples;
- :func:`sweep_candidates` — exhaustive enumeration of tiny focus masks
  (Angora's exploitation phase; 255 executions per byte buys certainty on
  one-byte guards that havoc only hits with p = 1/256 per try);
- :func:`masked_havoc` — a stacked random stage restricted to focus
  positions, for masks too wide to enumerate.
"""

from repro.fuzzer.mutators import ARITH_MAX, INTERESTING_8_U8

_WIDTHS = (1, 2, 4)


def masked_havoc(rng, data, focus, stacking_max=5):
    """Stacked random mutation over ``focus`` positions only.

    Returns new bytes (same length).  Stacks ``2**(1..stacking_max-1)``
    single-byte operators, each aimed at a random focus offset — bit flips,
    random bytes, interesting bytes, and small arithmetic, the width-1 core
    of the havoc repertoire.
    """
    positions = sorted(off for off in focus if 0 <= off < len(data))
    if not positions:
        return bytes(data)
    buf = bytearray(data)
    # Draws follow the stream contract in repro.fuzzer.mutators.
    gb = rng.getrandbits
    n_pos = len(positions)
    k_pos = n_pos.bit_length()
    n = max(2, stacking_max) - 1
    k = n.bit_length()
    shift = gb(k)
    while shift >= n:
        shift = gb(k)
    for _ in range(2 << shift):
        i = gb(k_pos)
        while i >= n_pos:
            i = gb(k_pos)
        pos = positions[i]
        choice = gb(3)
        while choice >= 4:
            choice = gb(3)
        if choice == 0:
            bit = gb(4)
            while bit >= 8:
                bit = gb(4)
            buf[pos] ^= 1 << bit
        elif choice == 1:
            value = gb(9)
            while value >= 256:
                value = gb(9)
            buf[pos] = value
        elif choice == 2:
            i = gb(4)
            while i >= 9:
                i = gb(4)
            buf[pos] = INTERESTING_8_U8[i]
        else:
            delta = gb(6)
            while delta >= ARITH_MAX:
                delta = gb(6)
            delta += 1
            if rng.random() < 0.5:
                delta = -delta
            buf[pos] = (buf[pos] + delta) & 0xFF
    return bytes(buf)


def sweep_candidates(data, focus):
    """Exhaustively enumerate every value of each focus byte, one at a time.

    Yields candidate inputs (current byte value skipped).  Intended for
    masks of one or two bytes, where 255 executions per byte make the stage
    *complete*: if flipping one focus byte can take the target branch, the
    sweep will find it.
    """
    for off in sorted(focus):
        if not 0 <= off < len(data):
            continue
        current = data[off]
        prefix = data[:off]
        suffix = data[off + 1 :]
        for value in range(256):
            if value == current:
                continue
            yield prefix + bytes((value,)) + suffix


def masked_candidates(data, tmap, focus, max_candidates=24):
    """Input-to-state substitutions restricted to focus bytes.

    For every comparison site whose operand masks intersect ``focus``, each
    sampled operand pair is patched into the *contiguous runs* of that
    operand's focus bytes — if one side of the comparison reads bytes
    ``{4,5}``, the other side's value is encoded there directly (both
    endians, every width that fits).  This is the cmplog idea with the
    search for the pattern replaced by taint's knowledge of its location.
    """
    out = []
    seen = set()
    length = len(data)
    for site in sorted(tmap.cmp_sites, key=repr):
        rec = tmap.cmp_sites[site]
        for side_mask, other_index in ((rec.mask_a, 1), (rec.mask_b, 0)):
            runs = _focus_runs(side_mask & focus, length)
            if not runs:
                continue
            for pair in rec.pairs:
                target = pair[other_index]
                for run_start, run_len in runs:
                    for cand in _patches(data, run_start, run_len, target):
                        if cand != data and cand not in seen:
                            seen.add(cand)
                            out.append(cand)
                            if len(out) >= max_candidates:
                                return out
    return out


def _focus_runs(offsets, length):
    """Maximal runs of contiguous offsets, as (start, run_length) pairs."""
    valid = sorted(off for off in offsets if 0 <= off < length)
    runs = []
    for off in valid:
        if runs and off == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((off, 1))
    return runs


def _patches(data, start, run_len, target):
    """Encodings of ``target`` patched into the run at ``start``."""
    out = []
    if isinstance(target, bytes):
        n = min(run_len, len(target))
        if n:
            out.append(data[:start] + target[:n] + data[start + n :])
        return out
    if not isinstance(target, int):
        return out
    for width in _WIDTHS:
        if width > run_len:
            break
        masked = target & ((1 << (8 * width)) - 1)
        for order in ("big", "little"):
            encoded = masked.to_bytes(width, order)
            for pos in range(start, start + run_len - width + 1):
                out.append(data[:pos] + encoded + data[pos + width :])
    return out
