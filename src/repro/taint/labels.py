"""Taint-label format: input-byte bitmasks joined with ``|``.

A *label* is either ``None`` (untainted — the fast path, so shadow
arithmetic on clean values costs one ``is None`` check) or a positive
``int`` whose bit *i* is set when input byte *i* flowed into the value.
Byte ``i``'s source label is ``1 << i``, and the join of two labels is
``a | b``; a join of labels is never ``0``, so a falsy label is always
the clean one.  Joins are one big-int OR, with no interning pool or
memo, and taint runs stay deterministic and side-effect free.

This module is the one place that defines the format.  The propagation
rules in :mod:`repro.taint.track` join with ``|`` inline; the
:class:`~repro.taint.map.TaintMap` records masks as ints and converts
them with :func:`offsets` only when a consumer reads a set.
"""


def mask_of(offs):
    """The label of a collection of byte offsets; ``None`` when it is empty."""
    mask = 0
    for off in offs:
        mask |= 1 << off
    return mask or None


def offsets(mask):
    """The byte offsets of a label, ascending; ``()`` for a clean label."""
    if not mask:
        return ()
    bits = bin(mask)[:1:-1]  # reversed past the "0b": character i is bit i
    out = []
    find = bits.find
    pos = find("1")
    while pos >= 0:
        out.append(pos)
        pos = find("1", pos + 1)
    return tuple(out)
