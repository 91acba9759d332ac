"""AFL-style coverage map bookkeeping.

The fuzzer tracks, per execution, a sparse ``hits`` dict (map index -> raw
hit count) produced by the VM's probe actions.  Counts are classified into
AFL's power-of-two buckets, and a :class:`VirginMap` records which (index,
bucket) pairs have ever been seen — novelty in an execution is any pair not
yet in the virgin map.

The default map has ``2**18`` entries, matching the paper's choice ("to
match typical L2 cache sizes").
"""

MAP_SIZE_BITS = 18
MAP_SIZE = 1 << MAP_SIZE_BITS
MAP_MASK = MAP_SIZE - 1

# AFL count classes: raw count -> bucket bit.
_BUCKET_BOUNDS = (
    (1, 1),
    (2, 2),
    (3, 4),
    (7, 8),
    (15, 16),
    (31, 32),
    (127, 64),
)


def classify_count(count):
    """Map a raw hit count to its AFL bucket bit (0 for count == 0)."""
    if count <= 0:
        return 0
    for bound, bit in _BUCKET_BOUNDS:
        if count <= bound:
            return bit
    return 128


#: classify_count for every count below the top bucket's lower bound.
_BUCKET_TABLE = tuple(classify_count(count) for count in range(128))


def classify_hits(hits):
    """Classify a raw ``hits`` dict into {index: bucket_bit}."""
    table = _BUCKET_TABLE
    return {
        idx: (table[count] if count < 128 else 128) if count > 0 else 0
        for idx, count in hits.items()
    }


class VirginMap:
    """Global record of every (map index, bucket) pair observed so far."""

    __slots__ = ("bits",)

    def __init__(self):
        self.bits = {}

    def probe(self, classified):
        """Check ``classified`` (index -> bucket bit) against the map.

        Returns ``(new_indices, new_buckets)``: whether any index was never
        seen at all, and whether any (index, bucket) pair is new.  AFL treats
        the former as "new edge" (stronger novelty) and the latter as "new
        hit-count bucket".  Does not modify the map.
        """
        bits = self.bits
        new_indices = False
        new_buckets = False
        for idx, bit in classified.items():
            seen = bits.get(idx)
            if seen is None:
                return True, True
            if not seen & bit:
                new_buckets = True
        return new_indices, new_buckets

    def merge(self, classified):
        """Record every (index, bucket) pair of ``classified``."""
        bits = self.bits
        for idx, bit in classified.items():
            bits[idx] = bits.get(idx, 0) | bit

    def coverage_count(self):
        """Number of distinct map indices ever hit."""
        return len(self.bits)

    def copy(self):
        clone = VirginMap()
        clone.bits = dict(self.bits)
        return clone
