"""VM heap with ASan-like bounds enforcement.

Arrays are Python lists of ints; every access is bounds-checked by the VM,
so an out-of-bounds index produces a deterministic trap at the faulting
instruction — the behavioural analogue of compiling the target with
AddressSanitizer as the paper does.
"""

from repro.runtime.values import ArrayRef

# Allocation guard: a fuzzer-controlled size above this traps (models OOM /
# allocator limits that ASan enforces with allocator_may_return_null=0).
MAX_ALLOC = 1 << 20


# String pools are immutable at runtime (every write path traps on readonly
# refs first), so the materialized per-string lists can be shared by every
# execution of the same program instead of re-copied per Heap.  Keyed on the
# pool's identity; the stored pool reference guards against id reuse.
_POOL_CACHE = {}
_POOL_CACHE_CAP = 64


def _materialize_pool(string_pool):
    cached = _POOL_CACHE.get(id(string_pool))
    if cached is not None and cached[0] is string_pool:
        return cached[1]
    arrays = [list(s) for s in string_pool]
    if len(_POOL_CACHE) >= _POOL_CACHE_CAP:
        _POOL_CACHE.clear()
    _POOL_CACHE[id(string_pool)] = (string_pool, arrays)
    return arrays


class Heap:
    """Per-execution heap: grows monotonically, freed wholesale at exit."""

    __slots__ = ("_arrays", "_readonly_base")

    def __init__(self, string_pool=()):
        # Read-only string constants occupy the first array ids.
        self._arrays = list(_materialize_pool(string_pool)) if string_pool else []
        self._readonly_base = len(self._arrays)

    def alloc(self, size):
        """Allocate a zeroed array of ``size`` elements; returns ArrayRef.

        Returns None when the size is invalid (negative or over MAX_ALLOC);
        the VM turns that into a BAD_ALLOC trap with the caller's site.
        """
        if size < 0 or size > MAX_ALLOC:
            return None
        array_id = len(self._arrays)
        self._arrays.append([0] * size)
        return ArrayRef(array_id)

    def place(self, data):
        """Place the harness's input ``data`` as a new array; returns its
        ArrayRef.  The input is not a program allocation, so no size
        limit applies."""
        self._arrays.append(list(data))
        return ArrayRef(len(self._arrays) - 1)

    def string_ref(self, index):
        """Handle for string-pool constant ``index`` (read-only)."""
        return ArrayRef(index, readonly=True)

    def storage(self, ref):
        """The backing list for ``ref`` (no bounds involved)."""
        return self._arrays[ref.array_id]

    def length(self, ref):
        return len(self._arrays[ref.array_id])

    def is_readonly(self, ref):
        return ref.readonly or ref.array_id < self._readonly_base

    def snapshot_bytes(self, ref):
        """The array contents as bytes (elements masked to 0..255)."""
        return bytes(v & 0xFF for v in self._arrays[ref.array_id])
