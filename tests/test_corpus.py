"""Queue / favored-corpus tests."""

from repro.fuzzer.corpus import Queue


def entry(queue, data, cost, trace, depth=0):
    classified = {idx: 1 for idx in trace}
    e = queue.make_entry(bytes(data), cost, classified, depth, found_at=0)
    queue.add(e)
    return e


def test_entries_get_sequential_ids():
    queue = Queue()
    a = entry(queue, b"a", 10, [1])
    b = entry(queue, b"b", 10, [2])
    assert (a.entry_id, b.entry_id) == (0, 1)


def test_top_rated_prefers_cheaper_entry():
    queue = Queue()
    expensive = entry(queue, b"aaaa", 100, [1, 2])
    cheap = entry(queue, b"b", 10, [1])
    assert queue.top_rated[1] is cheap
    assert queue.top_rated[2] is expensive


def test_cull_marks_covering_subset():
    queue = Queue()
    entry(queue, b"a", 10, [1, 2, 3])
    entry(queue, b"b", 10, [3])
    entry(queue, b"c", 10, [4])
    queue.cull()
    favored = [e for e in queue.entries if e.favored]
    covered = set()
    for e in favored:
        covered |= e.trace
    assert covered == {1, 2, 3, 4}


def test_cull_skips_redundant_entries():
    queue = Queue()
    big = entry(queue, b"a", 10, [1, 2, 3, 4])
    entry(queue, b"bbbb", 99, [2])
    queue.cull()
    assert big.favored
    assert sum(1 for e in queue.entries if e.favored) == 1


def test_favored_set_covers_all_indices_always():
    import random

    rng = random.Random(7)
    queue = Queue()
    for i in range(100):
        trace = rng.sample(range(40), rng.randrange(1, 8))
        entry(queue, bytes([i]), rng.randrange(1, 50), trace)
    favored_cover = set()
    for e in queue.favored_entries():
        favored_cover |= e.trace
    assert favored_cover == queue.covered_indices()


def test_pending_favored_counts_unfuzzed():
    queue = Queue()
    a = entry(queue, b"a", 10, [1])
    queue.cull()
    assert queue.pending_favored == 1
    a.was_fuzzed = True
    queue._dirty = True
    queue.cull()
    assert queue.pending_favored == 0


def test_cull_is_lazy():
    queue = Queue()
    entry(queue, b"a", 10, [1])
    queue.cull()
    marker = object()
    queue.pending_favored = marker
    queue.cull()  # not dirty: must not recompute
    assert queue.pending_favored is marker


def test_snapshot_restore_roundtrips_flags_across_cull():
    queue = Queue()
    a = entry(queue, b"a", 10, [1, 2, 3])
    b = entry(queue, b"b", 10, [3])
    c = entry(queue, b"c", 10, [4])
    queue.cull()  # marks favored
    a.was_fuzzed = True
    b.imported = True
    snap = queue.snapshot()

    restored = Queue()
    restored.restore(snap)
    by_id = {e.entry_id: e for e in restored.entries}
    for original in (a, b, c):
        twin = by_id[original.entry_id]
        assert twin.data == original.data
        assert twin.favored == original.favored
        assert twin.was_fuzzed == original.was_fuzzed
        assert twin.imported == original.imported
    # A cull on the restored queue reproduces the original's: same favored
    # subset, same pending count (only c is favored-and-unfuzzed now).
    for q in (queue, restored):
        q._dirty = True
        q.cull()
    assert {e.entry_id for e in restored.entries if e.favored} == {
        e.entry_id for e in queue.entries if e.favored
    }
    assert restored.pending_favored == queue.pending_favored


def test_snapshot_is_deep_and_isolated_from_later_mutation():
    queue = Queue()
    a = entry(queue, b"a", 10, [1])
    queue.cull()
    snap = queue.snapshot()
    a.was_fuzzed = True
    a.favored = False
    restored = Queue()
    restored.restore(snap)
    twin = restored.entries[0]
    assert twin.was_fuzzed is False  # pre-mutation state preserved
    assert twin.favored is True


def recount(queue):
    return (
        sum(e.exec_cost for e in queue.entries),
        sum(len(e.trace) for e in queue.entries),
    )


def test_running_totals_equal_a_fresh_recount():
    queue = Queue()
    assert (queue.total_cost, queue.total_trace) == (0, 0)
    for i in range(25):
        entry(queue, bytes([i]) * (i + 1), 3 + 7 * i, range(i % 6, i % 6 + i % 4 + 1))
        assert (queue.total_cost, queue.total_trace) == recount(queue)
    snap = queue.snapshot()
    entry(queue, b"late", 999, [40, 41])
    restored = Queue().restore(snap)
    assert (restored.total_cost, restored.total_trace) == recount(restored)
    assert len(restored.entries) == 25
    # Restoring into a used queue starts the totals over.
    queue.restore(snap)
    assert (queue.total_cost, queue.total_trace) == recount(restored)
