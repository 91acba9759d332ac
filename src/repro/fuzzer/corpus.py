"""Queue (corpus) management.

Mirrors AFL's queue mechanics:

- every interesting test case becomes a :class:`QueueEntry` carrying its
  coverage trace and execution cost;
- ``top_rated`` keeps, per coverage-map index, the cheapest entry covering
  it (AFL's ``update_bitmap_score``, score = exec cost x input length);
- :meth:`Queue.cull` greedily marks a *favored* subset of entries that
  together cover every index — the fast set-cover approximation the paper
  reuses both for scheduling and as its culling criterion.
"""


class QueueEntry:
    """One retained test case."""

    __slots__ = (
        "entry_id",
        "data",
        "exec_cost",
        "trace",
        "classified",
        "favored",
        "was_fuzzed",
        "depth",
        "handicap",
        "found_at",
        "cmplog_done",
        "imported",
        "taint_focus",
    )

    def __init__(self, entry_id, data, exec_cost, classified, depth, found_at):
        self.entry_id = entry_id
        self.data = data
        self.exec_cost = exec_cost
        self.classified = classified
        self.trace = frozenset(classified)
        self.favored = False
        self.was_fuzzed = False
        self.depth = depth
        self.handicap = 0
        self.found_at = found_at
        self.cmplog_done = False
        # Synced in from another fuzzing instance (AFL++'s foreign queues).
        self.imported = False
        # Born from the taint-guided masked stage: the frozenset of focus
        # byte offsets that produced this entry (None otherwise).  The
        # scheduler gives such entries extra first-visit energy — they sit
        # on a rare-branch frontier by construction.
        self.taint_focus = None

    def score_key(self):
        """AFL's top_rated ordering: cheaper-to-run x shorter wins."""
        return self.exec_cost * max(len(self.data), 1)

    def clone(self):
        """Deep-enough copy for checkpoints (mutable flags detached)."""
        dup = QueueEntry(
            self.entry_id,
            self.data,
            self.exec_cost,
            self.classified,
            self.depth,
            self.found_at,
        )
        dup.favored = self.favored
        dup.was_fuzzed = self.was_fuzzed
        dup.handicap = self.handicap
        dup.cmplog_done = self.cmplog_done
        dup.imported = self.imported
        dup.taint_focus = self.taint_focus
        return dup

    def __repr__(self):
        return "QueueEntry(#%d, %dB, cost=%d, trace=%d%s)" % (
            self.entry_id,
            len(self.data),
            self.exec_cost,
            len(self.trace),
            ", favored" if self.favored else "",
        )


class Queue:
    """The fuzzer's corpus with AFL-style favored-entry culling."""

    __slots__ = (
        "entries",
        "top_rated",
        "_dirty",
        "pending_favored",
        "_next_id",
        "total_cost",
        "total_trace",
    )

    def __init__(self):
        self.entries = []
        self.top_rated = {}
        self._dirty = False
        self.pending_favored = 0
        self._next_id = 0
        # Running sums of exec_cost and len(trace) over entries (integers,
        # so the scheduler's averages equal a full recount exactly).
        self.total_cost = 0
        self.total_trace = 0

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def make_entry(self, data, exec_cost, classified, depth, found_at):
        entry = QueueEntry(self._next_id, data, exec_cost, classified, depth, found_at)
        self._next_id += 1
        return entry

    def add(self, entry):
        """Append ``entry``, update per-index champions and the totals."""
        self.entries.append(entry)
        self.total_cost += entry.exec_cost
        self.total_trace += len(entry.trace)
        key = entry.score_key()
        top = self.top_rated
        for idx in entry.trace:
            champion = top.get(idx)
            if champion is None or key < champion.score_key():
                top[idx] = entry
        self._dirty = True

    def cull(self):
        """Recompute the favored subset (AFL's ``cull_queue``).

        Greedy set cover over ``top_rated``: walk the covered indices; any
        index not yet covered by a previously chosen favorite promotes its
        champion.  Cheap, deterministic, and exactly the approximation the
        paper's culling strategy reuses.
        """
        if not self._dirty:
            return
        self._dirty = False
        for entry in self.entries:
            entry.favored = False
        uncovered = set(self.top_rated)
        for idx in sorted(self.top_rated):
            if idx not in uncovered:
                continue
            champion = self.top_rated[idx]
            champion.favored = True
            uncovered.difference_update(champion.trace)
        self.pending_favored = sum(
            1 for e in self.entries if e.favored and not e.was_fuzzed
        )

    def next_entry_id(self):
        """The id the next :meth:`make_entry` call will assign.

        Corpus sync uses this as a high-water mark: entries at or above a
        remembered mark are exactly those added since it was taken.
        """
        return self._next_id

    def entries_since(self, entry_id):
        """Entries created at or after ``entry_id`` (append order).

        Ids are assigned monotonically, so this is the delta between two
        :meth:`next_entry_id` marks — what instance-parallel workers offer
        at each corpus-sync barrier.
        """
        return [e for e in self.entries if e.entry_id >= entry_id]

    def snapshot(self):
        """Picklable snapshot of the whole corpus (for checkpoints).

        Entries are cloned so the snapshot stays frozen while the live
        queue keeps mutating per-entry flags (``was_fuzzed``, ``handicap``,
        ``favored``, ...).
        """
        return {
            "entries": [entry.clone() for entry in self.entries],
            "next_id": self._next_id,
            "dirty": self._dirty,
            "pending_favored": self.pending_favored,
        }

    def restore(self, snap):
        """Rebuild the queue from :meth:`snapshot` output.

        ``top_rated`` and the totals are reconstructed by replaying
        :meth:`add` in append order — identical comparisons, identical
        champions, identical sums — then the cull bookkeeping is restored
        verbatim so a resumed engine culls exactly when the uninterrupted
        one would have.
        """
        self.entries = []
        self.top_rated = {}
        self.total_cost = 0
        self.total_trace = 0
        for entry in snap["entries"]:
            self.add(entry.clone())
        self._next_id = snap["next_id"]
        self._dirty = snap["dirty"]
        self.pending_favored = snap["pending_favored"]
        return self

    def favored_entries(self):
        """The current favored subset (culling if stale)."""
        self.cull()
        return [e for e in self.entries if e.favored]

    def covered_indices(self):
        """Every coverage-map index covered by some entry."""
        return set(self.top_rated)
