"""Power scheduling: how much mutation energy a queue entry receives.

A condensed version of AFL's ``calculate_score``: energy scales with how
cheap the entry is to execute, how much coverage it exercises, how deep in
the mutation chain it sits, and how late it joined (handicap).  The result
multiplies the havoc iteration count.

Scheduling is stateless by design: every input that influences a score
lives on the :class:`~repro.fuzzer.corpus.QueueEntry` itself (including
the *decaying* ``handicap`` counter, which this module mutates in place).
That is what lets checkpoints capture scheduling exactly — snapshotting
the queue snapshots the schedule, and a resumed engine hands out the same
energy the uninterrupted one would have (see
:mod:`repro.fuzzer.checkpoint`).
"""

#: Havoc executions per point of perf score (see :func:`havoc_iterations`).
HAVOC_MULTIPLIER = 0.32


def performance_score(entry, avg_exec_cost, avg_trace_size):
    """AFL-style perf score (100 = neutral), clamped to [10, 1600]."""
    score = 100.0
    if avg_exec_cost > 0:
        ratio = entry.exec_cost / avg_exec_cost
        if ratio < 0.25:
            score *= 3.0
        elif ratio < 0.5:
            score *= 2.0
        elif ratio < 0.75:
            score *= 1.5
        elif ratio > 4.0:
            score *= 0.25
        elif ratio > 2.0:
            score *= 0.5
    if avg_trace_size > 0:
        ratio = len(entry.trace) / avg_trace_size
        if ratio > 1.5:
            score *= 1.4
        elif ratio < 0.5:
            score *= 0.7
    if entry.handicap >= 4:
        score *= 3.0
        entry.handicap -= 4
    elif entry.handicap:
        score *= 2.0
        entry.handicap -= 1
    depth = entry.depth
    if 4 <= depth <= 7:
        score *= 2.0
    elif 8 <= depth <= 13:
        score *= 3.0
    elif 14 <= depth <= 25:
        score *= 4.0
    elif depth > 25:
        score *= 5.0
    # Entries synced in from another instance embody coverage this instance
    # never reached on its own: give them extra energy on their first visit.
    # Single-instance campaigns never import, so the sequential paths are
    # bit-for-bit unaffected.
    if getattr(entry, "imported", False) and not entry.was_fuzzed:
        score *= 1.5
    # Entries minted by the taint-guided masked stage sit on a rare-branch
    # frontier by construction: focused energy on the first visit mirrors
    # the imported-entry boost.  Campaigns without taint never set the
    # attribute, so their schedules are bit-for-bit unchanged.
    if getattr(entry, "taint_focus", None) is not None and not entry.was_fuzzed:
        score *= 1.5
    return max(10.0, min(score, 1600.0))


def havoc_iterations(score):
    """Havoc stage length for a perf score.

    :data:`HAVOC_MULTIPLIER` compresses AFL's 256-iteration baseline to the
    virtual-clock scale: a neutral entry gets ~32 havoc executions per visit.
    """
    return max(8, int(score * HAVOC_MULTIPLIER))
