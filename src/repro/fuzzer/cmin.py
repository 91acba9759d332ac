"""Corpus minimization (an ``afl-cmin`` analogue).

The paper notes its culling uses the favored-corpus construction because it
was "more efficient than using the afl-cmin queue minimization tool, for
equivalent results".  This module provides the afl-cmin-style alternative —
a two-pass greedy set cover that prefers the smallest input per coverage
index and processes rarest indices first — so the equivalence claim is
testable here too (see the culling ablation tests).
"""

from repro.coverage.feedback import EdgeFeedback
from repro.runtime.backend import make_backend


def minimize_corpus(program, inputs, feedback=None, instr_budget=60_000):
    """Select a subset of ``inputs`` preserving their combined coverage.

    Mirrors afl-cmin: (1) trace every input; (2) for each coverage index
    keep the smallest input touching it; (3) walk indices from rarest to
    most common, greedily keeping each index's champion until everything is
    covered.  Returns the selected inputs in their original order.
    """
    instrumentation = (feedback or EdgeFeedback()).instrument(program)
    execute = make_backend(program, instrumentation).execute
    traces = []
    for data in inputs:
        result = execute(data, instr_budget=instr_budget)
        if result.crashed or result.timeout:
            traces.append(frozenset())
        else:
            traces.append(frozenset(result.hits))

    index_owners = {}
    for position, trace in enumerate(traces):
        for idx in trace:
            index_owners.setdefault(idx, []).append(position)

    # Champion per index: smallest input, ties by earliest position.
    champion = {}
    for idx, owners in index_owners.items():
        champion[idx] = min(owners, key=lambda p: (len(inputs[p]), p))

    # Rarest-first greedy cover (afl-cmin's ordering heuristic).
    order = sorted(index_owners, key=lambda idx: (len(index_owners[idx]), idx))
    chosen = set()
    covered = set()
    for idx in order:
        if idx in covered:
            continue
        position = champion[idx]
        chosen.add(position)
        covered.update(traces[position])
    return [inputs[p] for p in sorted(chosen)]


def coverage_of(program, inputs, feedback=None, instr_budget=60_000):
    """Combined coverage-index set of ``inputs`` under ``feedback``."""
    instrumentation = (feedback or EdgeFeedback()).instrument(program)
    execute = make_backend(program, instrumentation).execute
    covered = set()
    for data in inputs:
        result = execute(data, instr_budget=instr_budget)
        if not (result.crashed or result.timeout):
            covered.update(result.hits)
    return covered
