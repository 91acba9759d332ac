"""The culling exploration-biasing method (paper Sec. III-B1, IV).

A driver orchestrates fuzzer rounds: after each *culling round*, the queue
is pruned down to a subset that preserves the coverage criterion, and a
fresh engine instance is started seeded with the culled queue.  The fresh
start resets the virgin map, giving re-discovered paths a new chance to be
prioritized (the "fresh start / revisit prioritization choices" rationale).
Culling time is charged against the campaign budget, as the paper's driver
subtracts it from the last round.

Culling criteria:

- ``edges``  — retain a minimal-ish set of test cases preserving the *edge*
  coverage of the whole queue (the paper's choice; favored-corpus greedy
  set cover over an edge-instrumented replay);
- ``paths``  — preserve coverage under the fuzzer's own (path) feedback
  (the alternative the paper found inferior);
- ``random`` — keep a random 2-16% of the queue (Appendix D's cull_r).
"""

from repro.coverage.feedback import EdgeFeedback
from repro.fuzzer.engine import FuzzEngine
from repro.runtime.backend import make_backend

# Virtual ticks charged per queue entry examined by a culling pass (replay
# plus set-cover bookkeeping); mirrors the paper accounting culling costs
# inside the fuzzing budget.
CULL_COST_PER_ENTRY = 40


def edge_preserving_subset(program, inputs, instr_budget=60_000, backend=None):
    """Greedy set cover over an edge-instrumented replay of ``inputs``.

    Returns the selected inputs (order preserved).  This is the favored-
    corpus construction the paper uses instead of ``afl-cmin``.  ``backend``
    picks the replay's executor (None: honour ``REPRO_BACKEND``); the
    backends are bit-exact, so the subset does not depend on it.
    """
    execute = make_backend(
        program, EdgeFeedback().instrument(program), backend=backend
    ).execute
    traces = []
    for data in inputs:
        result = execute(data, instr_budget=instr_budget)
        if result.crashed or result.timeout:
            traces.append(frozenset())
            continue
        traces.append(frozenset(result.hits))
    # Champion per edge: cheapest (cost x len) input covering it.
    champion = {}
    for position, (data, trace) in enumerate(zip(inputs, traces)):
        key = (len(data), position)
        for idx in trace:
            if idx not in champion or key < champion[idx][0]:
                champion[idx] = (key, position)
    chosen = set()
    uncovered = set(champion)
    for idx in sorted(champion):
        if idx not in uncovered:
            continue
        position = champion[idx][1]
        chosen.add(position)
        uncovered.difference_update(traces[position])
    return [inputs[i] for i in sorted(chosen)]


def path_preserving_subset(engine):
    """Favored subset under the engine's own feedback (path identity)."""
    return [entry.data for entry in engine.queue.favored_entries()]


def random_subset(inputs, rng, keep_low=0.02, keep_high=0.16):
    """Random culling: keep a uniformly drawn 2-16% slice (at least one)."""
    if not inputs:
        return []
    fraction = rng.uniform(keep_low, keep_high)
    count = max(1, int(len(inputs) * fraction))
    return [inputs[i] for i in sorted(rng.sample(range(len(inputs)), count))]


def run_culling_campaign(
    subject,
    feedback_factory,
    total_budget,
    round_budget,
    rng,
    config,
    criterion="edges",
):
    """Run the round-based culling campaign.

    Returns ``(engines, final_engine)``: every round's engine (for crash
    accounting) and the last one (whose queue is the campaign's corpus).
    """
    program = subject.program
    seeds = list(subject.seeds)
    engines = []
    remaining = total_budget
    while remaining > 0:
        this_round = min(round_budget, remaining)
        engine = FuzzEngine(
            program,
            feedback_factory(),
            seeds,
            rng,
            config,
            subject.tokens,
        )
        engine.run(this_round)
        engines.append(engine)
        remaining -= max(engine.clock.ticks, 1)
        if remaining <= 0:
            break
        inputs = engine.corpus_inputs()
        cull_cost = CULL_COST_PER_ENTRY * len(inputs)
        remaining -= cull_cost
        if criterion == "edges":
            seeds = edge_preserving_subset(
                program, inputs, config.exec_instr_budget, backend=config.backend
            )
        elif criterion == "paths":
            seeds = path_preserving_subset(engine)
        elif criterion == "random":
            seeds = random_subset(inputs, rng)
        else:
            raise ValueError("unknown culling criterion %r" % criterion)
        if not seeds:
            seeds = list(subject.seeds)
    return engines, engines[-1]
