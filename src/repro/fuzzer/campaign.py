"""Campaign results and the afl-showmap-style coverage replay.

A :class:`CampaignResult` is the durable record of one fuzzing run —
everything the paper's tables consume: ground-truth unique bugs, stack-hash
unique crashes, raw crash counts, final queue size, the *edge* coverage of
the final queue (measured by replaying it under edge instrumentation with a
separate pcguard-instrumented binary, exactly as the paper does with
``afl-showmap``), execution counts, and the queue-size timeline.

The replay runs on the backend the campaign fuzzed with.  The compiled
backend is bit-exact with the interpreter, so ``edges`` does not depend on
the backend; a compiled replay only costs less wall time.
"""

from repro.coverage.feedback import EdgeFeedback
from repro.runtime.backend import make_backend


class CrashInfo:
    """Plain (picklable) record of one deduplicated crash bucket."""

    __slots__ = ("bug", "hash5", "kind", "count", "afl_unique", "found_at", "stack")

    def __init__(self, bug, hash5, kind, count, afl_unique, found_at, stack):
        self.bug = bug  # (function, line, kind) ground-truth identity
        self.hash5 = hash5  # top-5-frame stack hash (the "unique crash" id)
        self.kind = kind
        self.count = count
        self.afl_unique = afl_unique
        self.found_at = found_at
        self.stack = stack  # ((function, line), ...) innermost first

    def bug_id(self):
        return self.bug

    def _state(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __eq__(self, other):
        """Field-wise value equality (parallel/sequential determinism checks)."""
        return isinstance(other, CrashInfo) and self._state() == other._state()

    def __repr__(self):
        return "CrashInfo(%s x%d)" % (self.bug, self.count)


class HangInfo:
    """Plain (picklable) record of one deduplicated hang bucket.

    Hangs are first-class campaign artifacts: the hanging *input* is carried
    (it is how a hang is reproduced — there is no meaningful stack), keyed by
    its content hash, with the first-seen tick and an occurrence count.
    """

    __slots__ = ("input_hash", "data", "count", "found_at")

    def __init__(self, input_hash, data, count, found_at):
        self.input_hash = input_hash
        self.data = data
        self.count = count
        self.found_at = found_at

    def _state(self):
        return tuple(getattr(self, slot) for slot in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, HangInfo) and self._state() == other._state()

    def __repr__(self):
        return "HangInfo(%dB x%d @%d)" % (len(self.data), self.count, self.found_at)


class CampaignResult:
    """Outcome of one (subject, fuzzer-config, run-seed) campaign."""

    # Campaign *science* — what the paper's tables consume, and what the
    # determinism contract (__eq__) covers.
    _SCIENCE_SLOTS = (
        "subject_name",
        "config_name",
        "run_seed",
        "bugs",
        "crash_records",
        "crash_count",
        "afl_unique_crash_count",
        "queue_size",
        "edges",
        "execs",
        "hangs",
        "hang_records",
        "ticks",
        "throughput",
        "timeline",
    )

    # Supervision and observability metadata: how bumpy the *execution* was
    # (worker restarts, dropped workers) and what the telemetry layer
    # derived from the timeline (coverage plateaus).  Deliberately excluded
    # from __eq__ — a campaign that was killed and recovered, or traced,
    # must compare equal to the undisturbed/untraced one.
    __slots__ = _SCIENCE_SLOTS + (
        "degraded",
        "degraded_reasons",
        "worker_restarts",
        "plateaus",
    )

    def __init__(
        self,
        subject_name,
        config_name,
        run_seed,
        bugs,
        crash_records,
        crash_count,
        afl_unique_crash_count,
        queue_size,
        edges,
        execs,
        hangs,
        ticks,
        throughput,
        timeline,
        hang_records=(),
        degraded=False,
        degraded_reasons=(),
        worker_restarts=(),
        plateaus=(),
    ):
        self.subject_name = subject_name
        self.config_name = config_name
        self.run_seed = run_seed
        self.bugs = bugs
        self.crash_records = crash_records
        self.crash_count = crash_count
        self.afl_unique_crash_count = afl_unique_crash_count
        self.queue_size = queue_size
        self.edges = edges
        self.execs = execs
        self.hangs = hangs
        self.hang_records = tuple(hang_records)
        self.ticks = ticks
        self.throughput = throughput
        self.timeline = timeline
        # Why each worker was dropped: (worker, cause, detail) tuples —
        # e.g. ("restart-budget", "deadline") — alongside the legacy bool.
        self.degraded_reasons = tuple(degraded_reasons)
        self.degraded = bool(degraded) or bool(self.degraded_reasons)
        self.worker_restarts = tuple(worker_restarts)
        self.plateaus = tuple(plateaus)

    @property
    def unique_crash_hashes(self):
        """Stack-hash identities of the clustered crashes."""
        return {record.hash5 for record in self.crash_records}

    def _state(self):
        return tuple(getattr(self, slot) for slot in self._SCIENCE_SLOTS)

    def __eq__(self, other):
        """Field-wise value equality over the campaign-science fields.

        Sequential and parallel matrix runs of the same (subject, config,
        run-seed) cell must produce *equal* results — this is the contract
        the parallel runner's determinism test checks, and what makes the
        pickle round-trip through worker pipes verifiable.  Supervision
        metadata (``degraded``, ``worker_restarts``) is excluded: a
        killed-and-recovered campaign must equal the uninterrupted one.
        """
        return isinstance(other, CampaignResult) and self._state() == other._state()

    def __repr__(self):
        return "CampaignResult(%s/%s#%d: bugs=%d, crashes=%d, queue=%d)" % (
            self.subject_name,
            self.config_name,
            self.run_seed,
            len(self.bugs),
            len(self.crash_records),
            self.queue_size,
        )


def replay_edge_coverage(program, inputs, instr_budget=200_000, backend=None):
    """Union of edge-map indices covered by ``inputs`` (afl-showmap analogue).

    The replay always uses :class:`EdgeFeedback`, independent of the
    feedback the campaign fuzzed with — the paper's Table IV methodology.
    ``backend`` picks the executor (None: honour ``REPRO_BACKEND``).  The
    backends are bit-exact, so the edge set does not depend on it.  The
    compiled edge program is memoised per process; on an unpruned
    ``pcguard`` campaign it is the engine's own.
    """
    execute = make_backend(
        program, EdgeFeedback().instrument(program), backend=backend
    ).execute
    covered = set()
    for data in inputs:
        covered.update(execute(data, instr_budget=instr_budget).hits)
    return covered


def result_from_engines(subject, config_name, run_seed, engines, final_engine):
    """Assemble a CampaignResult from one or more engine phases.

    ``engines`` lists every phase that contributed crashes (culling rounds,
    the opportunistic path phase, ...); ``final_engine`` supplies the final
    queue, whose inputs are replayed for edge coverage.  Crash records are
    merged across phases by stack hash (counts accumulate).
    """
    merged = {}
    merged_hangs = {}
    crash_count = 0
    afl_unique = 0
    execs = 0
    hangs = 0
    ticks = 0
    timeline = []
    for engine in engines:
        crash_count += engine.crash_count
        afl_unique += engine.afl_unique_crash_count
        execs += engine.execs
        hangs += engine.hangs
        for digest, hang in engine.unique_hangs.items():
            existing = merged_hangs.get(digest)
            if existing is None:
                merged_hangs[digest] = HangInfo(
                    input_hash=digest,
                    data=hang.data,
                    count=hang.count,
                    found_at=ticks + hang.found_at,
                )
            else:
                existing.count += hang.count
        for hash5, record in engine.unique_crashes.items():
            existing = merged.get(hash5)
            if existing is None:
                merged[hash5] = CrashInfo(
                    bug=record.trap.bug_id(),
                    hash5=hash5,
                    kind=record.trap.kind,
                    count=record.count,
                    afl_unique=record.afl_unique,
                    found_at=ticks + record.found_at,
                    stack=tuple(f.key() for f in record.trap.stack),
                )
            else:
                existing.count += record.count
        phase_ticks = engine.clock.ticks if engine.clock else 0
        for sample in engine.timeline:
            timeline.append((ticks + sample[0],) + sample[1:])
        ticks += phase_ticks
    records = list(merged.values())
    bugs = {record.bug_id() for record in records}
    edges = replay_edge_coverage(
        subject.program,
        final_engine.corpus_inputs(),
        backend=final_engine.backend.name,
    )
    from repro.fuzzer.clock import TICKS_PER_HOUR
    from repro.telemetry.plateau import default_window, detect_plateaus

    # Executions per virtual hour, the clock's native campaign unit.
    throughput = execs / (ticks / TICKS_PER_HOUR) if ticks else 0.0
    # Coverage plateaus, derived deterministically from the timeline the
    # engine records anyway — populated whether or not tracing was on, and
    # excluded from __eq__ like all observability metadata.  The stall
    # window scales with the campaign budget, not the observed timeline
    # span: short campaigns sample sparsely, and a span-derived window
    # would flag the gap between two final snapshots as a "plateau".
    plateaus = detect_plateaus(
        [(t[0], t[2]) for t in timeline], window=default_window(ticks)
    )
    return CampaignResult(
        subject_name=subject.name,
        config_name=config_name,
        run_seed=run_seed,
        bugs=bugs,
        crash_records=records,
        crash_count=crash_count,
        afl_unique_crash_count=afl_unique,
        queue_size=len(final_engine.queue.entries),
        edges=frozenset(edges),
        execs=execs,
        hangs=hangs,
        hang_records=tuple(merged_hangs.values()),
        ticks=ticks,
        throughput=throughput,
        timeline=timeline,
        plateaus=plateaus,
    )
