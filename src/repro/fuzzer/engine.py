"""The greybox fuzzing engine.

:class:`FuzzEngine` is an AFL++-shaped loop: seed dry-run, queue cycling
with favored-entry skipping, power-scheduled havoc + splice stages, an
optional cmplog (input-to-state) stage, crash collection with eager
stack-hash dedup, and timeline sampling — all on the deterministic virtual
clock.  The *coverage feedback is a plug-in*: the engine never looks inside
map indices, so swapping :class:`~repro.coverage.feedback.EdgeFeedback` for
:class:`~repro.coverage.feedback.PathFeedback` changes exactly one component,
as in the paper.

:func:`afl_engine_config` yields the reduced configuration (legacy mutation
repertoire, no cmplog) approximating the AFL 2.52b base of PathAFL.
"""

from time import perf_counter as _perf_counter

from repro.analysis.solver import apply_witness, solve_flip
from repro.analysis.symbolic import extract_path_condition
from repro.coverage.bitmap import VirginMap, classify_hits
from repro.fuzzer.clock import EXEC_OVERHEAD, VirtualClock
from repro.fuzzer.cmplog import candidates_from_log
from repro.fuzzer.concolic import ConcolicState, concolic_enabled
from repro.fuzzer.corpus import Queue
from repro.fuzzer.masked import masked_candidates, masked_havoc, sweep_candidates
from repro.fuzzer.mutators import havoc, random_bytes, splice
from repro.fuzzer.schedule import havoc_iterations, performance_score
from repro.fuzzer.store import content_hash
from repro.runtime.backend import make_backend
from repro.taint import TaintState, build_branch_index, select_targets, taint_enabled
from repro.triage.stacktrace import stack_hash


#: Targeted-stage budgets (DESIGN §12, §14).  A taint target whose focus
#: mask has at most TAINT_SWEEP_BYTES bytes is enumerated outright; a wider
#: one gets TAINT_ENERGY masked havoc executions.  Each stage aims at one
#: branch at most its *_REVISITS times per campaign.
TAINT_ENERGY = 32
TAINT_SWEEP_BYTES = 2
TAINT_REVISITS = 4
CONCOLIC_REVISITS = 2

#: At most this many cmplog substitution candidates per queue entry.
CMPLOG_MAX_CANDIDATES = 48


class EngineConfig:
    """Tunables of the fuzzing loop (defaults model AFL++ 4.07a)."""

    __slots__ = (
        "max_input_len",
        "use_cmplog",
        "legacy_havoc",
        "exec_instr_budget",
        "call_depth_limit",
        "timeline_interval",
        "backend",
        "probe_prune",
        "use_taint",
        "taint_targets",
        "use_concolic",
        "concolic_targets",
    )

    def __init__(
        self,
        max_input_len=512,
        use_cmplog=True,
        legacy_havoc=False,
        exec_instr_budget=60_000,
        call_depth_limit=64,
        timeline_interval=256,
        backend=None,
        probe_prune=False,
        use_taint=None,
        taint_targets=4,
        use_concolic=None,
        concolic_targets=2,
    ):
        self.max_input_len = max_input_len
        self.use_cmplog = use_cmplog
        self.legacy_havoc = legacy_havoc
        self.exec_instr_budget = exec_instr_budget
        self.call_depth_limit = call_depth_limit
        self.timeline_interval = timeline_interval
        # Execution backend: None defers to REPRO_BACKEND (default interp).
        # probe_prune elides flow-derivable probes under the compiled
        # backend (coverage maps unchanged; probe charges drop).
        self.backend = backend
        self.probe_prune = probe_prune
        # Taint-guided mutation (repro.taint): None defers to REPRO_TAINT
        # (default off).  Per queue cycle, ``taint_targets`` rare branches
        # get masked mutation (budgets: the TAINT_* constants above).
        self.use_taint = use_taint
        self.taint_targets = taint_targets
        # Concolic escalation (repro.analysis.symbolic/.solver): None
        # defers to REPRO_CONCOLIC (default off).  While coverage sits in
        # an open plateau, ``concolic_targets`` rare branches per queue
        # cycle get their champion's path condition extracted and the
        # guard solved within the solver's default byte and node budgets.
        self.use_concolic = use_concolic
        self.concolic_targets = concolic_targets


def afl_engine_config(**overrides):
    """The AFL 2.52b-flavoured configuration used by the Appendix C baselines."""
    defaults = dict(use_cmplog=False, legacy_havoc=True)
    defaults.update(overrides)
    return EngineConfig(**defaults)


class CrashRecord:
    """A deduplicated crash bucket (first witness + occurrence count)."""

    __slots__ = ("data", "trap", "found_at", "afl_unique", "hash5", "count")

    def __init__(self, data, trap, found_at, afl_unique, hash5):
        self.data = data
        self.trap = trap
        self.found_at = found_at
        self.afl_unique = afl_unique
        self.hash5 = hash5
        self.count = 1

    def bug_id(self):
        return self.trap.bug_id()

    def __repr__(self):
        return "CrashRecord(%s, x%d)" % (self.trap.bug_id(), self.count)


class HangRecord:
    """A deduplicated hang bucket (first witness input + occurrence count).

    Hangs are first-class artifacts like crashes: the hanging input is
    retained (and streamed to the campaign store's ``hangs/`` directory when
    one is attached) instead of being silently discarded.  Deduplication is
    by input content hash — hang stacks are not meaningful the way crash
    stacks are, since the trap fires wherever the budget ran out.
    """

    __slots__ = ("data", "found_at", "input_hash", "count")

    def __init__(self, data, found_at, input_hash):
        self.data = data
        self.found_at = found_at
        self.input_hash = input_hash
        self.count = 1

    def __repr__(self):
        return "HangRecord(%dB, x%d)" % (len(self.data), self.count)


class FuzzEngine:
    """One fuzzing campaign phase over a single program and feedback.

    ``telemetry`` (optional) is a
    :class:`repro.telemetry.trace.EngineTelemetry`: when set, the engine
    times its stages (mutate / execute / classify / queue / cull) into span
    histograms and publishes periodic metric snapshots at the timeline
    cadence.  Telemetry is pure observation — it never touches the virtual
    clock or the RNG, is excluded from :meth:`snapshot` checkpoints, and a
    traced campaign's result equals an untraced one field for field.
    """

    def __init__(
        self, program, feedback, seeds, rng, config=None, tokens=(), telemetry=None
    ):
        self.program = program
        self.feedback = feedback
        self.instrumentation = feedback.instrument(program)
        self.rng = rng
        self.config = config or EngineConfig()
        self.backend = make_backend(
            program,
            self.instrumentation,
            backend=self.config.backend,
            probe_prune=self.config.probe_prune,
        )
        self.telemetry = telemetry
        # bytearrays, because havoc's slice write copies a bytes token into a
        # temporary bytearray first.
        self.tokens = tuple(bytearray(t) for t in tokens)
        self.queue = Queue()
        self.virgin = VirginMap()
        self.crash_virgin = VirginMap()
        self.unique_crashes = {}  # stack hash -> CrashRecord
        self.unique_hangs = {}  # input content hash -> HangRecord
        # Optional durable workspace (repro.fuzzer.store.CampaignStore).
        # Like telemetry it is pure observation: new queue entries, crashes,
        # and hangs stream to disk as found, with no effect on the clock,
        # the RNG, or checkpoints.
        self.store = None
        self.crash_count = 0
        self.afl_unique_crash_count = 0
        self.execs = 0
        self.hangs = 0
        self.cycle = 0
        self.timeline = []
        self.clock = None
        self._queue_index = 0
        self._seeds = [bytes(s) for s in seeds]
        # Taint-guided targeting state (None when the subsystem is off, so
        # taint-off campaigns execute the exact pre-taint instruction
        # stream — the no-op overhead gate in CI pins this).
        self.taint = TaintState() if taint_enabled(self.config.use_taint) else None
        # Concolic escalation state (None when off — same contract: off
        # means the exact pre-concolic instruction stream, tick for tick).
        self.concolic = (
            ConcolicState() if concolic_enabled(self.config.use_concolic) else None
        )
        # Map index -> branch site for both targeted stages; a pure function
        # of (program, instrumentation), built on the first targeted cycle.
        self._branch_index = None

    # -- the outer loop ------------------------------------------------------

    def run(self, budget_ticks):
        """Fuzz until the virtual budget expires; returns self for chaining."""
        self.start(budget_ticks)
        self.run_until(budget_ticks)
        self.finish()
        return self

    def start(self, budget_ticks):
        """Arm the clock and dry-run the seeds without fuzzing yet.

        Splitting :meth:`run` into ``start`` / :meth:`run_until` /
        :meth:`finish` lets instance-parallel campaigns pause the loop at
        corpus-sync barriers and resume it on the same clock.
        """
        self.clock = VirtualClock(budget_ticks)
        self._queue_index = 0
        if self.telemetry is not None:
            self.telemetry.begin(budget_ticks)
        self._dry_run_seeds()
        return self

    def run_until(self, tick_target):
        """Fuzz until the clock reaches ``tick_target`` (soft barrier).

        The barrier is checked between per-entry stages, so the loop may
        overshoot by one entry's worth of mutations — deterministically, as
        everything else on the virtual clock.
        """
        tick_target = min(tick_target, self.clock.budget)
        while self.clock.ticks < tick_target:
            if not self.queue.entries:
                # Every seed crashed or hung; fall back to random inputs.
                self._run_and_process(bytes(random_bytes(self.rng, 16)), depth=0)
                continue
            if self._queue_index >= len(self.queue.entries):
                self._queue_index = 0
                self.cycle += 1
                # Cycle-boundary stages run atomically w.r.t. the barrier:
                # breaking between them would skip the later stage for this
                # cycle and make barrier placement (checkpoint slicing)
                # perturb the trajectory.  Both stages bound their own work
                # against the clock *budget*, so overshoot stays bounded.
                if self.taint is not None:
                    self._targeted_cycle(
                        self.taint,
                        self.config.taint_targets,
                        TAINT_REVISITS,
                        self._taint_target_stage,
                    )
                if self.concolic is not None and self.concolic.stalled():
                    self._targeted_cycle(
                        self.concolic,
                        self.config.concolic_targets,
                        CONCOLIC_REVISITS,
                        self._concolic_target_stage,
                    )
                if self.clock.ticks >= tick_target:
                    break
            entry = self.queue.entries[self._queue_index]
            self._queue_index += 1
            tel = self.telemetry
            if tel is None:
                self.queue.cull()
            else:
                t0 = _perf_counter()
                self.queue.cull()
                tel.record_stage("cull", _perf_counter() - t0)
            if self._should_skip(entry):
                if tel is not None:
                    tel.record_skipped()
                continue
            self._fuzz_one(entry)
            entry.was_fuzzed = True
        return self

    def finish(self):
        """Record the final timeline sample; returns self for chaining."""
        self._snapshot()
        if self.telemetry is not None:
            self.telemetry.finish(self.clock.ticks if self.clock else 0)
        return self

    # -- checkpoint / resume ---------------------------------------------------

    def snapshot(self):
        """Picklable deep snapshot of every piece of mutable campaign state.

        Captures the queue (entries, champions, cull bookkeeping), both
        virgin maps, the crash log, all counters, the timeline, the loop
        cursor, the virtual clock, and the RNG state — everything
        :meth:`run_until` reads or writes.  Taking a snapshot between
        barriers and restoring it into a freshly constructed engine (same
        program/feedback/seeds/config) yields a tick-for-tick identical
        continuation.
        """
        if self.clock is None:
            raise RuntimeError("engine not started; nothing to snapshot")
        crashes = [
            (
                hash5,
                record.data,
                record.trap,
                record.found_at,
                record.afl_unique,
                record.count,
            )
            for hash5, record in self.unique_crashes.items()
        ]
        hangs_log = [
            (digest, record.data, record.found_at, record.count)
            for digest, record in self.unique_hangs.items()
        ]
        return {
            "queue": self.queue.snapshot(),
            "hangs_log": hangs_log,
            "virgin": dict(self.virgin.bits),
            "crash_virgin": dict(self.crash_virgin.bits),
            "crashes": crashes,
            "crash_count": self.crash_count,
            "afl_unique_crash_count": self.afl_unique_crash_count,
            "execs": self.execs,
            "hangs": self.hangs,
            "cycle": self.cycle,
            "timeline": list(self.timeline),
            "queue_index": self._queue_index,
            "clock": self.clock.snapshot(),
            "rng": self.rng.getstate(),
            "taint": self.taint.snapshot() if self.taint is not None else None,
            "concolic": (
                self.concolic.snapshot() if self.concolic is not None else None
            ),
        }

    def restore(self, state):
        """Adopt a :meth:`snapshot` into this (freshly built) engine."""
        from repro.fuzzer.clock import VirtualClock

        self.queue = Queue()
        self.queue.restore(state["queue"])
        self.virgin = VirginMap()
        self.virgin.bits = dict(state["virgin"])
        self.crash_virgin = VirginMap()
        self.crash_virgin.bits = dict(state["crash_virgin"])
        self.unique_crashes = {}
        for hash5, data, trap, found_at, afl_unique, count in state["crashes"]:
            record = CrashRecord(data, trap, found_at, afl_unique, hash5)
            record.count = count
            self.unique_crashes[hash5] = record
        self.unique_hangs = {}
        for digest, data, found_at, count in state.get("hangs_log", ()):
            hang = HangRecord(data, found_at, digest)
            hang.count = count
            self.unique_hangs[digest] = hang
        self.crash_count = state["crash_count"]
        self.afl_unique_crash_count = state["afl_unique_crash_count"]
        self.execs = state["execs"]
        self.hangs = state["hangs"]
        self.cycle = state["cycle"]
        self.timeline = list(state["timeline"])
        self._queue_index = state["queue_index"]
        self.clock = VirtualClock.from_snapshot(state["clock"])
        self.rng.setstate(state["rng"])
        taint_snap = state.get("taint")
        if self.taint is not None and taint_snap is not None:
            self.taint.restore(taint_snap)
        concolic_snap = state.get("concolic")
        if self.concolic is not None and concolic_snap is not None:
            self.concolic.restore(concolic_snap)
        return self

    def save_checkpoint(self, path, meta=None, fingerprint=None):
        """Write a validated on-disk checkpoint (see :mod:`.checkpoint`)."""
        from repro.fuzzer.checkpoint import write_checkpoint

        meta = dict(meta or {})
        meta.setdefault("backend", self.backend.name)
        return write_checkpoint(
            path, self.snapshot(), meta=meta, fingerprint=fingerprint
        )

    def resume(self, path, fingerprint=None):
        """Restore a checkpoint file into this engine; returns its meta dict.

        The file is magic/version/fingerprint/digest-checked before any
        state is unpickled; stale or corrupt checkpoints raise a typed
        :class:`~repro.fuzzer.checkpoint.CheckpointError` and leave the
        engine untouched.
        """
        from repro.fuzzer.checkpoint import read_checkpoint

        state, meta = read_checkpoint(path, fingerprint=fingerprint)
        self.restore(state)
        return meta

    def import_input(self, data):
        """Adopt an input synced from another fuzzing instance.

        The input is re-executed under *this* engine's instrumentation (as
        AFL++'s ``sync_fuzzers`` re-runs synced cases) and queued only if it
        is locally novel.  Returns the new entry or ``None``.
        """
        entry = self._run_and_process(bytes(data), depth=0)
        if entry is not None:
            entry.imported = True
        return entry

    def _dry_run_seeds(self):
        for seed in self._seeds:
            if self.clock.expired():
                break
            result = self._execute(seed)
            if result.timeout:
                self._record_hang(seed)
                continue
            if result.crashed:
                self._record_crash(seed, result)
                continue
            classified = classify_hits(result.hits)
            entry = self.queue.make_entry(
                seed, result.virtual_cost, classified, depth=0, found_at=self.clock.ticks
            )
            self.queue.add(entry)
            self.virgin.merge(classified)
            if self.store is not None:
                self.store.save_queue_entry(entry)

    def _should_skip(self, entry):
        """AFL's probabilistic skipping of non-favored entries."""
        if entry.favored:
            return False
        if self.queue.pending_favored > 0:
            return self.rng.random() < 0.99
        if len(self.queue.entries) > 10:
            if entry.was_fuzzed:
                return self.rng.random() < 0.95
            return self.rng.random() < 0.75
        return False

    # -- per-entry stages ------------------------------------------------------

    def _fuzz_one(self, entry):
        config = self.config
        avg_cost, avg_trace = self._averages()
        score = performance_score(entry, avg_cost, avg_trace)
        iterations = havoc_iterations(score)
        if config.use_cmplog and not entry.cmplog_done:
            self._cmplog_stage(entry)
            entry.cmplog_done = True
        tel = self.telemetry
        for _ in range(iterations):
            if self.clock.expired():
                return
            t0 = _perf_counter() if tel is not None else 0.0
            mutated = havoc(
                self.rng,
                entry.data,
                config.max_input_len,
                self.tokens,
                legacy=config.legacy_havoc,
            )
            if tel is not None:
                tel.record_stage("mutate", _perf_counter() - t0)
            self._run_and_process(mutated, entry.depth + 1)
        if len(self.queue.entries) > 1:
            for _ in range(max(2, iterations // 4)):
                if self.clock.expired():
                    return
                other = self.rng.choice(self.queue.entries)
                t0 = _perf_counter() if tel is not None else 0.0
                spliced = splice(self.rng, entry.data, other.data)
                mutated = havoc(
                    self.rng,
                    spliced,
                    config.max_input_len,
                    self.tokens,
                    legacy=config.legacy_havoc,
                )
                if tel is not None:
                    tel.record_stage("mutate", _perf_counter() - t0)
                self._run_and_process(mutated, entry.depth + 1)

    # -- rare-branch targeted stages (taint, concolic) -------------------------

    def _targeted_cycle(self, state, limit, max_visits, aim):
        """Once per queue cycle: pick rare branch targets, ``aim`` a stage at each.

        ``state`` is the stage's TaintState or ConcolicState; only its visit
        map and ``targets_selected`` counter are touched here.
        """
        if self._branch_index is None:
            self._branch_index = build_branch_index(self.program, self.instrumentation)
        targets = select_targets(
            self.queue,
            self._branch_index,
            limit,
            visits=state.visits,
            max_visits=max_visits,
        )
        for target in targets:
            if self.clock.expired():
                return
            state.visits[target.index] = state.visits.get(target.index, 0) + 1
            state.targets_selected += 1
            aim(target)

    def _aimed_run(self, data, parent, target):
        """Execute one input aimed at ``target``; returns ``(flipped, new_entry)``.

        Reaching a crash counts as a flip (the jackpot case); a hang does not.
        """
        result = self._execute(data)
        if result.timeout:
            self._record_hang(data)
            return False, None
        if result.crashed:
            self._record_crash(data, result)
            return True, None
        sibling = target.sibling_index
        flipped = sibling is not None and sibling in result.hits
        return flipped, self._process_result(data, result, parent.depth + 1)

    def _account_shadow_run(self, t0, result, ticks):
        """Charge a shadow run (taint or extraction) as one execution."""
        if self.telemetry is not None:
            self.telemetry.record_exec(_perf_counter() - t0, result)
        self.clock.charge(ticks)
        self.execs += 1
        if self.execs % self.config.timeline_interval == 0:
            self._snapshot()

    def _taint_map_for(self, entry):
        """The entry's TaintMap, from cache or a fresh (clock-charged) taint run."""
        taint = self.taint
        tmap = taint.cached_map(entry.entry_id)
        if tmap is not None:
            return tmap
        t0 = _perf_counter() if self.telemetry is not None else 0.0
        result, tmap = self.backend.taint_execute(
            entry.data,
            instr_budget=self.config.exec_instr_budget,
            call_depth_limit=self.config.call_depth_limit,
        )
        taint.taint_runs += 1
        self._account_shadow_run(
            t0, result, EXEC_OVERHEAD + result.virtual_cost + len(result.hits) // 4
        )
        if result.crashed or result.timeout:
            # A queue entry that stopped replaying clean (nondeterministic
            # programs don't exist here, but budget-boundary hangs can):
            # nothing to target.
            return None
        taint.cache_map(entry.entry_id, tmap)
        return tmap

    def _taint_target_stage(self, target):
        """Masked I2S + sweep/havoc aimed at one rare-branch target."""
        entry = target.entry
        tmap = self._taint_map_for(entry)
        if tmap is None:
            return
        focus, frozen = tmap.target_masks(target.site, len(entry.data))
        if not focus:
            return
        if self.telemetry is not None:
            self.telemetry.record_taint(target, focus, frozen)
        for candidate in masked_candidates(entry.data, tmap, focus):
            if self.clock.expired():
                return
            self._masked_run(candidate, entry, target, focus)
        if len(focus) <= TAINT_SWEEP_BYTES:
            # Tiny mask: enumerate it outright (Angora's exploitation).
            for candidate in sweep_candidates(entry.data, focus):
                if self.clock.expired():
                    return
                if self._masked_run(candidate, entry, target, focus):
                    return
        else:
            for _ in range(TAINT_ENERGY):
                if self.clock.expired():
                    return
                mutated = masked_havoc(self.rng, entry.data, focus)
                self._masked_run(mutated, entry, target, focus)

    def _masked_run(self, data, parent, target, focus):
        """Execute one masked mutation; True when the target branch flipped."""
        taint = self.taint
        taint.masked_execs += 1
        flipped, entry = self._aimed_run(data, parent, target)
        if flipped:
            taint.masked_hits += 1
        if self.telemetry is not None:
            self.telemetry.record_masked(flipped)
        if entry is not None:
            entry.taint_focus = frozenset(focus)
        return flipped

    def _concolic_target_stage(self, target):
        """Extract the champion's path condition, solve flips of the guard."""
        concolic = self.concolic
        entry = target.entry
        # Taint narrows the symbolic variable set to the branch's sound
        # focus mask when available; without taint every byte is symbolic.
        sym_bytes = None
        if self.taint is not None:
            tmap = self._taint_map_for(entry)
            if tmap is not None:
                focus, _frozen = tmap.target_masks(target.site, len(entry.data))
                if focus:
                    sym_bytes = focus
        tel = self.telemetry
        t0 = _perf_counter() if tel is not None else 0.0
        result, condition = extract_path_condition(
            self.program,
            entry.data,
            sym_bytes=sym_bytes,
            instr_budget=self.config.exec_instr_budget,
            call_depth_limit=self.config.call_depth_limit,
        )
        concolic.extract_runs += 1
        self._account_shadow_run(t0, result, EXEC_OVERHEAD + result.virtual_cost)
        if result.crashed or result.timeout:
            return
        for constraint in condition.at_site(target.site)[:2]:
            if self.clock.expired():
                return
            concolic.solve_attempts += 1
            assignment, stats = solve_flip(
                constraint, condition.prefix(constraint.index), entry.data
            )
            # Solving is deterministic work; it pays clock like mutation.
            self.clock.charge(stats.clock_cost())
            flipped = False
            if assignment is not None:
                concolic.solved += 1
                concolic.witness_execs += 1
                witness = apply_witness(entry.data, assignment)
                flipped = self._aimed_run(witness, entry, target)[0]
                if flipped:
                    concolic.flips += 1
            if tel is not None:
                tel.record_concolic(target, stats, assignment is not None, flipped)
            if flipped:
                return

    def _cmplog_stage(self, entry):
        """Harvest comparison operands, then try direct substitutions."""
        result = self._execute(entry.data, cmplog=True)
        if result.crashed or result.timeout:
            return
        candidates = candidates_from_log(
            entry.data, result.cmp_log, CMPLOG_MAX_CANDIDATES
        )
        for candidate in candidates:
            if self.clock.expired():
                return
            self._run_and_process(
                candidate[: self.config.max_input_len], entry.depth + 1
            )

    def _averages(self):
        queue = self.queue
        count = len(queue.entries)
        if not count:
            return 0, 0
        return queue.total_cost / count, queue.total_trace / count

    # -- execution plumbing ----------------------------------------------------

    def _execute(self, data, cmplog=False):
        tel = self.telemetry
        t0 = _perf_counter() if tel is not None else 0.0
        result = self.backend.execute(
            data,
            instr_budget=self.config.exec_instr_budget,
            call_depth_limit=self.config.call_depth_limit,
            cmplog=cmplog,
        )
        if tel is not None:
            # The "execute" span is the backend's whole run for one input:
            # dispatch, probe actions, and budget accounting.
            tel.record_exec(_perf_counter() - t0, result)
        # Virtual cost: the run itself + the novelty scan over its trace.
        self.clock.charge(EXEC_OVERHEAD + result.virtual_cost + len(result.hits) // 4)
        self.execs += 1
        if self.execs % self.config.timeline_interval == 0:
            self._snapshot()
        return result

    def _run_and_process(self, data, depth):
        """Execute a candidate; queue it if novel.  Returns the new entry."""
        result = self._execute(data)
        if result.timeout:
            self._record_hang(data)
            return None
        if result.crashed:
            self._record_crash(data, result)
            return None
        return self._process_result(data, result, depth)

    def _process_result(self, data, result, depth):
        """Novelty-check a clean result; queue and return the entry if new."""
        tel = self.telemetry
        t0 = _perf_counter() if tel is not None else 0.0
        classified = classify_hits(result.hits)
        new_indices, new_buckets = self.virgin.probe(classified)
        if tel is not None:
            tel.record_stage("classify", _perf_counter() - t0)
        if not (new_indices or new_buckets):
            return None
        t0 = _perf_counter() if tel is not None else 0.0
        entry = self.queue.make_entry(
            data, result.virtual_cost, classified, depth, found_at=self.clock.ticks
        )
        entry.handicap = self.cycle
        self.queue.add(entry)
        self.virgin.merge(classified)
        if self.store is not None:
            self.store.save_queue_entry(entry)
        if tel is not None:
            tel.record_stage("queue", _perf_counter() - t0)
            tel.record_queued()
        return entry

    def _record_crash(self, data, result):
        self.crash_count += 1
        classified = classify_hits(result.hits)
        new_indices, new_buckets = self.crash_virgin.probe(classified)
        afl_unique = new_indices or new_buckets
        if afl_unique:
            self.afl_unique_crash_count += 1
            self.crash_virgin.merge(classified)
        hash5 = stack_hash(result.trap.stack)
        record = self.unique_crashes.get(hash5)
        if record is None:
            record = CrashRecord(data, result.trap, self.clock.ticks, afl_unique, hash5)
            self.unique_crashes[hash5] = record
            if self.store is not None:
                self.store.save_crash(record)
        else:
            record.count += 1

    def _record_hang(self, data):
        """Count a timeout and retain its input (first witness per content)."""
        self.hangs += 1
        digest = content_hash(data)
        record = self.unique_hangs.get(digest)
        if record is None:
            record = HangRecord(bytes(data), self.clock.ticks, digest)
            self.unique_hangs[digest] = record
            if self.store is not None:
                self.store.save_hang(data)
        else:
            record.count += 1

    def _snapshot(self):
        coverage = self.virgin.coverage_count()
        if self.concolic is not None:
            # The engine-owned stall detector rides the timeline cadence;
            # it has no bus, so traced and untraced campaigns stay equal.
            self.concolic.observe(self.clock.ticks, coverage, self.clock.budget)
        self.timeline.append(
            (
                self.clock.ticks,
                len(self.queue.entries),
                coverage,
                self.crash_count,
                self.execs,
            )
        )
        if self.telemetry is not None:
            self.telemetry.sample(
                self.clock.ticks,
                coverage,
                len(self.queue.entries),
                self.crash_count,
                self.execs,
            )

    # -- results ---------------------------------------------------------------

    def corpus_inputs(self):
        """The raw bytes of every queue entry (for strategies and replay)."""
        return [entry.data for entry in self.queue.entries]

    def throughput(self):
        """Executions per virtual hour (the clock's native campaign unit)."""
        if self.clock is None or self.clock.ticks == 0:
            return 0.0
        from repro.fuzzer.clock import TICKS_PER_HOUR

        return self.execs / (self.clock.ticks / TICKS_PER_HOUR)
