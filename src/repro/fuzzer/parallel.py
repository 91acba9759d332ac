"""Parallel campaign execution.

Two multiprocess modes, mirroring how the paper's evaluation was deployed
on a many-core server:

**Matrix parallelism** (:func:`run_cells`, :func:`run_matrix_parallel`)
    fans independent (subject, config, run-seed) campaign cells out over a
    pool of worker *processes*.  Each cell runs in a process of its own, so
    a worker that raises, hangs past its deadline, or dies outright marks
    only its cell failed — the rest of the matrix completes.  Per-cell RNGs
    are derived from the cell key (see ``campaign_rng``), so a parallel run
    is byte-identical to the sequential one, and workers share the runner's
    on-disk result cache.

**Instance parallelism** (:func:`run_instance_campaign`)
    an AFL++-style main/secondary campaign: N engine workers fuzz the *same*
    subject under the same config (distinct per-instance RNG streams) and
    periodically exchange interesting inputs through a parent-mediated
    corpus sync.  The merge policy is AFL's: candidates are deduplicated by
    input hash, admitted only if they add (index, bucket) novelty to the
    shared virgin map under the campaign's own feedback, and broadcast to
    every other worker, which re-executes them locally before queueing
    (``import_input``).  Sync rounds are barriers driven in worker order,
    so the whole campaign is deterministic for a fixed worker count.

Both modes report progress through :mod:`repro.fuzzer.stats`, and both are
*supervised* (see :mod:`repro.fuzzer.supervisor`): matrix cells that crash
or time out can be retried with exponential backoff, and instance workers
that die or stall are restarted from their last checkpoint (or replayed
deterministically from round zero) with a restart budget — a worker that
exhausts it is dropped and the campaign continues degraded instead of
failing.  The :mod:`repro.fuzzer.faultinject` harness drives every one of
those recovery paths under test.
"""

import hashlib
import logging
import os
import time
from collections import deque
from multiprocessing import connection

from repro.coverage.bitmap import VirginMap
from repro.fuzzer.stats import CampaignStats, MatrixProgress
from repro.fuzzer.supervisor import (
    DEFAULT_WORKER_TIMEOUT,
    RestartPolicy,
    SupervisedWorker,
    Supervisor,
    WorkerDeadError,
    WorkerLostError,
    mp_context,
    recv_with_deadline,
)

logger = logging.getLogger("repro.fuzzer.parallel")


# -- matrix parallelism --------------------------------------------------------


class CellFailure:
    """Why one matrix cell produced no result."""

    __slots__ = ("key", "kind", "message", "restarts")

    def __init__(self, key, kind, message, restarts=0):
        self.key = key
        self.kind = kind  # "error" | "crashed" | "timeout"
        self.message = message
        self.restarts = restarts  # supervised retries consumed before giving up

    def __repr__(self):
        return "CellFailure(%s: %s, %s)" % (self.key, self.kind, self.message)


class ParallelMatrixError(RuntimeError):
    """Raised after a parallel matrix finishes with failed cells.

    The run is never aborted early: every other cell completes first, and
    ``partial_results`` carries everything that did succeed.
    """

    def __init__(self, failures, partial_results):
        self.failures = list(failures)
        self.partial_results = partial_results
        lines = ["%d matrix cell(s) failed:" % len(self.failures)]
        for failure in self.failures:
            lines.append(
                "  %s: [%s] %s" % (failure.key, failure.kind, failure.message)
            )
        super().__init__("\n".join(lines))


def run_campaign_cell(task):
    """Default cell body: one cached campaign (runs inside the worker)."""
    from repro.experiments.runner import campaign

    return campaign(*task)


def _cell_entry(conn, cell_fn, task):
    """Worker process entry: run the cell, ship the outcome, exit."""
    try:
        from repro import telemetry

        # Re-home tracing: a forked child must not append to the parent's
        # JSONL stream (its writes are PID-guarded no-ops anyway).
        telemetry.child_trace("cell%d" % os.getpid())
        result = cell_fn(task)
        conn.send(("ok", result))
    except BaseException as exc:  # report *any* failure, then die quietly
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def run_cells(
    tasks,
    jobs,
    timeout=None,
    cell_fn=None,
    progress=None,
    max_restarts=None,
    restart_policy=None,
):
    """Run independent campaign cells over ``jobs`` worker processes.

    ``tasks`` maps cell key -> argument tuple for ``cell_fn`` (default:
    :func:`run_campaign_cell`).  Returns ``(results, failures)`` where
    ``results`` maps key -> cell result and ``failures`` lists a
    :class:`CellFailure` per cell that raised ("error"), died without
    reporting ("crashed"), or exceeded ``timeout`` wall seconds
    ("timeout").  A failing cell never aborts the others.

    Transient failures ("crashed", "timeout") are retried with exponential
    backoff up to ``max_restarts`` times per cell (default: the
    ``REPRO_CELL_RESTARTS`` environment knob, 0).  Deterministic failures
    ("error": the cell raised) are never retried — rerunning them only
    reproduces the exception more slowly.  With checkpointing enabled
    (``REPRO_CHECKPOINT_DIR``), a retried campaign cell resumes from its
    last checkpoint instead of recomputing from zero.
    """
    cell_fn = run_campaign_cell if cell_fn is None else cell_fn
    jobs = max(1, int(jobs))
    if max_restarts is None:
        max_restarts = int(os.environ.get("REPRO_CELL_RESTARTS", "0") or 0)
    policy = restart_policy or RestartPolicy(max_restarts=max_restarts)
    if progress is None:
        progress = MatrixProgress(total=len(tasks))
    ctx = mp_context()
    # Work items are (key, task, attempt, not_before): ``not_before`` holds
    # a retried cell out of the pool until its backoff expires.
    pending = deque((key, task, 0, 0.0) for key, task in tasks.items())
    running = {}  # recv conn -> (key, task, process, started, deadline, attempt)
    results = {}
    failures = []

    def finish(conn, status, wall, execs=0):
        key, _, _, _, _, attempt = running.pop(conn)
        conn.close()
        progress.record_cell(key, status, wall, execs, restarts=attempt)

    def retire(conn, kind, message, wall):
        """Fail one attempt: reschedule if transient and budget remains."""
        key, task, _, _, _, attempt = running[conn]
        if kind != "error" and attempt < policy.max_restarts:
            delay = policy.delay(attempt + 1)
            progress.record_retry(key, attempt + 1, kind, delay)
            running.pop(conn)
            conn.close()
            pending.append((key, task, attempt + 1, time.monotonic() + delay))
            return
        failures.append(CellFailure(key, kind, message, restarts=attempt))
        finish(conn, kind, wall)

    while pending or running:
        now = time.monotonic()
        deferred = []
        while pending and len(running) < jobs:
            key, task, attempt, not_before = pending.popleft()
            if not_before > now:
                deferred.append((key, task, attempt, not_before))
                continue
            recv_conn, send_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_cell_entry, args=(send_conn, cell_fn, task), daemon=True
            )
            proc.start()
            send_conn.close()
            started = time.monotonic()
            deadline = started + timeout if timeout else None
            running[recv_conn] = (key, task, proc, started, deadline, attempt)
        for item in reversed(deferred):
            pending.appendleft(item)
        wait_until = [d for (_, _, _, _, d, _) in running.values() if d is not None]
        if deferred and len(running) < jobs:
            wait_until.append(min(item[3] for item in deferred))
        wait_for = None
        if wait_until:
            wait_for = max(0.0, min(wait_until) - time.monotonic())
        if not running:
            # Only backed-off retries remain; sleep until the earliest one.
            if wait_for:
                time.sleep(wait_for)
            continue
        ready = connection.wait(list(running), timeout=wait_for)
        now = time.monotonic()
        if not ready:
            for conn, (key, task, proc, started, deadline, attempt) in list(
                running.items()
            ):
                if deadline is not None and now >= deadline:
                    proc.terminate()
                    proc.join()
                    retire(
                        conn,
                        "timeout",
                        "exceeded %.1fs wall budget" % timeout,
                        now - started,
                    )
            continue
        for conn in ready:
            key, task, proc, started, _, attempt = running[conn]
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                proc.join()
                message = "worker died without reporting (exit code %s)" % (
                    proc.exitcode,
                )
                retire(conn, "crashed", message, now - started)
                continue
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
            if status == "ok":
                results[key] = payload
                finish(conn, "ok", now - started, getattr(payload, "execs", 0))
            else:
                retire(conn, "error", payload, now - started)
    return results, failures


def run_matrix_parallel(cells, jobs, timeout=None, progress=None):
    """Run a campaign-cell matrix; raise if any cell failed.

    ``cells`` maps (subject, config, run_seed) -> campaign argument tuple.
    On any failure, raises :class:`ParallelMatrixError` *after* every other
    cell has completed (partial results attached).
    """
    results, failures = run_cells(cells, jobs, timeout=timeout, progress=progress)
    if failures:
        raise ParallelMatrixError(failures, results)
    return results


# -- instance parallelism ------------------------------------------------------


def input_hash(data):
    """Content identity used for cross-instance corpus dedup."""
    return hashlib.sha1(bytes(data)).hexdigest()


def instance_rng_seed(subject_name, config_name, run_seed, worker_index):
    """Deterministic RNG seed unique to one engine instance."""
    digest = hashlib.sha256(
        (
            "%s|%s|%d|worker%d" % (subject_name, config_name, run_seed, worker_index)
        ).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "little")


def _instance_worker(
    conn,
    subject_name,
    config_name,
    run_seed,
    worker_index,
    budget,
    checkpoint_path=None,
    incarnation=0,
    output_dir=None,
    resume_store=False,
):
    """Engine worker: obey run/import/sync_dir/checkpoint/finish commands.

    On spawn the worker reports ``("ready", resumed_round, note)``:
    ``resumed_round`` is how many sync rounds its restored state already
    embodies (0 for a fresh engine), so the parent knows which history
    suffix to replay.  A restarted worker (``incarnation > 0``) climbs the
    resume ladder of :mod:`repro.fuzzer.session` and reports a refused
    checkpoint in ``note``; the supervisor's deterministic replay rebuilds
    whatever rounds its state lacks.

    With ``output_dir`` the worker owns the ``<output_dir>/w<index>/``
    workspace slice (:class:`repro.fuzzer.store.CampaignStore`): every new
    queue entry, crash, and hang streams to disk as found, and corpus sync
    is AFL's foreign-queue scan over the sibling slices (``sync_dir``)
    instead of a parent-mediated pipe merge.

    Fault-injection hooks (:mod:`repro.fuzzer.faultinject`) fire at the
    protocol sites real campaigns die at: just before the sync reply
    (kill / stall / drop), just after a checkpoint write (truncate), and
    inside store artifact commits (torn-write / corrupt-file).
    """
    from repro.experiments.config import build_session
    from repro.fuzzer import faultinject
    from repro.fuzzer.session import CHECKPOINT, FRESH, STORE
    from repro.subjects import get_subject

    store = None
    try:
        from repro import telemetry

        telemetry.child_trace("w%d" % worker_index)
        subject = get_subject(subject_name)
        if output_dir is not None:
            from repro.fuzzer.store import CampaignStore, worker_name

            store = CampaignStore(
                output_dir,
                worker=worker_name(worker_index),
                meta={
                    "subject": subject_name,
                    "config": config_name,
                    "run_seed": run_seed,
                },
                worker_index=worker_index,
                incarnation=incarnation,
            )
        session = build_session(
            subject,
            config_name,
            run_seed,
            budget,
            checkpoint_path,
            instance=worker_index,
            telemetry=telemetry.engine_telemetry(
                label="w%d" % worker_index, budget_ticks=budget
            ),
            store=store,
        )
        engine = session.engine
        resumed = session.open(
            incarnation > 0, replay_store=resume_store or incarnation > 0
        )
        # Foreign-queue dedup: every content hash this worker has already
        # considered (its own corpus streams through the store, so the
        # store's hash index covers those).
        seen = {input_hash(seed) for seed in subject.seeds}
        round_no = 0  # sync rounds completed (and embodied in engine state)
        if resumed.rung == CHECKPOINT:
            round_no = int(resumed.meta.get("round", 0))
        elif resumed.rung == STORE:
            round_no = store.rounds()
        # First entry id not yet shipped to the parent.
        reported = 0 if resumed.rung == FRESH else engine.queue.next_entry_id()
        note = resumed.refusal
        if note and resumed.rung == STORE:
            note += "; recovered from store (%d rounds)" % round_no
        conn.send(("ready", round_no, note))
        plan = faultinject.active_plan()
        while True:
            command = conn.recv()
            if command[0] == "run":
                engine.run_until(command[1])
                round_no += 1
                if store is None:
                    fresh = [
                        (entry.data, entry.classified)
                        for entry in engine.queue.entries_since(reported)
                        if not entry.imported
                    ]
                else:
                    # Directory sync: fresh entries are already on disk;
                    # nothing crosses the pipe but the progress sample.
                    fresh = []
                reported = engine.queue.next_entry_id()
                fault = plan.match("sync", worker_index, round_no, incarnation)
                if fault is not None and faultinject.fire_sync_fault(fault):
                    continue  # injected pipe-message drop: no reply at all
                conn.send(
                    (
                        "synced",
                        fresh,
                        {
                            "ticks": engine.clock.ticks,
                            "execs": engine.execs,
                            "queue": len(engine.queue.entries),
                            "crashes": engine.crash_count,
                            "hangs": engine.hangs,
                            "coverage": engine.virgin.coverage_count(),
                        },
                    )
                )
            elif command[0] == "import":
                added = 0
                for data in command[1]:
                    if engine.import_input(data) is not None:
                        added += 1
                reported = engine.queue.next_entry_id()
                conn.send(("imported", added))
            elif command[0] == "sync_dir":
                sync_round = int(command[1])
                added = 0
                scanned = 0
                skip = seen | store.queue_hashes()
                for digest, data in store.foreign_entries(skip):
                    scanned += 1
                    seen.add(digest)
                    if engine.import_input(data) is not None:
                        added += 1
                reported = engine.queue.next_entry_id()
                store.record_round(sync_round)
                conn.send(("imported", added, scanned))
            elif command[0] == "checkpoint":
                ckpt_round = command[1]
                session.save({"round": ckpt_round, "worker": worker_index})
                fault = plan.match("checkpoint", worker_index, ckpt_round, incarnation)
                if fault is not None:
                    faultinject.fire_checkpoint_fault(fault, checkpoint_path)
                conn.send(("checkpointed", ckpt_round))
            elif command[0] == "finish":
                from repro.fuzzer.campaign import result_from_engines

                engine.finish()
                if store is not None:
                    store.finalize(engine, extra={"rounds": round_no})
                result = result_from_engines(
                    subject, config_name, run_seed, [engine], engine
                )
                conn.send(("result", result))
                return
            else:
                raise ValueError("unknown command %r" % (command[0],))
    except BaseException as exc:
        try:
            conn.send(("error", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
    finally:
        if store is not None:
            try:
                store.close()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


def _recv_or_raise(conn, worker_index, expected, timeout=DEFAULT_WORKER_TIMEOUT):
    """Deadline-guarded worker reply (typed errors; never blocks forever).

    Kept under its legacy name; the implementation is
    :func:`repro.fuzzer.supervisor.recv_with_deadline`, which raises
    :class:`~repro.fuzzer.supervisor.WorkerStallError` once ``timeout``
    wall seconds pass without a reply instead of hanging on a half-dead
    worker pipe.
    """
    return recv_with_deadline(conn, timeout, worker_index, expected)


def merge_instance_results(
    subject_name,
    config_name,
    run_seed,
    results,
    queue_size,
    degraded=False,
    degraded_reasons=(),
    worker_restarts=(),
):
    """Fold per-worker CampaignResults into one merged campaign record.

    Crash buckets merge by stack hash (counts accumulate, earliest
    ``found_at`` wins); coverage and bug sets union; execution counts sum.
    ``ticks`` is the per-instance budget actually consumed (the wall-clock
    analogue: instances run concurrently), so the merged throughput is the
    *aggregate* execs per virtual hour across all instances.
    """
    from repro.fuzzer.campaign import CampaignResult, CrashInfo, HangInfo
    from repro.fuzzer.clock import TICKS_PER_HOUR

    merged = {}
    merged_hangs = {}
    crash_count = 0
    afl_unique = 0
    execs = 0
    hangs = 0
    timeline = []
    edges = set()
    bugs = set()
    for result in results:
        crash_count += result.crash_count
        afl_unique += result.afl_unique_crash_count
        execs += result.execs
        hangs += result.hangs
        edges.update(result.edges)
        bugs.update(result.bugs)
        timeline.extend(result.timeline)
        for hang in result.hang_records:
            existing = merged_hangs.get(hang.input_hash)
            if existing is None:
                merged_hangs[hang.input_hash] = HangInfo(
                    input_hash=hang.input_hash,
                    data=hang.data,
                    count=hang.count,
                    found_at=hang.found_at,
                )
            else:
                existing.count += hang.count
                existing.found_at = min(existing.found_at, hang.found_at)
        for record in result.crash_records:
            existing = merged.get(record.hash5)
            if existing is None:
                merged[record.hash5] = CrashInfo(
                    bug=record.bug,
                    hash5=record.hash5,
                    kind=record.kind,
                    count=record.count,
                    afl_unique=record.afl_unique,
                    found_at=record.found_at,
                    stack=record.stack,
                )
            else:
                existing.count += record.count
                existing.found_at = min(existing.found_at, record.found_at)
    ticks = max((result.ticks for result in results), default=0)
    throughput = execs / (ticks / TICKS_PER_HOUR) if ticks else 0.0
    from repro.telemetry.plateau import default_window, detect_plateaus

    # Plateaus over the merged timeline: detect_plateaus rectifies the
    # interleaved per-worker coverage counts with a running max, so a gain
    # on *any* instance ends a plateau.  The stall window scales with the
    # campaign budget (ticks), not the observed timeline span.
    plateaus = detect_plateaus(
        [(t[0], t[2]) for t in sorted(timeline)], window=default_window(ticks)
    )
    return CampaignResult(
        subject_name=subject_name,
        config_name=config_name,
        run_seed=run_seed,
        bugs=bugs,
        crash_records=list(merged.values()),
        crash_count=crash_count,
        afl_unique_crash_count=afl_unique,
        queue_size=queue_size,
        edges=frozenset(edges),
        execs=execs,
        hangs=hangs,
        hang_records=tuple(merged_hangs.values()),
        ticks=ticks,
        throughput=throughput,
        timeline=sorted(timeline),
        degraded=degraded,
        degraded_reasons=tuple(degraded_reasons),
        worker_restarts=tuple(worker_restarts),
        plateaus=plateaus,
    )


#: History marker: this round synced through the shared directory, not the pipe.
_DIR_SYNC = "dir"


def run_instance_campaign(
    subject_name,
    config_name,
    run_seed,
    budget_ticks,
    workers=2,
    sync_interval_ticks=None,
    stats=None,
    supervise=True,
    restart_policy=None,
    worker_timeout=None,
    checkpoint_dir=None,
    output_dir=None,
    resume_store=False,
):
    """AFL++-style main/secondary campaign over ``workers`` engine processes.

    Every instance fuzzes the full ``budget_ticks`` (as real instances each
    run the full wall-clock), pausing at sync barriers every
    ``sync_interval_ticks`` (default: budget / 8, the paper's round scale).
    Returns ``(merged_result, worker_results, stats)``.

    The campaign is *supervised*: a worker that dies or stalls (no reply
    within ``worker_timeout`` wall seconds) is restarted with exponential
    backoff under ``restart_policy``, resumed from its last on-disk
    checkpoint (one per worker under ``checkpoint_dir``, written at every
    sync barrier) or — when no valid checkpoint exists — rebuilt by
    deterministically replaying the completed rounds.  Either way the
    recovered campaign is byte-identical to an undisturbed one.  A worker
    that exhausts its restart budget is dropped: the campaign continues
    with the survivors and the merged result records ``degraded=True``
    plus per-worker restart counts.  ``supervise=False`` restores the old
    fail-fast behavior (any worker failure raises).

    ``output_dir`` switches the campaign to the *durable workspace* mode:
    every worker owns an AFL-style ``<output_dir>/w<i>/`` store slice
    (:mod:`repro.fuzzer.store`) that streams queue entries, crashes, and
    hangs to disk as found, and sync rounds become AFL's foreign-queue
    directory scan (dedupe by content hash) instead of in-memory pipe
    merges.  A restarted worker with no valid checkpoint recovers from its
    store slice; ``resume_store=True`` makes the *first* spawn recover the
    same way, which is how ``--resume-dir`` continues a killed campaign.
    Store-based recovery is lossless for everything durably written but
    not tick-identical (survivors replay through ``import_input``), so a
    resumed campaign's result is a superset of the on-disk state, not a
    byte-identical rerun.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    from repro.experiments.config import FUZZER_CONFIGS
    from repro.subjects import get_subject

    spec = FUZZER_CONFIGS[config_name]
    if spec.kind != "plain":
        raise ValueError(
            "config %r (%s) cannot run as parallel instances; "
            "only plain single-engine configs can" % (config_name, spec.kind)
        )

    if stats is None:
        stats = CampaignStats(label="%s/%s#%d" % (subject_name, config_name, run_seed))
    if sync_interval_ticks is None:
        sync_interval_ticks = max(1, budget_ticks // 8)
    if worker_timeout is None:
        worker_timeout = DEFAULT_WORKER_TIMEOUT
    if restart_policy is None:
        restart_policy = RestartPolicy() if supervise else RestartPolicy(max_restarts=0)
    subject = get_subject(subject_name)  # also validates the name pre-fork
    ctx = mp_context()
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)

    def _checkpoint_path(index):
        if not checkpoint_dir:
            return None
        return os.path.join(checkpoint_dir, "worker%d.ckpt" % index)

    # The in-flight round's run target and number (for replay).
    current = {"target": None, "round": 0}

    def spawn(worker):
        """(Re)start one worker; a replacement climbs the resume ladder."""
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_instance_worker,
            args=(
                child_conn,
                subject_name,
                config_name,
                run_seed,
                worker.index,
                budget_ticks,
                worker.checkpoint_path,
                worker.incarnation,
                output_dir,
                resume_store,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        worker.attach(proc, parent_conn)
        ready = recv_with_deadline(parent_conn, worker_timeout, worker.index, "ready")
        worker.resumed_round = ready[1]
        if ready[2]:
            logger.warning(
                "worker %d refused checkpoint %s (%s)",
                worker.index,
                worker.checkpoint_path,
                ready[2],
            )

    def _step(worker, command, expected):
        """One unsupervised round trip (used inside replay)."""
        try:
            worker.conn.send(command)
        except (OSError, ValueError) as exc:
            raise WorkerDeadError(worker.index, "pipe closed on send (%s)" % (exc,))
        return recv_with_deadline(worker.conn, worker_timeout, worker.index, expected)

    def replay(worker):
        """Bring a respawned worker back to the current protocol position.

        Replays the completed rounds its restored state does not yet embody
        (run target + the exact import list the parent broadcast, or a
        directory re-scan for store-synced rounds), then the current
        round's processed prefix.  Replies are discarded — the parent
        already merged the originals; pipe-mode replay is deterministic,
        and directory-mode re-scans are idempotent by content hash.
        """
        for round_no, (target, imports) in enumerate(
            worker.history[worker.resumed_round :], start=worker.resumed_round + 1
        ):
            _step(worker, ("run", target), "synced")
            if imports == _DIR_SYNC:
                _step(worker, ("sync_dir", round_no), "imported")
            elif imports:
                _step(worker, ("import", list(imports)), "imported")
        if current["target"] is not None and worker.stage >= 1:
            _step(worker, ("run", current["target"]), "synced")
            if worker.stage >= 2:
                if worker.pending_imports == _DIR_SYNC:
                    _step(worker, ("sync_dir", current["round"]), "imported")
                elif worker.pending_imports:
                    _step(worker, ("import", list(worker.pending_imports)), "imported")

    sup = Supervisor(
        [
            SupervisedWorker(i, checkpoint_path=_checkpoint_path(i))
            for i in range(workers)
        ],
        spawn,
        replay,
        policy=restart_policy,
        timeout=worker_timeout,
        stats=stats,
    )
    from repro.telemetry.bus import CampaignEvent, SpanEvent

    stats.bus.publish(
        CampaignEvent(
            "begin",
            subject_name,
            config_name,
            run_seed,
            workers=workers,
            budget=budget_ticks,
        )
    )
    worker_results = []
    try:
        sup.spawn_all()
        # Shared-corpus state: content hashes ever seen (pre-seeded with the
        # subject's own seeds, which every instance already holds) and the
        # merged virgin map under the campaign feedback.
        seen = {input_hash(seed) for seed in subject.seeds}
        virgin = VirginMap()
        corpus_size = 0
        targets = list(range(sync_interval_ticks, budget_ticks, sync_interval_ticks))
        targets.append(budget_ticks)
        for round_no, target in enumerate(targets, start=1):
            round_start = time.monotonic()
            current["target"] = target
            current["round"] = round_no
            for worker in sup.alive():
                worker.stage = 0
                worker.pending_imports = ()
            offered = 0
            accepted_before = corpus_size
            broadcasts = {worker.index: [] for worker in sup.alive()}
            # Run to the barrier and (pipe mode) collect/merge in
            # worker-index order: deterministic.
            for worker in sup.alive():
                try:
                    reply = sup.request(worker, ("run", target), "synced")
                except WorkerLostError:
                    if not supervise:
                        raise
                    continue
                worker.stage = 1
                _, fresh, worker_stats = reply
                stats.record_worker(
                    worker.index,
                    worker_stats["ticks"],
                    worker_stats["execs"],
                    worker_stats["queue"],
                    worker_stats["crashes"],
                    worker_stats["hangs"],
                    coverage=worker_stats.get("coverage", 0),
                )
                offered += len(fresh)
                for data, classified in fresh:
                    digest = input_hash(data)
                    if digest in seen:
                        continue
                    seen.add(digest)
                    new_indices, new_buckets = virgin.probe(classified)
                    if not (new_indices or new_buckets):
                        continue
                    virgin.merge(classified)
                    corpus_size += 1
                    for other in sup.alive():
                        if other.index != worker.index and other.index in broadcasts:
                            broadcasts[other.index].append(data)
            imported = [0] * workers
            if output_dir:
                # Directory sync: every worker scans the sibling slices it
                # has not seen yet (AFL's foreign-queue pass).  The barrier
                # above guarantees all round-``round_no`` artifacts are
                # already renamed into place.
                for worker in sup.alive():
                    worker.pending_imports = _DIR_SYNC
                    try:
                        reply = sup.request(worker, ("sync_dir", round_no), "imported")
                    except WorkerLostError:
                        if not supervise:
                            raise
                        continue
                    imported[worker.index] = reply[1]
                    offered += reply[2]
                    corpus_size += reply[1]
                    worker.stage = 2
            else:
                for worker in sup.alive():
                    blob = broadcasts.get(worker.index, ())
                    worker.pending_imports = tuple(blob)
                    if blob:
                        try:
                            reply = sup.request(
                                worker, ("import", list(blob)), "imported"
                            )
                        except WorkerLostError:
                            if not supervise:
                                raise
                            continue
                        imported[worker.index] = reply[1]
                    worker.stage = 2
            if checkpoint_dir:
                for worker in sup.alive():
                    try:
                        sup.request(worker, ("checkpoint", round_no), "checkpointed")
                    except WorkerLostError:
                        if not supervise:
                            raise
                        continue
            for worker in sup.alive():
                worker.history.append((target, worker.pending_imports))
                worker.stage = 0
                worker.pending_imports = ()
            current["target"] = None
            stats.record_sync(target, offered, corpus_size - accepted_before, imported)
            # One coarse span per sync barrier: how long the whole round
            # (run + merge + broadcast + checkpoint) took in wall time.
            stats.bus.publish(
                SpanEvent(
                    "sync_round",
                    time.monotonic() - round_start,
                    tick=target,
                    attrs={"round": round_no},
                )
            )
        for worker in sup.alive():
            try:
                reply = sup.request(worker, ("finish",), "result")
            except WorkerLostError:
                if not supervise:
                    raise
                continue
            worker_results.append(reply[1])
    finally:
        sup.terminate_all()
    if not worker_results:
        raise RuntimeError(
            "campaign %s/%s#%d lost all %d workers; no results to merge"
            % (subject_name, config_name, run_seed, workers)
        )
    stats.bus.publish(
        CampaignEvent(
            "end",
            subject_name,
            config_name,
            run_seed,
            workers=workers,
            budget=budget_ticks,
        )
    )
    stats.bus.flush()
    dropped = [worker for worker in sup.workers if not worker.alive]
    if output_dir:
        # Durable mode: the workspace is the source of truth.  The campaign
        # corpus is the union of distinct content hashes across all worker
        # queue slices (seeds included — the dry run streams them to disk).
        from repro.fuzzer.store import campaign_queue_hashes

        queue_size = len(campaign_queue_hashes(output_dir))
    else:
        queue_size = len(subject.seeds) + corpus_size
    merged = merge_instance_results(
        subject_name,
        config_name,
        run_seed,
        worker_results,
        queue_size=queue_size,
        degraded=bool(dropped),
        degraded_reasons=stats.degraded_reasons(),
        worker_restarts=tuple(worker.restarts for worker in sup.workers),
    )
    return merged, worker_results, stats
