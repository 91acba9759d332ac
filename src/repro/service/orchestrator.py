"""The asyncio campaign service: schedule, supervise, survive.

:class:`CampaignService` runs many concurrent campaigns (jobs) across a
bounded pool of worker processes.  Robustness is the design center:

- **Durability.**  Every state transition is journaled before it takes
  effect in memory (:mod:`.journal` + the shared fold in :mod:`.jobs`),
  so the in-memory job table can always be reconstructed by a restart.
- **Recovery.**  On open, the service scans the journal (quarantining
  torn records), folds the job table, *reaps orphaned worker processes*
  left behind by a hard kill, requeues every in-flight job (no retry
  charge — the job did nothing wrong), rebuilds the per-tenant retry
  counters and the crash-dedupe index from disk, and stamps a new epoch
  record.  Jobs then resume from their checkpoint or store slice.
- **Deadlines.**  Workers are launched, polled and stopped through
  :mod:`repro.fuzzer.supervisor`'s one launcher, receive and teardown,
  which decode a worker's own error report into the typed errors.  The
  service adds its deadlines on top: a missing heartbeat raises the typed
  :class:`~repro.service.jobs.HeartbeatTimeoutError`, a blown per-attempt
  wall budget :class:`~repro.service.jobs.WallBudgetError`.
- **Budgets.**  Failures that the supervisor's one retry rule calls
  retryable (a missed deadline, a dead worker) retry with
  :class:`~repro.fuzzer.supervisor.RestartPolicy` backoff, bounded by
  per-job *and* per-tenant retry budgets; exhaustion degrades the job to
  the terminal ``DEGRADED`` state with a machine-readable
  :class:`~repro.service.jobs.DegradeReason` — never lost, never retried
  forever.  Deterministic failures (task errors, checkpoint corruption
  under ``require_checkpoint``) degrade immediately.
- **Load shedding.**  An overload circuit breaker watches the pending
  backlog with hysteresis and pauses low-priority admissions (typed
  :class:`~repro.service.jobs.OverloadError`) instead of falling over.
"""

import asyncio
import json
import os
import signal
import time

from repro.experiments.config import FUZZER_CONFIGS
from repro.fuzzer.checkpoint import CheckpointError
from repro.fuzzer.store import (
    CRASH_DIR,
    StoreLockError,
    acquire_pidfile_lock,
    list_sealed,
    lock_host,
    quarantine,
    read_lock_record,
    release_pidfile_lock,
    walk_artifacts,
    _pid_alive,
)
from repro.fuzzer.supervisor import (
    EXIT_GRACE,
    RestartPolicy,
    WorkerError,
    WorkerStallError,
    describe,
    failure_category,
    launch,
    retryable,
)
from repro.service import intake
from repro.service.dedupe import CrashDedupe
from repro.service.jobs import (
    PENDING,
    RUNNING,
    AdmissionError,
    HeartbeatTimeoutError,
    JobSpec,
    OverloadError,
    TenantPolicy,
    WallBudgetError,
    apply_event,
)
from repro.service.journal import JobJournal
from repro.service.lease import LeaseLostError, ServiceLease, read_fence
from repro.service.worker import STORE_DIR, job_worker_main
from repro.subjects import all_subject_names
from repro.telemetry.bus import ServiceEvent, WorkerDroppedEvent, get_bus

JOBS_DIR = "jobs"


def load_service_state(root):
    """Read-only recovery view: ``(state, quarantined, pending_requests)``.

    Reads snapshot + tail exactly the way a restarting service would, but
    never quarantines, appends, or deletes — safe against a live root.
    ``pending_requests`` are verified intake request files not yet settled
    by a journaled record.
    """
    journal = JobJournal(root, fsync=False)
    state, quarantined = journal.recover(quarantine=False)
    requests, damaged = intake.scan_requests(root)
    quarantined = list(quarantined) + list(damaged)
    pending = [
        request
        for request in requests
        if request["nonce"] not in state.handled
    ]
    return state, quarantined, pending


def load_job_table(root):
    """Read-only journal fold: ``(jobs, epochs, conflicts, quarantined)``.

    Used by ``repro job`` for inspection — never quarantines or appends,
    so it is safe to run against a live service's directory.
    """
    state, quarantined, _ = load_service_state(root)
    return state.jobs, state.epochs, state.conflicts, quarantined


def list_job_crashes(jobs_root, job_id):
    """Every crash artifact of one job, with its triage sidecar.

    Pure disk scan — shared by the live service's ``fetch_crashes`` and
    the read-only ``repro job crashes`` CLI.
    """
    crashes = []
    store_root = os.path.join(jobs_root, job_id, STORE_DIR)
    for path, _seq, sig, _digest in walk_artifacts(store_root, CRASH_DIR):
        if sig is None:
            continue
        triage = None
        try:
            with open(path + ".triage.json", encoding="utf-8") as handle:
                triage = json.load(handle)
        except (OSError, ValueError):
            pass
        crashes.append({"sig": sig, "path": path, "triage": triage})
    return crashes


def check_admissible(subject, config):
    """Raise :class:`AdmissionError` unless a worker can run ``subject``
    under ``config``, which must name one plain (single-engine) config.

    The one admission check: :meth:`CampaignService.submit` runs it, and
    so the daemon's re-check of an intake request, and
    :func:`submit_offline` runs it before journaling or handing off.
    """
    if subject not in all_subject_names():
        raise AdmissionError("unknown subject %r" % (subject,))
    spec = FUZZER_CONFIGS.get(config)
    if spec is None or spec.kind != "plain":
        raise AdmissionError("no single-engine config %r" % (config,))


def submit_offline(root, **spec_kwargs):
    """Journal a submission (``repro job submit``), live root or stopped.

    A stopped root is submitted to directly: take the root lock, journal
    the ``submit`` record, release.  A *live* root (the lock is held by a
    running service) gets a request file instead (see
    :mod:`repro.service.intake`): the daemon's tail watcher re-checks
    admission and settles it.  Returns the job id on the direct path and
    the ``req-…`` nonce on the live path — callers can tell them apart by
    the prefix, and ``repro job status <nonce>`` resolves a settled nonce
    to its job.  Raises :class:`AdmissionError` for a subject or config
    no worker can run (see :func:`check_admissible`).
    """
    check_admissible(spec_kwargs.get("subject"), spec_kwargs.get("config", "path"))
    root = os.path.abspath(root)
    os.makedirs(root, exist_ok=True)
    try:
        acquire_pidfile_lock(root)
    except StoreLockError:
        # A live service owns the root: hand the submission to its intake.
        return intake.submit_request(root, spec_kwargs)
    try:
        # Stamp the root's fence high-water mark: an offline submit after a
        # leased service life must not look like a fenced late write.
        journal = JobJournal(root, fence=read_fence(root))
        state, _ = journal.recover(quarantine=False)
        index = max(
            (record.spec.index for record in state.jobs.values()), default=-1
        ) + 1
        spec = JobSpec(job_id="j%06d" % index, index=index, **spec_kwargs)
        journal.append(spec.job_id, "submit", spec.to_dict())
        return spec.job_id
    finally:
        release_pidfile_lock(root)


def cancel_offline(root, job_id):
    """Cancel a job (``repro job cancel``), live root or stopped.

    Mirrors :func:`submit_offline`: a stopped root is journaled directly
    (returns True if the cancel took, False if the job was already
    terminal), a live root gets a ``cancel-request`` file (returns the
    ``req-…`` nonce).  Raises KeyError for an unknown job on the direct
    path — against a live root the daemon refuses instead.
    """
    root = os.path.abspath(root)
    try:
        acquire_pidfile_lock(root)
    except StoreLockError:
        return intake.cancel_request(root, job_id)
    try:
        journal = JobJournal(root, fence=read_fence(root))
        state, _ = journal.recover(quarantine=False)
        record = state.jobs.get(job_id)
        if record is None:
            raise KeyError("unknown job %r" % (job_id,))
        if record.terminal():
            return False
        journal.append(job_id, "cancel", {})
        return True
    finally:
        release_pidfile_lock(root)


def compact_offline(root):
    """Compact a *stopped* root's journal (``repro job compact``).

    Takes the root lock (raises :class:`StoreLockError` if a service is
    live — a running daemon compacts on its own cadence), folds history
    into a snapshot, and prunes records the previous snapshot covers.
    Returns the snapshot path (None for an empty journal).
    """
    root = os.path.abspath(root)
    acquire_pidfile_lock(root)
    try:
        journal = JobJournal(root, fence=read_fence(root))
        return journal.compact()
    finally:
        release_pidfile_lock(root)


class CampaignService:
    """Crash-safe orchestrator over a pool of job worker processes."""

    def __init__(
        self,
        root,
        max_workers=2,
        policies=(),
        restart_policy=None,
        heartbeat_timeout=30.0,
        wall_budget=600.0,
        shed_high=None,
        shed_low=None,
        service_index=0,
        bus=None,
        fsync=True,
        lease_ttl=None,
        standby_wait=None,
        compact_after=0,
        poll_interval=0.25,
    ):
        self.root = os.path.abspath(root)
        self.jobs_dir = os.path.join(self.root, JOBS_DIR)
        os.makedirs(self.jobs_dir, exist_ok=True)
        # Lease-based, fenced ownership of the root.  ttl=None keeps the
        # classic single-host semantics (pid-liveness staleness) while
        # still advancing the fencing epoch each life; a ttl makes the
        # root stealable by a standby once this holder stops renewing.
        self.lease = ServiceLease(
            self.root, ttl=lease_ttl, service_index=service_index, fsync=fsync
        )
        self.lease.acquire(wait=standby_wait)
        self._locked = True
        self.lease_ttl = lease_ttl
        self.compact_after = int(compact_after)
        self.poll_interval = float(poll_interval)
        self.max_workers = int(max_workers)
        self.policies = {policy.name: policy for policy in policies}
        self.default_policy = self.policies.get("default") or TenantPolicy("default")
        self.restart_policy = (
            restart_policy
            if restart_policy is not None
            else RestartPolicy(max_restarts=2, backoff_base=0.05, backoff_max=1.0)
        )
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.wall_budget = float(wall_budget)
        self.shed_high = shed_high if shed_high is not None else max(4 * self.max_workers, 8)
        self.shed_low = shed_low if shed_low is not None else 2 * self.max_workers
        self.bus = bus if bus is not None else get_bus()
        self.fsync = fsync
        self.journal = JobJournal(
            self.root,
            fsync=fsync,
            service_index=service_index,
            fence=self.lease.epoch,
            lease=self.lease,
        )
        self.jobs = {}
        self.epoch = 0
        self.fold_conflicts = 0
        self.quarantined = []
        self.handled_requests = {}  # settled intake nonces -> job id/None
        self.dedupe = CrashDedupe()
        self.breaker_open = False
        self.draining = False
        self._tenant_retries = {}
        self._claimed = set()  # job ids a runner coroutine currently owns
        self._procs = {}  # job id -> live worker Child
        self._seen_seqs = set()  # journal seqs this life wrote or folded
        self._records_since_compact = 0
        self._recover()

    # -- lifecycle -------------------------------------------------------------

    def close(self):
        """Kill live workers and release the root lease (idempotent).

        A fenced service has nothing to release — the lease already names
        its successor, and :meth:`ServiceLease.release` knows not to
        touch a lock that no longer names this owner.
        """
        for job_id in list(self._procs):
            self._kill_worker(job_id)
        if self._locked:
            self.lease.release()
            self._locked = False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def _recover(self):
        """The recovery ladder: scan, fold, reap, requeue, rebuild, stamp.

        The scan reads snapshot + tail (compaction-aware) and quarantines
        damage *and* fenced late writes — our FENCE bump in
        ``ServiceLease.acquire`` happened before this, so any record a
        displaced predecessor slips in from here on is detectably stale.
        """
        state, quarantined = self.journal.recover()
        self.quarantined = quarantined
        self.jobs = state.jobs
        self.epoch = state.epochs
        self.fold_conflicts = state.conflicts
        self.handled_requests = dict(state.handled)
        self._seen_seqs = self._disk_seqs()
        # This life's fault-injection incarnation is its epoch: faults with
        # the default incarnation 0 fire only in the first service life, so
        # a restarted orchestrator runs clean unless explicitly targeted.
        self.journal.epoch = self.epoch
        requeued = 0
        for record in self.jobs.values():
            if record.state == RUNNING:
                # The attempt died with the previous orchestrator.  Reap any
                # orphaned worker still holding the job's store lock, then
                # requeue with no retry charge.
                self._reap_orphan(record)
                self._journal(
                    record.spec.job_id,
                    "recover",
                    {"note": "requeued after service restart (epoch %d)" % self.epoch},
                )
                requeued += 1
        self._tenant_retries = {}
        for record in self.jobs.values():
            tenant = record.spec.tenant
            self._tenant_retries[tenant] = (
                self._tenant_retries.get(tenant, 0) + record.retries_used
            )
        self.dedupe.rebuild(self.jobs_dir)
        self._journal(
            None,
            "epoch",
            {"epoch": self.epoch, "pid": os.getpid(), "fence": self.lease.epoch,
             "host": lock_host()},
        )
        self.bus.publish(
            ServiceEvent(
                "recover",
                detail="epoch %d (fence %d): %d job(s), %d requeued, %d quarantined"
                % (self.epoch, self.lease.epoch, len(self.jobs), requeued,
                   len(quarantined)),
                data={
                    "epoch": self.epoch,
                    "fence": self.lease.epoch,
                    "jobs": len(self.jobs),
                    "requeued": requeued,
                    "quarantined": len(quarantined),
                    "conflicts": self.fold_conflicts,
                },
            )
        )
        # Requests a dead daemon left unsettled are admitted (or refused)
        # now, before the scheduler starts — nothing waits for the pump.
        self._pump_intake()

    def _disk_seqs(self):
        """Every record seq currently on disk (post-quarantine = all folded)."""
        return {seq for seq, *_ in list_sealed(self.journal.dir, "rec")}

    def _reap_orphan(self, record):
        """SIGKILL a worker process that outlived the previous service.

        ``orch-kill`` dies via ``os._exit``, which skips multiprocessing's
        atexit cleanup — daemon children survive as orphans, still holding
        their store LOCK and still writing.  Two writers on one slice is
        exactly what the store lock forbids, so the orphan dies first.

        Pids are only meaningful on this host: a foreign host's orphan
        cannot be signalled from here, so its slice lock is left to the
        lease-expiry steal when the respawned worker's store acquires it.
        """
        candidates = set()
        if record.pid and record.pid_host in (None, lock_host()):
            candidates.add(int(record.pid))
        lock = read_lock_record(
            os.path.join(self._job_dir(record.spec.job_id), STORE_DIR, "main", "LOCK")
        )
        if lock is not None and (lock.legacy or lock.host == lock_host()):
            candidates.add(lock.pid)
        for pid in candidates:
            if pid == os.getpid() or not _pid_alive(pid):
                continue
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                continue
            deadline = time.monotonic() + 5.0
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)

    # -- journaled transitions -------------------------------------------------

    def _journal(self, job_id, event, payload):
        """Durably journal ``event`` first, then apply it to the table."""
        seq = self.journal.append(job_id, event, payload)
        self._seen_seqs.add(seq)
        self._records_since_compact += 1
        conflict = apply_event(self.jobs, job_id, event, payload)
        self.fold_conflicts += conflict
        return conflict

    # -- job-queue API ---------------------------------------------------------

    def submit(
        self,
        subject,
        config="path",
        run_seed=0,
        tenant="default",
        priority=0,
        budget_ticks=60_000,
        max_retries=None,
        heartbeat_timeout=None,
        wall_budget=None,
        require_checkpoint=False,
        request=None,
    ):
        """Admit one campaign; returns its job id.

        Raises :class:`AdmissionError` for a subject or config no worker
        can run (:func:`check_admissible`) or when the tenant's pending
        quota is full, and :class:`OverloadError` for low-priority
        submissions while the overload breaker is open.  ``request`` names the intake nonce
        this submission settles (live ``repro job submit`` against the
        daemon) — it rides in the journal payload so the fold can prove
        the request was converted exactly once.
        """
        check_admissible(subject, config)
        policy = self._policy(tenant)
        pending = [
            record
            for record in self.jobs.values()
            if record.spec.tenant == tenant and record.state == PENDING
        ]
        if len(pending) >= policy.max_pending:
            raise AdmissionError(
                "tenant %r has %d pending job(s) (quota %d)"
                % (tenant, len(pending), policy.max_pending)
            )
        if self.breaker_open and priority <= 0:
            raise OverloadError(
                "overload breaker open (backlog %d >= %d); "
                "low-priority admissions paused" % (self._backlog(), self.shed_high)
            )
        index = max(
            (record.spec.index for record in self.jobs.values()), default=-1
        ) + 1
        spec = JobSpec(
            job_id="j%06d" % index,
            subject=subject,
            config=config,
            run_seed=run_seed,
            tenant=tenant,
            priority=priority,
            budget_ticks=budget_ticks,
            max_retries=(
                self.restart_policy.max_restarts
                if max_retries is None
                else max_retries
            ),
            heartbeat_timeout=(
                self.heartbeat_timeout
                if heartbeat_timeout is None
                else heartbeat_timeout
            ),
            wall_budget=self.wall_budget if wall_budget is None else wall_budget,
            require_checkpoint=require_checkpoint,
            index=index,
        )
        payload = spec.to_dict()
        if request:
            payload["request"] = request
            self.handled_requests[request] = spec.job_id
        self._journal(spec.job_id, "submit", payload)
        self.bus.publish(
            ServiceEvent(
                "submit",
                job=spec.job_id,
                tenant=tenant,
                detail="%s/%s#%d prio=%d" % (subject, config, run_seed, priority),
            )
        )
        self._update_breaker()
        return spec.job_id

    def status(self, job_id):
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError("unknown job %r" % (job_id,))
        return record.snapshot()

    def cancel(self, job_id, request=None):
        """Cancel a job; returns False if it already reached a terminal state."""
        record = self.jobs.get(job_id)
        if record is None:
            raise KeyError("unknown job %r" % (job_id,))
        if record.terminal():
            return False
        payload = {}
        if request:
            payload["request"] = request
            self.handled_requests[request] = job_id
        self._journal(job_id, "cancel", payload)
        self._kill_worker(job_id)
        self.bus.publish(
            ServiceEvent("cancel", job=job_id, tenant=record.spec.tenant)
        )
        return True

    def fetch_crashes(self, job_id):
        """Every crash artifact of one job, with its triage sidecar."""
        if job_id not in self.jobs:
            raise KeyError("unknown job %r" % (job_id,))
        return list_job_crashes(self.jobs_dir, job_id)

    def crash_signatures(self):
        """Cross-campaign deduped crash signatures -> sighting counts."""
        return self.dedupe.counts()

    # -- scheduling ------------------------------------------------------------

    async def run_until_idle(self):
        """Drive every admitted job to a terminal state, then return."""
        return await self._run_loop(daemon=False)

    async def serve_forever(self):
        """Daemon mode: keep serving after the backlog drains.

        The loop idles at ``poll_interval``, picking up intake requests
        (live submissions, cancels) as they arrive, until a
        ``drain-request`` is acknowledged and the backlog empties.
        Returns the final summary, like :meth:`run_until_idle`.
        """
        return await self._run_loop(daemon=True)

    async def _run_loop(self, daemon):
        """The scheduler heart: lease, intake, dispatch, reap, compact.

        Raises :class:`~repro.service.lease.LeaseLostError` the moment
        this service discovers it was fenced — every worker is killed
        first, so no write of ours lands after the successor's view
        stabilizes.
        """
        tasks = {}
        loop = asyncio.get_event_loop()
        next_pump = loop.time()
        try:
            while True:
                self._renew_lease()
                if loop.time() >= next_pump:
                    self._pump_intake()
                    next_pump = loop.time() + self.poll_interval
                self._update_breaker()
                if (
                    self.compact_after
                    and self._records_since_compact >= self.compact_after
                ):
                    self.compact()
                for record in self._dispatchable():
                    job_id = record.spec.job_id
                    self._claimed.add(job_id)
                    tasks[job_id] = asyncio.ensure_future(self._run_job(record))
                for job_id, task in list(tasks.items()):
                    if task.done():
                        del tasks[job_id]
                        await task  # surface scheduler bugs, not swallow them
                if not tasks and not any(
                    record.state in (PENDING, RUNNING)
                    for record in self.jobs.values()
                ):
                    if not daemon or self.draining:
                        return self.summary()
                await asyncio.sleep(
                    self.poll_interval if daemon and not tasks else 0.005
                )
        except LeaseLostError:
            self._fenced()
            raise
        finally:
            for task in tasks.values():
                task.cancel()

    # -- lease + fencing -------------------------------------------------------

    def _renew_lease(self):
        """Keep the lease alive; discover fencing early (self-throttled)."""
        self.lease.renew()

    def _fenced(self):
        """This service lost the root: stop writing *now*.

        Workers die first (their store writes are fence-refused anyway,
        but killing them closes the window), the lock is not touched (it
        names the successor), and the bus records why this service exits.
        """
        for job_id in list(self._procs):
            self._kill_worker(job_id)
        self._locked = False
        owner = self.lease.owner()
        self.bus.publish(
            ServiceEvent(
                "fenced",
                detail="lease lost (epoch %d); root now names %s"
                % (self.lease.epoch, owner if owner is not None else "nobody"),
                data={"fence": self.lease.epoch},
            )
        )

    # -- intake ----------------------------------------------------------------

    def _pump_intake(self):
        """The journal-tail watcher: settle requests, spot foreign writes.

        Request files are admission-re-checked and settled exactly once
        (see :mod:`repro.service.intake`).  A journal record this life
        neither wrote nor folded is a foreign write: a *higher* fence
        means we were displaced (raise, stop serving), a lower one is a
        predecessor's late write — quarantined, never applied.
        """
        requests, damaged = intake.scan_requests(self.root)
        for name, reason in damaged:
            quarantine(
                os.path.join(self.journal.dir, name),
                self.journal.quarantine_dir,
                reason,
            )
        for request in requests:
            self._handle_request(request)
        for seq, _sig, _digest, name in list_sealed(self.journal.dir, "rec"):
            if seq not in self._seen_seqs:
                self._judge_foreign_record(seq, name)

    def _judge_foreign_record(self, seq, name):
        path = os.path.join(self.journal.dir, name)
        record, reason = self.journal.read_record(name)
        if record is None:
            # Unverified bytes carry no authority, least of all a fence:
            # the file is quarantined as the recovery scan would.
            self._seen_seqs.add(seq)
            quarantine(path, self.journal.quarantine_dir, reason)
            return
        if record.fence > self.lease.epoch:
            # A successor is already journaling: we are the late writer.
            self.lease.held = False
            raise LeaseLostError(self.root, self.lease.owner())
        self._seen_seqs.add(seq)
        quarantine(
            path,
            self.journal.quarantine_dir,
            "fenced late write (fence %d, current %d)"
            % (record.fence, self.lease.epoch),
        )
        self.bus.publish(
            ServiceEvent(
                "fenced",
                detail="quarantined late record %s (fence %d)"
                % (name, record.fence),
                data={"fence": record.fence, "record": name},
            )
        )

    def _handle_request(self, request):
        """Admission-re-check one intake request and settle it durably."""
        nonce = request["nonce"]
        path = request["path"]
        if nonce in self.handled_requests:
            intake.discard_request(path)  # settled before a crash; replay
            return
        kind = request["kind"]
        payload = request["payload"]
        refusal = None
        detail = ""
        if kind == "submit-request":
            try:
                job_id = self.submit(request=nonce, **(payload.get("spec") or {}))
                detail = "admitted %s" % job_id
            except (AdmissionError, TypeError, ValueError) as exc:
                refusal = "%s: %s" % (type(exc).__name__, exc)
        elif kind == "cancel-request":
            job_id = payload.get("job")
            try:
                if self.cancel(job_id, request=nonce):
                    detail = "cancelled %s" % job_id
                else:
                    refusal = "job %s already terminal" % job_id
            except KeyError:
                refusal = "unknown job %r" % (job_id,)
        elif kind == "drain-request":
            self.draining = True
            self.handled_requests[nonce] = None
            self._journal(None, "ack", {"request": nonce, "reason": "draining"})
            detail = "draining"
        else:
            refusal = "unknown request kind %r" % (kind,)
        if refusal is not None:
            self.handled_requests[nonce] = None
            self._journal(None, "refuse", {"request": nonce, "reason": refusal})
            self.bus.publish(
                ServiceEvent(
                    "refuse",
                    detail="%s %s: %s" % (kind, nonce, refusal),
                    data={"request": nonce, "kind": kind},
                )
            )
        else:
            self.bus.publish(
                ServiceEvent(
                    "intake",
                    detail="%s %s: %s" % (kind, nonce, detail or "ok"),
                    data={"request": nonce, "kind": kind},
                )
            )
        intake.discard_request(path)

    # -- compaction ------------------------------------------------------------

    def compact(self):
        """Fold settled history into a snapshot record (crash-safe).

        Delegates to :meth:`JobJournal.compact`; the journal keeps the two
        newest snapshots and deletes only records the *previous* snapshot
        already covers, so a kill at any instant leaves a recoverable
        root.  Returns the snapshot path (None for an empty journal).
        """
        path = self.journal.compact()
        self._records_since_compact = 0
        self._seen_seqs = self._disk_seqs()
        if path is not None:
            self.bus.publish(
                ServiceEvent(
                    "compact",
                    detail=os.path.basename(path),
                    data={"snapshot": os.path.basename(path)},
                )
            )
        return path

    def summary(self):
        states = {}
        for record in self.jobs.values():
            states[record.state] = states.get(record.state, 0) + 1
        data = {"jobs": len(self.jobs), "states": states}
        data.update({"dedupe": self.dedupe.summary()})
        return data

    def _dispatchable(self):
        """Pending jobs eligible to start now, highest priority first."""
        slots = self.max_workers - len(self._claimed)
        if slots <= 0:
            return []
        running_by_tenant = {}
        for job_id in self._claimed:
            tenant = self.jobs[job_id].spec.tenant
            running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
        eligible = sorted(
            (
                record
                for record in self.jobs.values()
                if record.state == PENDING
                and record.spec.job_id not in self._claimed
            ),
            key=lambda record: (-record.spec.priority, record.spec.index),
        )
        picked = []
        for record in eligible:
            if slots <= 0:
                break
            tenant = record.spec.tenant
            if running_by_tenant.get(tenant, 0) >= self._policy(tenant).max_running:
                continue
            running_by_tenant[tenant] = running_by_tenant.get(tenant, 0) + 1
            slots -= 1
            picked.append(record)
        return picked

    async def _run_job(self, record):
        """One job's attempt loop: spawn, drive, retry-or-degrade."""
        spec = record.spec
        try:
            while True:
                incarnation = record.attempts
                child = self._spawn(spec, incarnation)
                pid = child.proc.pid
                self._journal(
                    spec.job_id,
                    "start",
                    {"attempt": incarnation, "pid": pid, "host": lock_host()},
                )
                self.bus.publish(
                    ServiceEvent(
                        "start",
                        job=spec.job_id,
                        tenant=spec.tenant,
                        detail="attempt %d pid %d" % (incarnation, pid),
                    )
                )
                try:
                    summary = await self._drive(record, child)
                except (WorkerError, CheckpointError) as exc:
                    self._kill_worker(spec.job_id)
                    if record.terminal():
                        return  # cancelled under our feet; already journaled
                    if not await self._charge_retry(record, exc):
                        return
                    continue
                self._kill_worker(spec.job_id, EXIT_GRACE)
                self._journal(spec.job_id, "done", {"summary": summary})
                self.dedupe.rescan_job(self.jobs_dir, spec.job_id)
                self.bus.publish(
                    ServiceEvent(
                        "done",
                        job=spec.job_id,
                        tenant=spec.tenant,
                        detail="%d execs, %d crash sig(s)"
                        % (summary.get("execs", 0), len(summary.get("crash_sigs", ()))),
                        data={"execs": summary.get("execs", 0)},
                    )
                )
                return
        finally:
            self._claimed.discard(spec.job_id)

    async def _charge_retry(self, record, exc):
        """Charge a failed attempt; True to retry, False once degraded."""
        spec = record.spec
        category = failure_category(exc)
        detail = describe(exc)
        if not retryable(exc):
            self._degrade(record, category, detail)
            return False
        tenant_used = self._tenant_retries.get(spec.tenant, 0)
        tenant_budget = self._policy(spec.tenant).retry_budget
        if record.retries_used >= spec.max_retries:
            self._degrade(
                record,
                "retry-budget",
                "retry budget (%d) exhausted; last failure %s — %s"
                % (spec.max_retries, category, detail),
            )
            return False
        if tenant_used >= tenant_budget:
            self._degrade(
                record,
                "retry-budget",
                "tenant %r retry budget (%d) exhausted; last failure %s — %s"
                % (spec.tenant, tenant_budget, category, detail),
            )
            return False
        retries = record.retries_used + 1
        self._tenant_retries[spec.tenant] = tenant_used + 1
        self._journal(
            spec.job_id,
            "retry",
            {"retries_used": retries, "reason": detail, "category": category},
        )
        delay = self.restart_policy.delay(retries)
        self.bus.publish(
            ServiceEvent(
                "retry",
                job=spec.job_id,
                tenant=spec.tenant,
                detail="#%d after %.2gs: %s" % (retries, delay, detail),
                data={"retries_used": retries, "category": category},
            )
        )
        if delay > 0:
            await asyncio.sleep(delay)
        return True

    def _degrade(self, record, category, detail):
        spec = record.spec
        self._journal(
            spec.job_id, "degrade", {"category": category, "detail": detail}
        )
        self.bus.publish(
            ServiceEvent(
                "degrade",
                job=spec.job_id,
                tenant=spec.tenant,
                detail="%s: %s" % (category, detail),
                data={"category": category},
            )
        )
        # Mirror the richer campaign-level degraded event: same cause/detail
        # fields, so one dashboard consumes both.
        self.bus.publish(
            WorkerDroppedEvent(
                spec.job_id, spec.index, detail, cause=category, detail=category
            )
        )

    async def _drive(self, record, child):
        """Await heartbeats until the final result, deadline-guarded."""
        spec = record.spec
        wall_end = asyncio.get_event_loop().time() + spec.wall_budget
        while True:
            tag, payload = await self._recv(child, spec, wall_end)
            if tag == "done":
                return payload
            record.progress = payload

    async def _recv(self, child, spec, wall_end):
        """One decoded reply, polled cooperatively under the job's deadlines.

        The event loop keeps scheduling other jobs between polls.  Heartbeat
        silence raises :class:`HeartbeatTimeoutError`, the attempt's wall
        budget :class:`WallBudgetError`; the receive itself raises the
        typed error of a dead worker or of the worker's own report.
        """
        loop = asyncio.get_event_loop()
        heartbeat_end = loop.time() + spec.heartbeat_timeout
        while True:
            try:
                return child.recv(0, ("heartbeat", "done"), during="job")
            except WorkerStallError:
                pass  # nothing to read yet
            now = loop.time()
            if now >= wall_end:
                raise WallBudgetError(
                    spec.index,
                    "exceeded its %.1fs wall budget" % spec.wall_budget,
                )
            if now >= heartbeat_end:
                raise HeartbeatTimeoutError(
                    spec.index,
                    "sent no heartbeat within %.1fs" % spec.heartbeat_timeout,
                )
            await asyncio.sleep(0.01)

    # -- workers ---------------------------------------------------------------

    def _job_dir(self, job_id):
        return os.path.join(self.jobs_dir, job_id)

    def _spawn(self, spec, incarnation):
        job_dir = self._job_dir(spec.job_id)
        os.makedirs(job_dir, exist_ok=True)
        child = launch(
            job_worker_main,
            (spec.to_dict(), job_dir, incarnation, self.lease_ttl),
            spec.index,
        )
        self._procs[spec.job_id] = child
        return child

    def _kill_worker(self, job_id, grace=0.0):
        child = self._procs.pop(job_id, None)
        if child is not None:
            child.stop(grace)

    # -- load shedding ---------------------------------------------------------

    def _policy(self, tenant):
        return self.policies.get(tenant, self.default_policy)

    def _backlog(self):
        return sum(1 for record in self.jobs.values() if record.state == PENDING)

    def _update_breaker(self):
        """Backlog hysteresis: open at ``shed_high``, close at ``shed_low``."""
        backlog = self._backlog()
        if not self.breaker_open and backlog >= self.shed_high:
            self.breaker_open = True
            self.bus.publish(
                ServiceEvent(
                    "breaker",
                    detail="open: backlog %d >= %d" % (backlog, self.shed_high),
                    data={"state": "open", "backlog": backlog},
                )
            )
        elif self.breaker_open and backlog <= self.shed_low:
            self.breaker_open = False
            self.bus.publish(
                ServiceEvent(
                    "breaker",
                    detail="closed: backlog %d <= %d" % (backlog, self.shed_low),
                    data={"state": "closed", "backlog": backlog},
                )
            )
