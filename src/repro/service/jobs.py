"""Job model for the campaign service: specs, states, policies, the fold.

A job is one fuzzing campaign owned by a tenant.  Its entire lifecycle is
a sequence of journal records (see :mod:`repro.service.journal`); the
in-memory job table is always *derived* by folding those records, so a
restarted orchestrator reconstructs exactly the state a crashed one had
durably committed.  The fold is deliberately tolerant: an event that does
not type-check against the current state (e.g. a duplicate terminal
transition replayed after a partial crash) is counted as a conflict and
ignored, never fatal — the kill-and-restart acceptance test asserts the
conflict count stays zero.

States::

    pending --> running --> succeeded
       |    <-- (retry/    |
       |         recover)  +--> degraded      (terminal, never lost)
       +--> cancelled      +--> cancelled     (terminal)

``DEGRADED`` is terminal and *explained*: a :class:`DegradeReason` carries
the machine-readable category (``retry-budget``, ``deadline``,
``checkpoint-corrupt``, ``worker-death``, ``task-error``) plus the
human-readable detail, mirroring the richer ``degraded`` telemetry event.
"""

from repro.fuzzer.supervisor import WorkerStallError

PENDING = "pending"
RUNNING = "running"
SUCCEEDED = "succeeded"
DEGRADED = "degraded"
CANCELLED = "cancelled"

TERMINAL_STATES = frozenset((SUCCEEDED, DEGRADED, CANCELLED))

#: Events a journal may carry, in the order a healthy job emits them.
JOB_EVENTS = ("submit", "start", "recover", "retry", "done", "degrade", "cancel")

#: Events that are service metadata, not job transitions: the fold tracks
#: them (epoch count, handled intake nonces) but they never touch a
#: JobRecord.  ``refuse`` / ``ack`` settle an intake request (see
#: :mod:`repro.service.intake`) without creating a job; a ``submit`` or
#: ``cancel`` carrying ``payload["request"]`` settles one *by* creating
#: (or transitioning) a job.  ``compact`` marks a journal compaction.
SERVICE_EVENTS = ("epoch", "refuse", "ack", "compact")


class ServiceError(RuntimeError):
    """Base class for campaign-service failures."""


class AdmissionError(ServiceError):
    """The job was refused at submit time (a subject or config no worker
    can run, or the tenant's quota exceeded)."""


class OverloadError(AdmissionError):
    """The overload circuit breaker is open; low-priority admission paused."""


class TransitionError(ServiceError):
    """A journal event does not type-check against the job's state."""


class JobTimeoutError(WorkerStallError):
    """Base: a job blew a deadline.

    Subclasses :class:`~repro.fuzzer.supervisor.WorkerStallError` so the
    existing ``recv_with_deadline`` semantics — and
    :func:`~repro.fuzzer.supervisor.failure_category`'s ``"deadline"``
    classification — apply unchanged.
    """


class HeartbeatTimeoutError(JobTimeoutError):
    """No heartbeat within the per-job heartbeat deadline."""


class WallBudgetError(JobTimeoutError):
    """The job exceeded its wall-clock budget for one attempt."""


class DegradeReason:
    """Why a job reached the terminal DEGRADED state."""

    __slots__ = ("category", "detail")

    def __init__(self, category, detail=""):
        self.category = str(category)
        self.detail = str(detail)

    def to_dict(self):
        return {"category": self.category, "detail": self.detail}

    @classmethod
    def from_dict(cls, data):
        return cls(data.get("category", "unknown"), data.get("detail", ""))

    def __repr__(self):
        return "DegradeReason(%s: %s)" % (self.category, self.detail)


class TenantPolicy:
    """Per-tenant quotas: concurrency, backlog, and a shared retry budget."""

    __slots__ = ("name", "max_running", "max_pending", "retry_budget")

    def __init__(self, name, max_running=2, max_pending=16, retry_budget=8):
        self.name = name
        self.max_running = int(max_running)
        self.max_pending = int(max_pending)
        self.retry_budget = int(retry_budget)

    def __repr__(self):
        return "TenantPolicy(%s: run<=%d, pend<=%d, retries<=%d)" % (
            self.name,
            self.max_running,
            self.max_pending,
            self.retry_budget,
        )


class JobSpec:
    """Immutable description of one submitted campaign.

    ``index`` is the submission sequence number — it doubles as the job's
    fault-injection "worker" coordinate (``job-drop@<index>.<msg>``), so
    fault specs stay stable across service restarts.
    """

    __slots__ = (
        "job_id",
        "tenant",
        "priority",
        "subject",
        "config",
        "run_seed",
        "budget_ticks",
        "max_retries",
        "heartbeat_timeout",
        "wall_budget",
        "require_checkpoint",
        "index",
    )

    def __init__(
        self,
        job_id,
        subject,
        config="path",
        run_seed=0,
        tenant="default",
        priority=0,
        budget_ticks=60_000,
        max_retries=2,
        heartbeat_timeout=30.0,
        wall_budget=600.0,
        require_checkpoint=False,
        index=0,
    ):
        self.job_id = str(job_id)
        self.subject = str(subject)
        self.config = str(config)
        self.run_seed = int(run_seed)
        self.tenant = str(tenant)
        self.priority = int(priority)
        self.budget_ticks = int(budget_ticks)
        self.max_retries = int(max_retries)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.wall_budget = float(wall_budget)
        self.require_checkpoint = bool(require_checkpoint)
        self.index = int(index)

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data):
        return cls(**{slot: data[slot] for slot in cls.__slots__ if slot in data})

    def __repr__(self):
        return "JobSpec(%s: %s/%s#%d, tenant=%s, prio=%d)" % (
            self.job_id,
            self.subject,
            self.config,
            self.run_seed,
            self.tenant,
            self.priority,
        )


class JobRecord:
    """Mutable fold of one job's journal records."""

    __slots__ = (
        "spec",
        "state",
        "attempts",
        "retries_used",
        "reason",
        "summary",
        "pid",
        "pid_host",
        "note",
        "progress",
    )

    def __init__(self, spec):
        self.spec = spec
        self.state = PENDING
        self.attempts = 0  # "start" events seen (= next incarnation)
        self.retries_used = 0
        self.reason = None  # DegradeReason once DEGRADED
        self.summary = None  # worker summary dict once SUCCEEDED
        self.pid = None  # last known worker pid
        self.pid_host = None  # host that pid lives on (None: unrecorded)
        self.note = ""
        self.progress = {}  # last heartbeat payload (not journaled)

    def terminal(self):
        return self.state in TERMINAL_STATES

    def to_state_dict(self):
        """Lossless durable form for journal compaction snapshots.

        Everything the fold knows goes in except the transient fields
        (``pid``, ``progress``), which only describe a live attempt — a
        snapshot is only ever taken of settled state, and recovery
        re-derives liveness anyway.
        """
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "retries_used": self.retries_used,
            "reason": self.reason.to_dict() if self.reason else None,
            "summary": self.summary,
            "note": self.note,
        }

    @classmethod
    def from_state_dict(cls, data):
        record = cls(JobSpec.from_dict(data["spec"]))
        record.state = data.get("state", PENDING)
        record.attempts = int(data.get("attempts", 0))
        record.retries_used = int(data.get("retries_used", 0))
        reason = data.get("reason")
        record.reason = DegradeReason.from_dict(reason) if reason else None
        record.summary = data.get("summary")
        record.note = str(data.get("note", ""))
        return record

    def snapshot(self):
        """JSON-safe status view (the ``repro job status`` payload)."""
        return {
            "job": self.spec.job_id,
            "tenant": self.spec.tenant,
            "subject": self.spec.subject,
            "config": self.spec.config,
            "run_seed": self.spec.run_seed,
            "priority": self.spec.priority,
            "state": self.state,
            "attempts": self.attempts,
            "retries_used": self.retries_used,
            "reason": self.reason.to_dict() if self.reason else None,
            "summary": self.summary,
            "note": self.note,
        }

    def __repr__(self):
        return "JobRecord(%s: %s, attempts=%d, retries=%d)" % (
            self.spec.job_id,
            self.state,
            self.attempts,
            self.retries_used,
        )


def apply_event(jobs, job_id, event, payload):
    """Apply one journal event to the job table; returns 1 on conflict.

    This single code path serves both the recovery fold and the live
    orchestrator (which journals first, then applies), so the in-memory
    table can never drift from what a restart would reconstruct.
    """
    if event in SERVICE_EVENTS:
        return 0
    if event == "submit":
        if job_id in jobs:
            return 1
        jobs[job_id] = JobRecord(JobSpec.from_dict(payload))
        return 0
    record = jobs.get(job_id)
    if record is None or record.terminal():
        return 1
    if event == "start":
        if record.state != PENDING:
            return 1
        record.state = RUNNING
        record.attempts += 1
        record.pid = payload.get("pid")
        record.pid_host = payload.get("host")
    elif event == "recover":
        # Service restart: the attempt died with the orchestrator.  Back to
        # the queue with *no* retry charge — the job did nothing wrong.
        if record.state != RUNNING:
            return 1
        record.state = PENDING
        record.note = payload.get("note", "recovered after service restart")
    elif event == "retry":
        if record.state != RUNNING:
            return 1
        record.state = PENDING
        record.retries_used = int(payload.get("retries_used", record.retries_used))
        record.note = payload.get("reason", "")
    elif event == "done":
        if record.state != RUNNING:
            return 1
        record.state = SUCCEEDED
        record.summary = payload.get("summary")
    elif event == "degrade":
        record.state = DEGRADED
        record.reason = DegradeReason.from_dict(payload)
    elif event == "cancel":
        record.state = CANCELLED
    else:
        return 1
    return 0


class FoldState:
    """Everything the journal fold derives, as one snapshottable value.

    Besides the job table this tracks service metadata the table cannot
    carry: prior-life count, conflict count, and the map of *handled*
    intake nonces to the job each one resolved to (None for a refused or
    acknowledged request) — the latter so a request file replayed after a
    crash can never be converted into a second job.  The whole state
    round-trips through :meth:`to_dict` / :meth:`from_dict`, which is what
    makes journal compaction lossless: ``snapshot + tail`` folds to the
    same value as the full history.
    """

    __slots__ = ("jobs", "epochs", "conflicts", "handled", "upto")

    def __init__(self):
        self.jobs = {}
        self.epochs = 0
        self.conflicts = 0
        self.handled = {}  # request nonce -> job id (None: refused/acked)
        self.upto = -1  # highest folded seq; compaction's high-water mark

    def apply(self, record):
        """Fold one :class:`repro.service.journal.JournalRecord`."""
        if record.seq > self.upto:
            self.upto = record.seq
        event = record.event
        payload = record.payload or {}
        if event == "epoch":
            self.epochs += 1
            return
        if event in ("refuse", "ack"):
            self._settle(payload.get("request"), None)
            return
        if event == "compact":
            return
        if event in ("submit", "cancel"):
            self._settle(payload.get("request"), record.job)
        self.conflicts += apply_event(self.jobs, record.job, event, payload)

    def _settle(self, nonce, job_id):
        if nonce:
            self.handled[nonce] = job_id

    def to_dict(self):
        return {
            "jobs": {
                job_id: record.to_state_dict()
                for job_id, record in self.jobs.items()
            },
            "epochs": self.epochs,
            "conflicts": self.conflicts,
            "handled": self.handled,
            "upto": self.upto,
        }

    @classmethod
    def from_dict(cls, data):
        state = cls()
        jobs = data.get("jobs") or {}
        for job_id in sorted(
            jobs, key=lambda jid: jobs[jid].get("spec", {}).get("index", 0)
        ):
            state.jobs[job_id] = JobRecord.from_state_dict(jobs[job_id])
        state.epochs = int(data.get("epochs", 0))
        state.conflicts = int(data.get("conflicts", 0))
        handled = data.get("handled") or {}
        if isinstance(handled, dict):
            state.handled = dict(handled)
        else:  # older snapshots stored a bare list of nonces
            state.handled = {nonce: None for nonce in handled}
        state.upto = int(data.get("upto", -1))
        return state


def fold_state(records, base=None):
    """Fold journal records (in seq order) into a :class:`FoldState`.

    ``base`` seeds the fold from a compaction snapshot; the caller is
    responsible for passing only records *beyond* the snapshot's
    high-water mark (``record.seq > base.upto``) — re-applying an already
    folded record would double-count it.
    """
    state = base if base is not None else FoldState()
    for record in records:
        state.apply(record)
    return state


def fold_records(records):
    """Fold scanned journal records into ``(jobs, epochs, conflicts)``.

    ``records`` are :class:`repro.service.journal.JournalRecord` in seq
    order.  ``epochs`` counts prior service lives (the next life's
    fault-injection incarnation); ``conflicts`` counts events that did not
    type-check — zero for any journal an uncorrupted service wrote, even
    one killed mid-transition, because each record is atomic.
    """
    state = fold_state(records)
    return state.jobs, state.epochs, state.conflicts
