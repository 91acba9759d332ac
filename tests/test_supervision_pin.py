"""Pin what the three child-process supervisors report under faults.

Matrix cells (:func:`~repro.fuzzer.parallel.run_cells`), instance workers
(:func:`~repro.fuzzer.parallel.run_instance_campaign`) and service jobs
(:class:`~repro.service.CampaignService`) each launch children, receive
their replies under a deadline, classify failures and retry some of them.
This file drives each through the fault scripts of ``test_faultinject.py``
and ``test_service_recovery.py`` and pins everything a user can see of
that: every :class:`~repro.fuzzer.parallel.CellFailure`, the ``cell``,
``cell_retry``, ``restart`` and ``degraded`` events (without their
wall-time fields) and each job's journal as ``(event, category,
retries_used, detail)``.  Pids, hosts, times, the temporary root and
OS-supplied error text are masked.

Any diff here is a change in how a failure is classified, retried or
reported; if it is deliberate, re-bless the constants and say why.
"""

import asyncio
import os
import re
import time

import pytest

from repro.fuzzer import faultinject
from repro.fuzzer.faultinject import injected
from repro.fuzzer.parallel import run_cells, run_instance_campaign
from repro.fuzzer.stats import CampaignStats, MatrixProgress
from repro.fuzzer.supervisor import RestartPolicy
from repro.service import CampaignService
from repro.service.journal import JobJournal
from repro.telemetry.bus import TelemetryBus

pytestmark = pytest.mark.faultinject

INSTANCE_BUDGET = 40_000
JOB_BUDGET = 60_000
FAST_RESTARTS = RestartPolicy(max_restarts=3, backoff_base=0.01, backoff_max=0.05)
FAST_RETRIES = RestartPolicy(max_restarts=2, backoff_base=0.01, backoff_max=0.05)

#: Event fields that carry wall time, dropped from every digest.
WALL_FIELDS = ("secs", "elapsed")

STALLED = (
    "WorkerStallError: instance worker %d sent no reply within 1.0s "
    "(stalled or wedged pipe)"
)


@pytest.fixture(autouse=True)
def no_leftover_faults(monkeypatch):
    monkeypatch.delenv("REPRO_CELL_RESTARTS", raising=False)
    faultinject.clear()
    yield
    faultinject.clear()


class _Collect:
    """Bus sink that keeps the supervision events."""

    KINDS = ("cell", "cell_retry", "restart", "degraded")

    def __init__(self):
        self.events = []

    def emit(self, event):
        if event.kind in self.KINDS:
            payload = event.payload()
            for name in WALL_FIELDS:
                payload.pop(name, None)
            self.events.append((event.kind, payload))


def _bus():
    bus = TelemetryBus()
    return bus, bus.attach(_Collect())


def _mask(text, root=None):
    if not isinstance(text, str):
        return text
    if root is not None:
        text = text.replace(root, "<root>")
    text = re.sub(r"\[Errno \d+\][^)]*", "<os-error>", text)
    return re.sub(r"\bpid \d+", "pid <pid>", text)


# -- matrix cells --------------------------------------------------------------


def _cell(task):
    kind, sentinel = task
    if kind == "flaky":
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as handle:
                handle.write("attempted")
            os._exit(3)
        return "recovered"
    if kind == "boom":
        raise RuntimeError("deterministic bug")
    if kind == "dies":
        os._exit(3)
    if kind == "hangs":
        time.sleep(60)
    return "ok"


def _cells(tasks, timeout=None):
    bus, sink = _bus()
    results, failures = run_cells(
        tasks,
        jobs=1,
        timeout=timeout,
        cell_fn=_cell,
        progress=MatrixProgress(total=len(tasks), bus=bus),
        restart_policy=RestartPolicy(max_restarts=2, backoff_base=0.01),
    )
    digest = [(f.key, f.kind, f.message, f.restarts) for f in failures]
    return results, digest, sink.events


def test_raising_cell_is_reported_once():
    results, failures, events = _cells({"boom": ("boom", "")})
    assert results == {}
    assert failures == [("boom", "error", "RuntimeError: deterministic bug", 0)]
    assert events == [
        (
            "cell",
            {
                "key": "boom",
                "status": "error",
                "execs": 0,
                "restarts": 0,
                "done": 1,
                "total": 1,
            },
        )
    ]


def test_dying_cell_is_retried_then_ok(tmp_path):
    sentinel = str(tmp_path / "attempted")
    results, failures, events = _cells({"flaky": ("flaky", sentinel)})
    assert results == {"flaky": "recovered"}
    assert failures == []
    assert events == [
        (
            "cell_retry",
            {"key": "flaky", "attempt": 1, "failure": "crashed", "delay": 0.01},
        ),
        (
            "cell",
            {
                "key": "flaky",
                "status": "ok",
                "execs": 0,
                "restarts": 1,
                "done": 1,
                "total": 1,
            },
        ),
    ]


def test_cell_exhausting_its_restart_policy():
    results, failures, events = _cells({"dies": ("dies", "")})
    assert results == {}
    assert failures == [
        ("dies", "crashed", "worker died without reporting (exit code 3)", 2)
    ]
    assert events == [
        (
            "cell_retry",
            {"key": "dies", "attempt": 1, "failure": "crashed", "delay": 0.01},
        ),
        (
            "cell_retry",
            {"key": "dies", "attempt": 2, "failure": "crashed", "delay": 0.02},
        ),
        (
            "cell",
            {
                "key": "dies",
                "status": "crashed",
                "execs": 0,
                "restarts": 2,
                "done": 1,
                "total": 1,
            },
        ),
    ]


def test_cell_timeout_is_retried_then_reported():
    results, failures, events = _cells({"hangs": ("hangs", "")}, timeout=1.0)
    assert results == {}
    assert failures == [("hangs", "timeout", "exceeded 1.0s wall budget", 2)]
    assert events == [
        (
            "cell_retry",
            {"key": "hangs", "attempt": 1, "failure": "timeout", "delay": 0.01},
        ),
        (
            "cell_retry",
            {"key": "hangs", "attempt": 2, "failure": "timeout", "delay": 0.02},
        ),
        (
            "cell",
            {
                "key": "hangs",
                "status": "timeout",
                "execs": 0,
                "restarts": 2,
                "done": 1,
                "total": 1,
            },
        ),
    ]


# -- instance workers ----------------------------------------------------------


def _instances(spec, policy=FAST_RESTARTS):
    bus, sink = _bus()
    stats = CampaignStats(label="flvmeta/path#0", bus=bus)
    with injected(spec):
        merged, _, _ = run_instance_campaign(
            "flvmeta",
            "path",
            0,
            INSTANCE_BUDGET,
            workers=2,
            stats=stats,
            restart_policy=policy,
            worker_timeout=1.0,
        )
    for _, payload in sink.events:
        payload["reason"] = _mask(payload["reason"])
    return (merged.degraded, merged.worker_restarts), sink.events


def test_killed_instance_worker():
    outcome, events = _instances("kill@1.2")
    assert outcome == (False, (0, 1))
    assert events == [
        (
            "restart",
            {
                "label": "flvmeta/path#0",
                "worker": 1,
                "attempt": 1,
                "reason": "WorkerDeadError: instance worker 1 died mid-campaign ()",
                "delay": 0.01,
            },
        )
    ]


def test_stalled_instance_worker():
    outcome, events = _instances("stall@0.2:secs=600")
    assert outcome == (False, (1, 0))
    assert events == [
        (
            "restart",
            {
                "label": "flvmeta/path#0",
                "worker": 0,
                "attempt": 1,
                "reason": STALLED % 0,
                "delay": 0.01,
            },
        )
    ]


def test_dropped_instance_reply():
    outcome, events = _instances("drop@1.1")
    assert outcome == (False, (0, 1))
    assert events == [
        (
            "restart",
            {
                "label": "flvmeta/path#0",
                "worker": 1,
                "attempt": 1,
                "reason": STALLED % 1,
                "delay": 0.01,
            },
        )
    ]


def test_instance_worker_exhausting_its_restarts():
    policy = RestartPolicy(max_restarts=1, backoff_base=0.01)
    outcome, events = _instances("kill@1.1.0,kill@1.1.1", policy)
    dead = "WorkerDeadError: instance worker 1 died mid-campaign ()"
    assert outcome == (True, (0, 1))
    assert events == [
        (
            "restart",
            {
                "label": "flvmeta/path#0",
                "worker": 1,
                "attempt": 1,
                "reason": dead,
                "delay": 0.01,
            },
        ),
        (
            "degraded",
            {
                "label": "flvmeta/path#0",
                "worker": 1,
                "reason": dead,
                "cause": "restart-budget",
                "detail": "worker-death",
            },
        ),
    ]


# -- service jobs --------------------------------------------------------------


def _journal_digest(root):
    records, _ = JobJournal(root, fsync=False).scan(quarantine=False)
    digest = {}
    for record in sorted(records, key=lambda r: r.seq):
        if record.job is None:
            continue
        payload = record.payload or {}
        detail = payload.get("detail", payload.get("reason"))
        digest.setdefault(record.job, []).append(
            (
                record.event,
                payload.get("category"),
                payload.get("retries_used"),
                _mask(detail, root),
            )
        )
    return digest


def test_service_job_failures(tmp_path):
    root = str(tmp_path)
    bus, sink = _bus()
    # Job 0 loses its final "done" message, job 1 wedges before its second
    # heartbeat, job 2 finds a file squatting its store directory, and job
    # 3 tears its last checkpoint, loses "done" and may not fall back to
    # the store.
    faultinject.install(
        "job-drop@0.9,heartbeat-stall@1.2:secs=30,truncate@3.8:keep=10,job-drop@3.9"
    )
    squat = os.path.join(root, "jobs", "j000002", "store")
    os.makedirs(os.path.dirname(squat))
    with open(squat, "w") as handle:
        handle.write("not a directory")
    with CampaignService(
        root, max_workers=1, fsync=False, restart_policy=FAST_RETRIES, bus=bus
    ) as service:
        jobs = [
            service.submit("gdk", budget_ticks=JOB_BUDGET, heartbeat_timeout=1.0),
            service.submit("mp3gain", budget_ticks=JOB_BUDGET, heartbeat_timeout=1.0),
            service.submit("gdk", budget_ticks=JOB_BUDGET),
            service.submit(
                "gdk",
                budget_ticks=JOB_BUDGET,
                heartbeat_timeout=1.0,
                require_checkpoint=True,
            ),
        ]
        summary = asyncio.run(service.run_until_idle())
    assert summary["states"] == {"succeeded": 2, "degraded": 2}
    submit = ("submit", None, None, None)
    start = ("start", None, None, None)
    done = ("done", None, None, None)
    died = "WorkerDeadError: instance worker %d died mid-job ()"
    silent = "HeartbeatTimeoutError: instance worker 1 sent no heartbeat within 1.0s"
    task_error = (
        "WorkerTaskError: instance worker 2 failed: NotADirectoryError: <os-error>"
    )
    corrupt = (
        "CheckpointCorruptError: job j000003 refused its checkpoint: "
        "CheckpointCorruptError: <root>/jobs/j000003/engine.ckpt: 10 bytes is "
        "shorter than the 60-byte checkpoint header (truncated write?)"
    )
    assert _journal_digest(root) == {
        jobs[0]: [
            submit,
            start,
            ("retry", "worker-death", 1, died % 0),
            start,
            done,
        ],
        jobs[1]: [
            submit,
            start,
            ("retry", "deadline", 1, silent),
            start,
            done,
        ],
        jobs[2]: [submit, start, ("degrade", "task-error", None, task_error)],
        jobs[3]: [
            submit,
            start,
            ("retry", "worker-death", 1, died % 3),
            start,
            ("degrade", "checkpoint-corrupt", None, corrupt),
        ],
    }
    for _, payload in sink.events:
        payload["reason"] = _mask(payload["reason"], root)
    assert sink.events == [
        (
            "degraded",
            {
                "label": "j000002",
                "worker": 2,
                "reason": task_error,
                "cause": "task-error",
                "detail": "task-error",
            },
        ),
        (
            "degraded",
            {
                "label": "j000003",
                "worker": 3,
                "reason": corrupt,
                "cause": "checkpoint-corrupt",
                "detail": "checkpoint-corrupt",
            },
        ),
    ]
