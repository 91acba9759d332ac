"""The service's job worker: one campaign, run slice-by-slice, supervised.

A job worker owns one whole campaign (unlike the instance workers of
:mod:`repro.fuzzer.parallel`, which share one).  It reuses the same
survival kit: the engine streams artifacts into a durable
:class:`~repro.fuzzer.store.CampaignStore` slice under the job directory,
and a versioned checkpoint is written after every budget slice, so a
retried attempt resumes instead of restarting.

A retried attempt (``incarnation > 0``) climbs the resume ladder of
:mod:`repro.fuzzer.session` — checkpoint, then store replay, then fresh.
A job whose spec says ``require_checkpoint`` does not fall back: a
refused checkpoint is reported as a typed ``checkpoint-corrupt`` failure
and the job degrades instead of silently recomputing.

Every outbound message (heartbeats and the final result alike) passes the
fault gate: ``job-drop@<job-index>.<msg>`` swallows it, ``heartbeat-stall``
wedges first — exactly the half-dead-pipe shapes the orchestrator's
heartbeat deadline exists to catch.
"""

import os

from repro.experiments.config import build_session
from repro.fuzzer import faultinject
from repro.fuzzer.session import REFUSED
from repro.fuzzer.store import MAIN_WORKER, CampaignStore, StoreFencedError
from repro.service.jobs import JobSpec
from repro.subjects import get_subject

#: Budget slices per attempt: one checkpoint + heartbeat per slice.
SLICES = 8

CHECKPOINT_NAME = "engine.ckpt"
STORE_DIR = "store"


class _WireGuard:
    """Counts outbound messages and fires jobmsg faults before each send."""

    def __init__(self, conn, job_index, incarnation):
        self.conn = conn
        self.job_index = job_index
        self.incarnation = incarnation
        self.msg_no = 0

    def send(self, message):
        self.msg_no += 1
        plan = faultinject.active_plan()
        if plan:
            fault = plan.match(
                "jobmsg", self.job_index, self.msg_no, self.incarnation
            )
            if fault is not None and faultinject.fire_jobmsg_fault(fault):
                return False  # injected drop: the message evaporates
        self.conn.send(message)
        return True


def _summary(engine, slices_done):
    """JSON-safe end-of-attempt summary (crosses the pipe and the journal)."""
    return {
        "execs": engine.execs,
        "ticks": engine.clock.ticks,
        "queue": len(engine.queue.entries),
        "coverage": engine.virgin.coverage_count(),
        "crash_count": engine.crash_count,
        "crash_sigs": sorted(engine.unique_crashes),
        "hangs": engine.hangs,
        "slices": slices_done,
    }


def job_worker_main(conn, spec_dict, job_dir, incarnation=0, lease_ttl=None):
    """Process entry: run (or resume) one job campaign to completion.

    ``lease_ttl`` (inherited from the service) puts the store slice under
    a lease too: the worker renews it at every slice boundary, and a
    successor service on another host can steal the slice once the lease
    runs out instead of waiting on an unkillable foreign pid.  A worker
    whose slice lease was stolen reports the typed ``fenced`` failure —
    the orchestrator retries with a fresh slice epoch, and every write
    the stale attempt tried after the steal was refused at the store
    boundary (:class:`~repro.fuzzer.store.StoreFencedError`).
    """
    spec = JobSpec.from_dict(spec_dict)
    guard = _WireGuard(conn, spec.index, incarnation)
    store = None
    try:
        from repro import telemetry

        telemetry.child_trace("job-%s" % spec.job_id)
        store = CampaignStore(
            os.path.join(job_dir, STORE_DIR),
            worker=MAIN_WORKER,
            meta={
                "subject": spec.subject,
                "config": spec.config,
                "run_seed": spec.run_seed,
            },
            worker_index=spec.index,
            incarnation=incarnation,
            lease_ttl=lease_ttl,
        )
        session = build_session(
            get_subject(spec.subject),
            spec.config,
            spec.run_seed,
            spec.budget_ticks,
            os.path.join(job_dir, CHECKPOINT_NAME),
            instance=0,
            telemetry=telemetry.engine_telemetry(
                label=spec.job_id, budget_ticks=spec.budget_ticks
            ),
            store=store,
        )
        engine = session.engine
        retried = incarnation > 0
        resumed = session.open(
            retried, replay_store=retried, require_checkpoint=spec.require_checkpoint
        )
        if resumed.rung == REFUSED:  # require_checkpoint: degrade, typed
            guard.send(("error", "checkpoint-corrupt", resumed.refusal))
            return
        done_slices = int(resumed.meta.get("slice", 0))
        plan = faultinject.active_plan()
        for slice_no in range(done_slices, SLICES):
            engine.run_until(spec.budget_ticks * (slice_no + 1) // SLICES)
            store.renew_lease()
            session.save({"slice": slice_no + 1, "job": spec.job_id})
            if plan:
                fault = plan.match(
                    "checkpoint", spec.index, slice_no + 1, incarnation
                )
                if fault is not None:
                    faultinject.fire_checkpoint_fault(fault, session.checkpoint_path)
            guard.send(("heartbeat", _summary(engine, slice_no + 1)))
        engine.finish()
        store.finalize(engine, extra={"job": spec.job_id})
        guard.send(("done", _summary(engine, SLICES)))
    except StoreFencedError as exc:
        try:
            guard.send(("error", "fenced", "%s: %s" % (type(exc).__name__, exc)))
        except Exception:
            pass
    except BaseException as exc:
        try:
            guard.send(("error", "task-error", "%s: %s" % (type(exc).__name__, exc)))
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
