"""Campaign observability: per-worker throughput, queue growth, sync events.

Both parallel modes (matrix fan-out and main/secondary instance campaigns)
report their progress through the two recorders here.  Each ``record_*``
call builds one typed :mod:`repro.telemetry` bus event, keeps that event in
memory (tests and callers inspect it, and the accessors aggregate it) and
publishes the same object on the bus — there is no second record type.  The
bus's default ``LogSink`` mirrors the events to the ``repro.fuzzer.parallel``
logger with the same line formats as before — enable
``logging.basicConfig(level=logging.INFO)`` or the CLI's global
``--verbose`` flag to watch a campaign live, or attach a JSONL sink
(``fuzz --trace``) to persist them.

Wall-clock seconds here are real (``time.monotonic``); "virtual" rates are
executions per virtual hour, the deterministic clock's native unit (see
:meth:`~repro.telemetry.bus.WorkerProgressEvent.execs_per_vhour`).
"""

import time

from repro.telemetry.bus import (
    CellEvent,
    CellRetryEvent,
    SyncRoundEvent,
    WorkerDroppedEvent,
    WorkerProgressEvent,
    WorkerRestartEvent,
    get_bus,
)


class CampaignStats:
    """Progress log of one instance-parallel campaign.

    ``samples``, ``sync_events``, ``restarts`` and ``degraded_workers`` hold
    the :class:`WorkerProgressEvent`, :class:`SyncRoundEvent`,
    :class:`WorkerRestartEvent` and :class:`WorkerDroppedEvent` records this
    log published on ``bus`` (the process-global telemetry bus by default).
    """

    def __init__(self, label="", bus=None):
        self.label = label
        self.bus = bus if bus is not None else get_bus()
        self.samples = []
        self.sync_events = []
        self.restarts = []
        self.degraded_workers = []
        self._start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self._start

    def _keep(self, records, event):
        records.append(event)
        return self.bus.publish(event)

    def record_worker(
        self, worker, tick, execs, queue_size, crashes, hangs=0, coverage=0
    ):
        return self._keep(
            self.samples,
            WorkerProgressEvent(
                self.label,
                worker,
                tick,
                execs,
                queue_size,
                crashes,
                hangs,
                coverage,
                self.elapsed(),
            ),
        )

    def record_sync(self, tick, offered, accepted, imported_per_worker=()):
        return self._keep(
            self.sync_events,
            SyncRoundEvent(
                self.label, tick, offered, accepted, imported_per_worker, self.elapsed()
            ),
        )

    def record_restart(self, worker, attempt, reason, delay):
        return self._keep(
            self.restarts,
            WorkerRestartEvent(
                self.label, worker, attempt, reason, delay, self.elapsed()
            ),
        )

    def record_degraded(self, worker, reason, cause="unknown", detail=None):
        return self._keep(
            self.degraded_workers,
            WorkerDroppedEvent(self.label, worker, reason, cause, detail),
        )

    def degraded_reasons(self):
        """Degradations as ``(worker, cause, detail)`` tuples (for results)."""
        return tuple((e.worker, e.cause, e.detail) for e in self.degraded_workers)

    def restart_counts(self, workers):
        """Per-worker restart totals as a tuple of length ``workers``."""
        counts = [0] * workers
        for event in self.restarts:
            if 0 <= event.worker < workers:
                counts[event.worker] = max(counts[event.worker], event.attempt)
        return tuple(counts)

    def latest_samples(self):
        """The most recent sample of every worker, keyed by worker index."""
        return {sample.worker: sample for sample in self.samples}

    def summary_lines(self):
        """Human-readable per-worker and sync totals (for the CLI)."""
        lines = []
        for worker, sample in sorted(self.latest_samples().items()):
            lines.append(
                "worker %d: %d execs (%.0f exec/vh, %.0f exec/s), "
                "queue %d, crashes %d, hangs %d"
                % (
                    worker,
                    sample.execs,
                    sample.execs_per_vhour(),
                    sample.execs_per_sec(),
                    sample.queue,
                    sample.crashes,
                    sample.hangs,
                )
            )
        offered = sum(e.offered for e in self.sync_events)
        accepted = sum(e.accepted for e in self.sync_events)
        lines.append(
            "syncs: %d rounds, %d inputs offered, %d accepted"
            % (len(self.sync_events), offered, accepted)
        )
        if self.restarts:
            per_worker = {}
            for event in self.restarts:
                per_worker[event.worker] = per_worker.get(event.worker, 0) + 1
            lines.append(
                "supervision: %d restart(s) (%s)"
                % (
                    len(self.restarts),
                    ", ".join(
                        "w%d x%d" % (w, n) for w, n in sorted(per_worker.items())
                    ),
                )
            )
        for event in self.degraded_workers:
            lines.append(
                "degraded: worker %d dropped — %s" % (event.worker, event.reason)
            )
        return lines


class MatrixProgress:
    """Progress log of one parallel matrix run.

    ``cells`` holds the :class:`CellEvent` of every finished cell.
    """

    def __init__(self, total=0, bus=None):
        self.total = total
        self.bus = bus if bus is not None else get_bus()
        self.cells = []

    def record_cell(self, key, status, wall, execs=0, restarts=0):
        event = CellEvent(
            key, status, wall, execs, restarts, len(self.cells) + 1, self.total
        )
        self.cells.append(event)
        return self.bus.publish(event)

    def record_retry(self, key, attempt, kind, delay):
        """A cell failed transiently and will be restarted after ``delay``s."""
        self.bus.publish(CellRetryEvent(key, attempt, kind, delay))

    def completed(self):
        return [c for c in self.cells if c.status == "ok"]

    def failed(self):
        return [c for c in self.cells if c.status != "ok"]
