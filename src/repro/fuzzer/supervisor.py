"""Worker supervision: deadline-guarded pipes, restarts with backoff, degradation.

The instance-parallel campaign (:mod:`repro.fuzzer.parallel`) drives engine
workers over pipes.  Before this module, one dead or wedged worker killed
the whole campaign and every worker's progress with it.  The supervisor
turns worker failure into a recoverable event:

- :func:`recv_with_deadline` never blocks forever on a half-dead pipe; it
  raises a *typed* error — :class:`WorkerStallError` (deadline passed),
  :class:`WorkerDeadError` (EOF/broken pipe), :class:`WorkerTaskError`
  (the worker reported an exception of its own).
- :class:`Supervisor.request` wraps every send/recv round trip.  On a stall
  or death it terminates the worker, waits out an exponential backoff
  (:class:`RestartPolicy`), respawns it (resuming from its last checkpoint
  when one is valid), replays the current round's protocol suffix, and
  retries the request — all deterministic on the virtual clock, so a
  recovered campaign is byte-identical to an undisturbed one.
- A worker that exhausts its restart budget is *dropped*, not fatal:
  :class:`WorkerLostError` tells the campaign loop to continue degraded
  with the survivors, and the final result records the degradation.

Worker exceptions (``WorkerTaskError``) are deliberately not retried: they
are deterministic, so a restart would only reproduce them more slowly.
"""

import multiprocessing
import time

from repro.fuzzer.checkpoint import CheckpointError

# How long (wall seconds) a reply may take before the worker counts as
# stalled.  Virtual-clock rounds complete in milliseconds; two minutes of
# silence means a wedged pipe, not a slow campaign.
DEFAULT_WORKER_TIMEOUT = 120.0


def mp_context():
    """Prefer fork (cheap, inherits built subjects); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class WorkerError(RuntimeError):
    """Base class for supervised-worker failures."""

    def __init__(self, worker_index, message):
        self.worker_index = worker_index
        super().__init__("instance worker %d %s" % (worker_index, message))


class WorkerStallError(WorkerError):
    """No reply within the deadline: the worker (or its pipe) is wedged."""


class WorkerDeadError(WorkerError):
    """The worker process died (EOF / broken pipe) without reporting."""


class WorkerTaskError(WorkerError):
    """The worker reported an exception of its own (deterministic; no retry)."""


class WorkerProtocolError(WorkerError):
    """The worker replied with an unexpected message tag."""


class WorkerLostError(WorkerError):
    """Restart budget exhausted: the worker is dropped, the campaign degrades."""


def failure_category(exc):
    """Coarse machine-readable category of a worker/job failure.

    Degradation telemetry wants more than an exception string: dashboards
    and the service's ``DegradeReason`` group drops by *why* — a missed
    deadline, a dead process, a deterministic task error, or corrupted
    checkpoint state (the typed :class:`CheckpointError` family).
    """
    if isinstance(exc, CheckpointError):
        return "checkpoint-corrupt"
    if isinstance(exc, WorkerStallError):
        return "deadline"
    if isinstance(exc, WorkerDeadError):
        return "worker-death"
    if isinstance(exc, WorkerTaskError):
        return "task-error"
    return "error"


class RestartPolicy:
    """Exponential backoff with a hard restart budget."""

    __slots__ = ("max_restarts", "backoff_base", "backoff_factor", "backoff_max")

    def __init__(
        self, max_restarts=3, backoff_base=0.1, backoff_factor=2.0, backoff_max=5.0
    ):
        self.max_restarts = int(max_restarts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_max = float(backoff_max)

    def delay(self, attempt):
        """Backoff before restart ``attempt`` (1-based).

        Attempt 0 (and negatives) and zero-backoff policies cost nothing;
        large attempts saturate at ``backoff_max`` instead of overflowing
        the float exponentiation.
        """
        if attempt <= 0 or self.backoff_base <= 0.0:
            return 0.0
        try:
            raw = self.backoff_base * self.backoff_factor ** (attempt - 1)
        except OverflowError:
            # factor ** attempt left float range; the cap saturated long ago.
            return self.backoff_max
        return min(self.backoff_max, raw)

    def __repr__(self):
        return "RestartPolicy(max=%d, backoff=%.2gs x%.2g <= %.2gs)" % (
            self.max_restarts,
            self.backoff_base,
            self.backoff_factor,
            self.backoff_max,
        )


def recv_with_deadline(conn, timeout, worker_index, expected=None):
    """Receive one reply, bounded by ``timeout`` wall seconds.

    ``timeout=None`` means wait forever (the legacy behavior; supervised
    campaigns always pass a deadline).  Raises the typed worker errors
    documented in the module docstring; an ``("error", msg)`` reply becomes
    :class:`WorkerTaskError`.
    """
    if timeout is not None:
        if not conn.poll(timeout):
            raise WorkerStallError(
                worker_index,
                "sent no reply within %.1fs (stalled or wedged pipe)" % timeout,
            )
    try:
        reply = conn.recv()
    except (EOFError, OSError) as exc:
        raise WorkerDeadError(worker_index, "died mid-campaign (%s)" % (exc,))
    if reply[0] == "error":
        raise WorkerTaskError(worker_index, "failed: %s" % (reply[1],))
    if expected is not None and reply[0] != expected:
        raise WorkerProtocolError(
            worker_index, "sent %r, expected %r" % (reply[0], expected)
        )
    return reply


class SupervisedWorker:
    """Parent-side record of one engine worker and its supervision state."""

    __slots__ = (
        "index",
        "proc",
        "conn",
        "alive",
        "restarts",
        "incarnation",
        "resumed_round",
        "history",
        "stage",
        "pending_imports",
        "checkpoint_path",
    )

    def __init__(self, index, checkpoint_path=None):
        self.index = index
        self.proc = None
        self.conn = None
        self.alive = True
        self.restarts = 0
        self.incarnation = 0
        # Rounds already embodied in the worker's state at spawn time
        # (0 = fresh engine; k = resumed from the round-k checkpoint).
        self.resumed_round = 0
        # One (run_target, broadcast_imports) record per *completed* round —
        # the deterministic replay script for checkpointless recovery.
        self.history = []
        # Progress through the current round: 0 = nothing processed,
        # 1 = sync reply merged, 2 = imports applied.
        self.stage = 0
        self.pending_imports = ()
        self.checkpoint_path = checkpoint_path

    def attach(self, proc, conn):
        self.proc = proc
        self.conn = conn

    def terminate(self):
        """Tear down the current process/pipe pair (idempotent)."""
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:
                pass
            self.conn = None
        if self.proc is not None:
            if self.proc.is_alive():
                self.proc.terminate()
            self.proc.join()
            self.proc = None

    def __repr__(self):
        return "SupervisedWorker(%d, inc=%d, restarts=%d%s)" % (
            self.index,
            self.incarnation,
            self.restarts,
            "" if self.alive else ", DROPPED",
        )


class Supervisor:
    """Restart-with-backoff supervision over a set of workers.

    ``spawn_fn(worker)`` must start a fresh process for ``worker`` (honoring
    ``worker.incarnation`` and its checkpoint) and attach proc/conn;
    ``replay_fn(worker)`` must bring a just-respawned worker back to the
    current protocol position (resume + deterministic replay).  ``stats``
    may provide ``record_restart`` / ``record_degraded`` hooks
    (:class:`repro.fuzzer.stats.CampaignStats` does).
    """

    def __init__(
        self, workers, spawn_fn, replay_fn, policy=None, timeout=None, stats=None
    ):
        self.workers = list(workers)
        self.spawn_fn = spawn_fn
        self.replay_fn = replay_fn
        self.policy = policy if policy is not None else RestartPolicy()
        self.timeout = DEFAULT_WORKER_TIMEOUT if timeout is None else timeout
        self.stats = stats

    def alive(self):
        """Workers still participating in the campaign."""
        return [worker for worker in self.workers if worker.alive]

    def spawn_all(self):
        for worker in self.workers:
            self.spawn_fn(worker)
        return self

    def request(self, worker, command, expected):
        """One supervised round trip; recovers from stalls and deaths.

        Returns the worker's reply.  Raises :class:`WorkerLostError` once
        the restart budget is spent (the worker is already marked dropped)
        and :class:`WorkerTaskError` for deterministic worker exceptions.
        """
        while True:
            try:
                if command is not None:
                    try:
                        worker.conn.send(command)
                    except (OSError, ValueError) as exc:
                        raise WorkerDeadError(
                            worker.index, "pipe closed on send (%s)" % (exc,)
                        )
                return recv_with_deadline(
                    worker.conn, self.timeout, worker.index, expected
                )
            except (WorkerStallError, WorkerDeadError) as exc:
                self._recover(worker, exc)

    def _recover(self, worker, cause):
        """Terminate, back off, respawn, replay — or drop the worker."""
        reason = "%s: %s" % (type(cause).__name__, cause)
        last_exc = cause
        while True:
            worker.terminate()
            if worker.restarts >= self.policy.max_restarts:
                worker.alive = False
                if self.stats is not None:
                    self.stats.record_degraded(
                        worker.index,
                        reason,
                        cause="restart-budget",
                        detail=failure_category(last_exc),
                    )
                raise WorkerLostError(
                    worker.index,
                    "exceeded its restart budget (%d); dropping it (last error: %s)"
                    % (self.policy.max_restarts, reason),
                )
            worker.restarts += 1
            delay = self.policy.delay(worker.restarts)
            if self.stats is not None:
                self.stats.record_restart(worker.index, worker.restarts, reason, delay)
            if delay > 0:
                time.sleep(delay)
            worker.incarnation += 1
            try:
                self.spawn_fn(worker)
                self.replay_fn(worker)
                return
            except (WorkerStallError, WorkerDeadError) as exc:
                # The replacement died too (e.g. a fault targeting the new
                # incarnation); charge another restart and keep going.
                reason = "%s: %s" % (type(exc).__name__, exc)
                last_exc = exc

    def terminate_all(self):
        for worker in self.workers:
            worker.terminate()
