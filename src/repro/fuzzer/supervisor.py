"""Child-process supervision: one launcher, receive, teardown and retry rule.

Matrix cells (:func:`repro.fuzzer.parallel.run_cells`), instance workers
(:func:`repro.fuzzer.parallel.run_instance_campaign`) and service jobs
(:class:`repro.service.CampaignService`) each keep their own policy, but
share this mechanism:

- :func:`launch` starts a daemon child over a pipe; :meth:`Child.stop` is
  the one teardown (exit grace, then SIGTERM, join 5 s, SIGKILL).
- A child reports its own failure as ``("error", category, detail)``
  (:func:`report_error`).  :func:`recv_with_deadline` never blocks past
  its deadline and decodes every failure into a typed error:
  :class:`WorkerStallError` (deadline passed), :class:`WorkerDeadError`
  (EOF/broken pipe, or a reported ``worker-death``),
  :class:`WorkerTaskError` (the child's own exception, or an unexpected
  tag) or a :class:`~repro.fuzzer.checkpoint.CheckpointCorruptError`.
- :func:`retryable` retries only a missed deadline or a dead worker: task
  errors and corrupt checkpoints are deterministic, so a restart would
  only reproduce them more slowly.

:class:`Supervisor` is the instance workers' policy.  On a retryable
failure :meth:`Supervisor.request` stops the worker, backs off
(:class:`RestartPolicy`), respawns it (resuming from its last checkpoint
when one is valid), replays the current round's protocol suffix and
retries, so a recovered campaign is byte-identical to an undisturbed one.
A worker that exhausts its restart budget is dropped
(:class:`WorkerLostError`) and the campaign continues degraded.
"""

import multiprocessing
import time

from repro.fuzzer.checkpoint import CheckpointCorruptError, CheckpointError

# How long (wall seconds) a reply may take before the worker counts as
# stalled.  Virtual-clock rounds complete in milliseconds; two minutes of
# silence means a wedged pipe, not a slow campaign.
DEFAULT_WORKER_TIMEOUT = 120.0

#: Wall seconds a child that sent its final message gets to exit by itself.
EXIT_GRACE = 10.0


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
    """The worker reported an exception of its own (deterministic; no retry).

    ``detail`` is the report as the child sent it.
    """

    def __init__(self, worker_index, detail):
        self.detail = detail
        super().__init__(worker_index, "failed: %s" % (detail,))


class WorkerProtocolError(WorkerTaskError):
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


def retryable(exc):
    """The one retry rule: only a missed deadline or a dead worker."""
    return failure_category(exc) in ("deadline", "worker-death")


def describe(exc):
    """``"Type: message"``: how failures read in reports, events and journals."""
    return "%s: %s" % (type(exc).__name__, exc)


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


def report_error(send, category, detail):
    """Child side: report a failure as ``("error", category, detail)``.

    ``category`` is a :func:`failure_category` value.  A pipe that is
    already gone is ignored; the parent then sees EOF instead.
    """
    try:
        send(("error", category, detail))
    except Exception:
        pass


def recv_with_deadline(conn, timeout, worker_index, expected=None, during="campaign"):
    """Receive one reply, bounded by ``timeout`` wall seconds.

    ``timeout=None`` waits forever; ``0`` only takes a reply that is already
    there.  ``expected`` is the tag (or tuple of tags) the caller accepts.
    Raises the typed errors documented in the module docstring; ``during``
    names what a dead worker died in the middle of.
    """
    try:
        if timeout is not None and not conn.poll(timeout):
            raise WorkerStallError(
                worker_index,
                "sent no reply within %.1fs (stalled or wedged pipe)" % timeout,
            )
        reply = conn.recv()
    except (EOFError, OSError) as exc:
        raise WorkerDeadError(worker_index, "died mid-%s (%s)" % (during, exc))
    tag = reply[0]
    if tag == "error":
        category, detail = reply[1], reply[2]
        if category == "checkpoint-corrupt":
            raise CheckpointCorruptError(detail)
        if category == "worker-death":
            raise WorkerDeadError(worker_index, detail)
        raise WorkerTaskError(worker_index, detail)
    if isinstance(expected, str):
        expected = (expected,)
    if expected is not None and tag not in expected:
        raise WorkerProtocolError(
            worker_index, "sent %r, expected %r" % (tag, "/".join(expected))
        )
    return reply


class Child:
    """A launched child process and the parent's end of its pipe.

    ``index`` names the child in its errors.  A ``Child`` can be passed to
    :func:`multiprocessing.connection.wait` directly.
    """

    __slots__ = ("proc", "conn", "index")

    def __init__(self, proc, conn, index):
        self.proc = proc
        self.conn = conn
        self.index = index

    def fileno(self):
        return self.conn.fileno()

    def send(self, message):
        try:
            self.conn.send(message)
        except (OSError, ValueError) as exc:
            raise WorkerDeadError(self.index, "pipe closed on send (%s)" % (exc,))

    def recv(self, timeout, expected=None, during="campaign"):
        return recv_with_deadline(self.conn, timeout, self.index, expected, during)

    def request(self, command, timeout, expected):
        """One round trip: send ``command``, return the decoded reply."""
        self.send(command)
        return self.recv(timeout, expected)

    def stop(self, grace=0.0):
        """The one teardown (idempotent).

        Close the pipe, give the child up to ``grace`` seconds to exit by
        itself (pass :data:`EXIT_GRACE` once it sent its final message),
        then SIGTERM, join 5 s and SIGKILL.
        """
        try:
            self.conn.close()
        except Exception:
            pass
        proc = self.proc
        if grace:
            proc.join(grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(5)
        if proc.is_alive():
            proc.kill()
        proc.join(5)


def launch(target, args=(), index=0):
    """Start ``target(conn, *args)`` in a daemon child; return its :class:`Child`.

    Fork is preferred (cheap, inherits built subjects), spawn the fallback.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=target, args=(child_conn,) + tuple(args), daemon=True)
    proc.start()
    child_conn.close()
    return Child(proc, parent_conn, index)


class SupervisedWorker:
    """Parent-side record of one engine worker and its supervision state."""

    __slots__ = (
        "index",
        "child",
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
        self.child = None
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

    def stop(self, grace=0.0):
        """Tear down the current process (idempotent); see :meth:`Child.stop`."""
        if self.child is not None:
            self.child.stop(grace)
            self.child = None

    def __repr__(self):
        return "SupervisedWorker(%d, inc=%d, restarts=%d%s)" % (
            self.index,
            self.incarnation,
            self.restarts,
            "" if self.alive else ", DROPPED",
        )


class Supervisor:
    """Restart-with-backoff supervision over a set of workers.

    ``spawn_fn(worker)`` must launch a fresh :class:`Child` for ``worker``
    (honoring ``worker.incarnation`` and its checkpoint) into
    ``worker.child``; ``replay_fn(worker)`` must bring a just-respawned
    worker back to the current protocol position (resume + deterministic
    replay).  ``stats`` may provide ``record_restart`` / ``record_degraded``
    hooks (:class:`repro.fuzzer.stats.CampaignStats` does).
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
                return worker.child.request(command, self.timeout, expected)
            except WorkerError as exc:
                if not retryable(exc):
                    raise
                self._recover(worker, exc)

    def _recover(self, worker, cause):
        """Stop, back off, respawn, replay — or drop the worker."""
        last_exc = cause
        while True:
            reason = describe(last_exc)
            worker.stop()
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
            except WorkerError as exc:
                # The replacement failed too (e.g. a fault targeting the
                # new incarnation); charge another restart if retryable.
                if not retryable(exc):
                    raise
                last_exc = exc

    def stop_all(self):
        for worker in self.workers:
            worker.stop()
