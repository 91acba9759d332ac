"""The telemetry event bus: typed events, ring retention, pluggable sinks.

One process-local :class:`TelemetryBus` carries every observability event a
campaign produces — worker progress samples, corpus-sync rounds, supervised
restarts, matrix-cell completions, metric snapshots, spans, and plateau
transitions.  Producers construct a *typed* event (below; each kind is a
declarative schema, see :class:`TelemetryEvent`) and ``publish`` it; the
bus keeps the most recent events in a bounded ring (tests and the live
TTY view read it back) and forwards each event to every attached sink:

``NullSink``
    discards everything — the hot-path default, so producers never branch on
    "is telemetry on?".
``LogSink``
    mirrors events onto the stdlib loggers with the exact line formats the
    legacy :mod:`repro.fuzzer.stats` logging used, so ``--verbose`` output
    is unchanged.
``JsonlSink``
    appends one JSON object per event to a trace file, with buffered writes
    and atomic size-based rotation (``path`` -> ``path.1`` via ``os.replace``).
``TTYSink``
    human one-liners to a stream (stderr by default) for live watching.

The bus is determinism-neutral by construction: publishing reads the wall
clock but never touches the virtual clock, the campaign RNG, or any engine
state, so a traced campaign is field-for-field equal to an untraced one.

Reloading a trace is tolerant: :func:`read_trace` skips lines that are torn
or malformed (a crashed writer must not take the report down with it) and
returns how many it skipped.
"""

import json
import logging
import os
import time
from collections import deque

#: Default number of events the in-memory ring retains.
DEFAULT_RING_CAPACITY = 4096

#: Default JSONL rotation threshold (bytes).  64 MiB of events is far more
#: than any laptop-scale campaign produces; rotation exists so unattended
#: long campaigns cannot fill a disk.
DEFAULT_ROTATE_BYTES = 64 * 1024 * 1024


# -- typed events --------------------------------------------------------------

#: ``kind`` -> event class; every :class:`TelemetryEvent` subclass registers.
EVENT_TYPES = {}


def _dict_copy(value):
    return dict(value) if value else {}


def outcome_label(solved, flipped):
    """A concolic attempt's outcome: ``flipped``, ``solved`` or ``unsolved``."""
    return "flipped" if flipped else ("solved" if solved else "unsolved")


class TelemetryEvent:
    """Base event: a ``kind`` tag, a field schema, and a wall-clock stamp.

    A kind is declared, not coded.  Its class sets:

    ``__slots__``
        the ordered field names: the positional constructor order and the
        payload and ``repr`` order.  ``wall`` (seconds since the epoch,
        stamped at construction unless given) follows the last field.
    ``defaults``
        field -> default value; a field without one is required.
    ``convert``
        field -> function applied to the constructor argument (the
        defensive copies of container fields).
    ``encode``
        field -> function applied to the value in :meth:`payload`.
    ``log``
        ``(level, %-format, field names)`` of the :class:`LogSink` line on
        the ``log_name`` logger, or None when the kind is not logged.
    ``line``
        ``(%-format, field names)`` of the one-line TTY rendering.

    A template's field names may also name zero-argument methods, which are
    called.  The constructor, :meth:`payload`/:meth:`to_dict`,
    :meth:`from_dict` and ``repr`` are generic.
    """

    kind = "event"
    __slots__ = ("wall",)
    fields = ()
    defaults = {}
    convert = {}
    encode = {}
    log = None
    log_name = "repro.fuzzer.parallel"
    line = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.fields = cls.__dict__.get("__slots__", ())
        EVENT_TYPES[cls.kind] = cls

    def __init__(self, *args, **kwargs):
        cls = type(self)
        params = cls.fields + ("wall",)
        if len(args) > len(params):
            raise TypeError(
                "%s takes at most %d arguments (%d given)"
                % (cls.__name__, len(params), len(args))
            )
        values = dict(zip(params, args))
        for name, value in kwargs.items():
            if name not in params or name in values:
                raise TypeError(
                    "%s got an unexpected or repeated argument %r"
                    % (cls.__name__, name)
                )
            values[name] = value
        for name in cls.fields:
            if name in values:
                value = values[name]
            elif name in cls.defaults:
                value = cls.defaults[name]
            else:
                raise TypeError(
                    "%s missing required argument %r" % (cls.__name__, name)
                )
            convert = cls.convert.get(name)
            setattr(self, name, value if convert is None else convert(value))
        wall = values.get("wall")
        self.wall = time.time() if wall is None else wall

    @classmethod
    def from_dict(cls, data):
        """Rebuild from :meth:`to_dict` output (a missing field: its default)."""
        values = {name: data.get(name, cls.defaults.get(name)) for name in cls.fields}
        return cls(wall=data.get("wall", 0), **values)

    def payload(self):
        """Fields as a plain dict in schema order (no ``kind``/``wall``)."""
        encode = self.encode
        out = {}
        for name in self.fields:
            value = getattr(self, name)
            out[name] = encode[name](value) if name in encode else value
        return out

    def to_dict(self):
        data = {"kind": self.kind, "wall": self.wall}
        data.update(self.payload())
        return data

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.payload())

    def _values(self, names):
        values = []
        for name in names.split():
            value = getattr(self, name)
            values.append(value() if callable(value) else value)
        return tuple(values)

    def log_record(self):
        """``(level, format, args)`` of this event's log line, or None."""
        if self.log is None:
            return None
        level, fmt, names = self.log
        return level, fmt, self._values(names)

    def tty_line(self):
        """This event as one human-readable line."""
        fmt, names = self.line
        return fmt % self._values(names)


class CampaignEvent(TelemetryEvent):
    """Campaign lifecycle: ``action`` is ``"begin"`` or ``"end"``."""

    kind = "campaign"
    __slots__ = ("action", "subject", "config", "run_seed", "workers", "budget")
    defaults = {"workers": 1, "budget": 0}
    line = (
        "[campaign %s] %s/%s#%s workers=%s",
        "action subject config run_seed workers",
    )


class WorkerProgressEvent(TelemetryEvent):
    """One per-worker progress sample taken at a sync barrier.

    ``elapsed`` is wall seconds since the campaign started; ``queue`` the
    worker's queue size.
    """

    kind = "worker_progress"
    __slots__ = (
        "label",
        "worker",
        "tick",
        "execs",
        "queue",
        "crashes",
        "hangs",
        "coverage",
        "elapsed",
    )
    defaults = {"coverage": 0, "elapsed": 0.0}
    log = (
        logging.INFO,
        "%s worker %d @tick %d: %d execs (%.0f/vh, %.0f/s), queue %d, %d crashes",
        "label worker tick execs execs_per_vhour execs_per_sec queue crashes",
    )
    line = (
        "[w%s @%s] execs=%s queue=%s crashes=%s coverage=%s",
        "worker tick execs queue crashes coverage",
    )

    def execs_per_vhour(self):
        """Executions per virtual hour so far (0 before the first tick)."""
        if self.tick <= 0:
            return 0.0
        return self.execs / (self.tick / _ticks_per_hour())

    def execs_per_sec(self):
        """Executions per wall-clock second so far (0 before any wall time)."""
        if self.elapsed <= 0:
            return 0.0
        return self.execs / self.elapsed


class SyncRoundEvent(TelemetryEvent):
    """One corpus-sync round: offers, acceptances, per-worker imports."""

    kind = "sync"
    __slots__ = ("label", "tick", "offered", "accepted", "imported", "elapsed")
    defaults = {"imported": (), "elapsed": 0.0}
    convert = {"imported": tuple}
    encode = {"imported": list}
    log = (
        logging.INFO,
        "%s sync @tick %d: %d offered, %d accepted into shared corpus",
        "label tick offered accepted",
    )
    line = ("[sync @%s] offered=%s accepted=%s", "tick offered accepted")


class WorkerRestartEvent(TelemetryEvent):
    """One supervised worker restart (death/stall -> backoff -> respawn).

    ``attempt`` is the worker's 1-based restart count.
    """

    kind = "restart"
    __slots__ = ("label", "worker", "attempt", "reason", "delay", "elapsed")
    defaults = {"elapsed": 0.0}
    log = (
        logging.WARNING,
        "%s worker %d restart #%d after %.2gs backoff: %s",
        "label worker attempt delay reason",
    )
    line = ("[restart w%s #%s] %s", "worker attempt reason")


class WorkerDroppedEvent(TelemetryEvent):
    """A worker/job was dropped and the campaign degraded.

    ``reason`` stays the human-readable exception string; ``cause`` is the
    machine-readable degradation category (``"restart-budget"``,
    ``"deadline"``, ``"checkpoint-corrupt"``, ...) and ``detail`` carries
    the category of the underlying failure (e.g. the typed
    ``CheckpointError`` family name) so dashboards can group drops by *why*
    instead of parsing strings.
    """

    kind = "degraded"
    __slots__ = ("label", "worker", "reason", "cause", "detail")
    defaults = {"cause": "unknown", "detail": None}
    log = (
        logging.WARNING,
        "%s worker %d dropped (campaign degraded): %s",
        "label worker reason",
    )
    line = ("[degraded w%s] %s: %s", "worker cause reason")


class CellEvent(TelemetryEvent):
    """One matrix cell finished (ok / error / crashed / timeout).

    ``secs`` is the cell's wall time, ``restarts`` the supervised retries
    consumed before this outcome, ``done``/``total`` the matrix progress.
    """

    kind = "cell"
    __slots__ = ("key", "status", "secs", "execs", "restarts", "done", "total")
    defaults = {"execs": 0, "restarts": 0, "done": 0, "total": 0}
    encode = {"key": str}
    log = (
        logging.INFO,
        "cell %s: %s in %.1fs (%d/%s done)",
        "key status secs done total_label",
    )
    line = ("[cell %s] %s in %.1fs", "key status secs")

    def total_label(self):
        return self.total or "?"


class CellRetryEvent(TelemetryEvent):
    """A matrix cell failed transiently and will be restarted after a delay."""

    kind = "cell_retry"
    __slots__ = ("key", "attempt", "failure", "delay")
    encode = {"key": str}
    log = (
        logging.WARNING,
        "cell %s: %s; retry #%d after %.2gs backoff",
        "key failure attempt delay",
    )
    line = ("[cell %s] retry #%s: %s", "key attempt failure")


class SpanEvent(TelemetryEvent):
    """One closed span (coarse stages only; hot spans aggregate instead)."""

    kind = "span"
    __slots__ = ("name", "secs", "tick", "attrs")
    defaults = {"tick": None, "attrs": None}
    convert = {"attrs": _dict_copy}
    line = ("[span %s] %.4fs", "name secs")


class MetricsSnapshotEvent(TelemetryEvent):
    """Periodic dump of the metrics registry (see :mod:`.metrics`)."""

    kind = "metrics"
    __slots__ = ("label", "tick", "metrics")
    line = ("[metrics @%s] %s", "tick counter_list")

    def counter_list(self):
        counters = (self.metrics or {}).get("counters", {})
        return " ".join("%s=%s" % kv for kv in sorted(counters.items()))


class PlateauEvent(TelemetryEvent):
    """Coverage stopped (``phase="begin"``) or resumed (``phase="end"``).

    A plateau still open when the campaign ends has no ``end`` event.
    """

    kind = "plateau"
    __slots__ = ("label", "phase", "metric", "start_tick", "tick", "value")

    @property
    def log(self):
        if self.phase == "begin":
            return (
                logging.INFO,
                "%s %s plateau since tick %d (value %d)",
                "label metric start_tick value",
            )
        return (
            logging.INFO,
            "%s %s plateau ended at tick %d after %d ticks",
            "label metric tick duration",
        )

    @property
    def line(self):
        if self.phase == "begin":
            return ("[plateau] %s flat since tick %s", "metric start_tick")
        return ("[plateau] %s resumed at tick %s", "metric tick")

    def duration(self):
        return self.tick - self.start_tick


class StoreEvent(TelemetryEvent):
    """One durable-workspace operation (see :mod:`repro.fuzzer.store`).

    ``action`` is ``"scan"`` (tolerant recovery scan of one ``artifact``
    kind, ``"queue"`` | ``"crashes"`` | ``"hangs"``: ``entries`` survivors,
    ``quarantined`` files moved aside) — the counter the acceptance criteria
    watch: damage must surface here, never as a campaign failure.  Only a
    scan that quarantined something is logged.
    """

    kind = "store"
    __slots__ = ("action", "worker", "artifact", "entries", "quarantined")
    defaults = {"artifact": None, "entries": 0, "quarantined": 0}
    line = (
        "[store %s %s/%s] entries=%s quarantined=%s",
        "action worker artifact entries quarantined",
    )

    @property
    def log(self):
        if not self.quarantined:
            return None
        return (
            logging.WARNING,
            "%s store scan %s: %d entries, %d quarantined",
            "worker artifact entries quarantined",
        )


class TaintEvent(TelemetryEvent):
    """One rare-branch target selected by the taint-guided masked stage.

    ``index``/``rarity`` locate the branch in coverage-map terms (how many
    queue entries cover it); ``site`` is its ``function:block`` source
    position; ``focus``/``frozen`` are the byte-mask sizes the masked
    mutators will concentrate on / hold fixed.  Published once per target
    selection (a handful per queue cycle), never per masked execution —
    per-exec taint counters ride the periodic metrics snapshots instead.
    """

    kind = "taint"
    __slots__ = ("label", "tick", "index", "rarity", "site", "focus", "frozen")
    line = (
        "[taint @%s] idx=%s rarity=%s site=%s focus=%sB frozen=%sB",
        "tick index rarity site focus frozen",
    )


class ConcolicEvent(TelemetryEvent):
    """One solve attempt of the plateau-triggered concolic stage.

    ``index``/``rarity``/``site`` locate the escalated branch exactly as
    :class:`TaintEvent` does; ``support`` is how many input bytes the
    flipped guard's expression reads; ``nodes`` the solver search nodes
    spent; ``solved`` whether a witness assignment was found; ``flipped``
    whether replaying it actually took the branch's other arm.  Published
    once per solve attempt (a handful per stalled queue cycle).
    """

    kind = "concolic"
    __slots__ = (
        "label",
        "tick",
        "index",
        "rarity",
        "site",
        "support",
        "nodes",
        "solved",
        "flipped",
    )
    line = (
        "[concolic @%s] idx=%s site=%s support=%sB nodes=%s %s",
        "tick index site support nodes outcome",
    )

    def outcome(self):
        return outcome_label(self.solved, self.flipped)


class ServiceEvent(TelemetryEvent):
    """One campaign-service operation (see :mod:`repro.service`).

    ``action`` names the lifecycle step (``"recover"``, ``"submit"``,
    ``"start"``, ``"retry"``, ``"done"``, ``"degrade"``, ``"cancel"``,
    ``"breaker"``) or a multi-host event (``"fenced"`` — this service
    was displaced or quarantined a predecessor's late write;
    ``"intake"``/``"refuse"`` — a live request file was settled;
    ``"compact"`` — the journal folded into a snapshot); ``job``/
    ``tenant`` locate it; ``detail`` is a short human string and ``data``
    a small JSON-safe dict of action-specific numbers (journal seq,
    fencing epoch, dedupe counts, backlog, ...).
    """

    kind = "service"
    __slots__ = ("action", "job", "tenant", "detail", "data")
    defaults = {"job": None, "tenant": None, "detail": None, "data": None}
    convert = {"data": _dict_copy}
    log_name = "repro.service"
    log = (logging.INFO, "service %s: job=%s tenant=%s %s", "action job tenant note")
    line = ("[service %s] job=%s tenant=%s %s", "action job tenant note")

    def note(self):
        return self.detail or ""


# -- sinks ---------------------------------------------------------------------


class NullSink:
    """Discards every event: the zero-cost default for hot paths."""

    def emit(self, event):
        pass

    def close(self):
        pass


class LogSink:
    """Mirrors events to stdlib loggers through each kind's ``log`` template.

    This is what re-bases :mod:`repro.fuzzer.stats` on the bus without
    changing a single ``--verbose`` output line: the stats recorders publish
    typed events, and this sink renders them exactly as their old direct
    ``logger.info``/``warning`` calls did.
    """

    def emit(self, event):
        record = event.log_record()
        if record is not None:
            level, fmt, args = record
            logging.getLogger(event.log_name).log(level, fmt, *args)

    def close(self):
        pass


def _ticks_per_hour():
    from repro.fuzzer.clock import TICKS_PER_HOUR

    return TICKS_PER_HOUR


class JsonlSink:
    """Buffered JSONL writer with atomic size-based rotation.

    Rotation keeps exactly one archive: when the live file would exceed
    ``rotate_bytes`` it is atomically renamed to ``<path>.1`` (clobbering a
    previous archive) and a fresh file is started.  Writes are buffered and
    flushed every ``flush_every`` events (and on ``close``).

    The sink remembers the PID that created it: after a ``fork`` the child
    inherits the open file object, and two processes appending to one stream
    tear lines.  A forked child's emits are therefore dropped silently —
    worker entry points install their own per-worker sink (see
    :func:`repro.telemetry.child_trace`).
    """

    def __init__(self, path, rotate_bytes=DEFAULT_ROTATE_BYTES, flush_every=64):
        self.path = path
        self.rotate_bytes = int(rotate_bytes)
        self.flush_every = max(1, int(flush_every))
        self._pid = os.getpid()
        self._pending = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event):
        if self._handle is None or os.getpid() != self._pid:
            return
        line = json.dumps(event.to_dict(), separators=(",", ":"), sort_keys=True)
        self._handle.write(line + "\n")
        self._pending += 1
        if self._pending >= self.flush_every:
            self.flush()
            if self._handle.tell() >= self.rotate_bytes:
                self._rotate()

    def flush(self):
        if self._handle is not None:
            self._handle.flush()
            self._pending = 0

    def _rotate(self):
        """Atomically archive the live file and start a fresh one."""
        self._handle.close()
        os.replace(self.path, self.path + ".1")
        self._handle = open(self.path, "a", encoding="utf-8")

    def close(self):
        if self._handle is not None and os.getpid() == self._pid:
            self.flush()
            self._handle.close()
        self._handle = None


class TTYSink:
    """Human one-liners to a stream (stderr by default) for live watching."""

    def __init__(self, stream=None):
        import sys

        self.stream = stream if stream is not None else sys.stderr

    def emit(self, event):
        try:
            self.stream.write(format_event_line(event.to_dict()) + "\n")
        except (OSError, ValueError):
            pass

    def close(self):
        pass


def format_event_line(data):
    """One-line human rendering of an event dict (TTY sink and tail view).

    Kinds this version does not know, and events too malformed for their
    template, render as the raw dict.
    """
    kind = data.get("kind", "?")
    cls = EVENT_TYPES.get(kind)
    if cls is not None:
        try:
            return cls.from_dict(data).tty_line()
        except (TypeError, ValueError):
            pass
    return "[%s] %r" % (kind, data)


# -- the bus -------------------------------------------------------------------


class TelemetryBus:
    """Process-local fan-out of telemetry events to a ring and to sinks."""

    def __init__(self, capacity=DEFAULT_RING_CAPACITY):
        self._ring = deque(maxlen=capacity)
        self.sinks = []

    def attach(self, sink):
        """Attach a sink; returns it (for later :meth:`detach`/close)."""
        self.sinks.append(sink)
        return sink

    def detach(self, sink):
        if sink in self.sinks:
            self.sinks.remove(sink)

    def publish(self, event):
        """Record ``event`` in the ring and forward it to every sink."""
        self._ring.append(event)
        for sink in self.sinks:
            sink.emit(event)
        return event

    def recent(self, kind=None):
        """Ring contents, optionally filtered by event kind (oldest first)."""
        if kind is None:
            return list(self._ring)
        return [event for event in self._ring if event.kind == kind]

    def clear(self):
        self._ring.clear()

    def flush(self):
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()

    def close(self):
        """Close every sink and detach them all (the ring is kept)."""
        for sink in self.sinks:
            sink.close()
        self.sinks = []


# The process-global bus: stats recorders publish here by default, and a
# LogSink preserves the legacy logger mirroring unconditionally (visibility
# is still governed by logging levels, exactly as before).
_GLOBAL_BUS = None


def get_bus():
    """The process-global bus (lazily created with the LogSink attached)."""
    global _GLOBAL_BUS
    if _GLOBAL_BUS is None:
        _GLOBAL_BUS = TelemetryBus()
        _GLOBAL_BUS.attach(LogSink())
    return _GLOBAL_BUS


# -- trace reload --------------------------------------------------------------


def read_trace(path, include_rotated=True):
    """Load a JSONL trace tolerantly.

    Returns ``(events, skipped)``: ``events`` is a list of plain dicts in
    file order (the rotated archive ``<path>.1``, when present, is read
    first so the sequence stays chronological); ``skipped`` counts torn or
    malformed lines that were ignored.
    """
    paths = []
    if include_rotated and os.path.exists(path + ".1"):
        paths.append(path + ".1")
    paths.append(path)
    events = []
    skipped = 0
    for name in paths:
        try:
            handle = open(name, encoding="utf-8")
        except OSError:
            continue
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except ValueError:
                    skipped += 1
                    continue
                if not isinstance(data, dict) or "kind" not in data:
                    skipped += 1
                    continue
                events.append(data)
    return events, skipped
