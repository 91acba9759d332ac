"""Coverage plateau detection.

FuzzPilot-style observation: *when* a feedback mechanism stops producing new
coverage is itself an actionable signal — it separates "still exploring"
from "saturated", and it is exactly what the paper's coverage-over-time
evaluation reads off its plots.  This module detects plateaus two ways:

- :class:`PlateauDetector` consumes a live ``(tick, coverage)`` stream (the
  engine's timeline cadence) and emits :class:`~repro.telemetry.bus.PlateauEvent`
  begin/end transitions onto a bus;
- :func:`detect_plateaus` runs the same rule post-hoc over a completed
  timeline series — this is what populates ``CampaignResult.plateaus``,
  deterministically and with zero run-time cost, even for untraced runs.

The rule: a plateau *begins* once the metric has gone ``window`` virtual
ticks without increasing, and *ends* (retroactively, at the tick of the
gain) when it increases again.  The reported ``start_tick`` is the tick of
the last gain, so a plateau's span measures the full stall.  Plateaus are
measured on virtual ticks — wall time is irrelevant and nondeterministic.
"""


class Plateau:
    """One detected stall: ``[start_tick, end_tick]`` at metric ``value``.

    ``end_tick`` is ``None`` while the plateau is still open (the campaign
    ended inside it).
    """

    __slots__ = ("metric", "start_tick", "end_tick", "value")

    def __init__(self, metric, start_tick, end_tick, value):
        self.metric = metric
        self.start_tick = start_tick
        self.end_tick = end_tick
        self.value = value

    @property
    def open(self):
        return self.end_tick is None

    def duration(self, final_tick=None):
        """Plateau length in ticks (open plateaus measure to ``final_tick``)."""
        end = self.end_tick
        if end is None:
            end = final_tick if final_tick is not None else self.start_tick
        return max(0, end - self.start_tick)

    def _state(self):
        return (self.metric, self.start_tick, self.end_tick, self.value)

    def __eq__(self, other):
        return isinstance(other, Plateau) and self._state() == other._state()

    def __hash__(self):
        return hash(self._state())

    def to_dict(self):
        return {
            "metric": self.metric,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "value": self.value,
        }

    def __repr__(self):
        span = "open" if self.open else "@%d" % self.end_tick
        return "Plateau(%s=%d from %d %s)" % (
            self.metric, self.value, self.start_tick, span)


class PlateauDetector:
    """Streaming plateau detection over one monotone metric.

    ``window`` is the stall threshold in virtual ticks.  ``bus``/``label``
    are optional: when given, begin/end transitions are published as
    :class:`~repro.telemetry.bus.PlateauEvent`.
    """

    def __init__(self, window, metric="coverage", bus=None, label=""):
        if window <= 0:
            raise ValueError("plateau window must be positive")
        self.window = int(window)
        self.metric = metric
        self.bus = bus
        self.label = label
        self.plateaus = []
        self._last_value = None
        self._gain_tick = 0  # tick of the last observed increase
        self._open = None

    @property
    def open_plateau(self):
        """The currently open plateau, or None — the live stall signal."""
        return self._open

    def state(self):
        """Picklable detector state (for engine checkpoints)."""
        return {
            "window": self.window,
            "last_value": self._last_value,
            "gain_tick": self._gain_tick,
            "plateaus": [p._state() for p in self.plateaus],
            "open": (
                self.plateaus.index(self._open)
                if self._open is not None
                else None
            ),
        }

    def set_state(self, state):
        """Adopt a :meth:`state` dict; returns self."""
        self.window = state["window"]
        self._last_value = state["last_value"]
        self._gain_tick = state["gain_tick"]
        self.plateaus = [Plateau(*fields) for fields in state["plateaus"]]
        index = state["open"]
        self._open = self.plateaus[index] if index is not None else None
        return self

    def observe(self, tick, value):
        """Feed one sample; returns a newly *opened* Plateau or None."""
        if self._last_value is None:
            self._last_value = value
            self._gain_tick = tick
            return None
        if value > self._last_value:
            self._last_value = value
            if self._open is not None:
                self._close(tick)
            self._gain_tick = tick
            return None
        if self._open is None and tick - self._gain_tick >= self.window:
            self._open = Plateau(self.metric, self._gain_tick, None, self._last_value)
            self.plateaus.append(self._open)
            self._publish("begin", self._open, tick)
            return self._open
        return None

    def finish(self, tick):
        """End of stream: an open plateau stays open; returns all plateaus.

        No ``end`` event is published for it — the stall never ended, and
        trace readers report a ``begin`` without an ``end`` as open.
        """
        # A stall that never reached the window before the campaign ended is
        # deliberately not promoted: it is indistinguishable from "still
        # exploring" at this sampling horizon.
        return list(self.plateaus)

    def _close(self, tick):
        self._open.end_tick = tick
        self._publish("end", self._open, tick)
        self._open = None

    def _publish(self, phase, plateau, tick):
        if self.bus is None:
            return
        from repro.telemetry.bus import PlateauEvent

        self.bus.publish(
            PlateauEvent(
                self.label, phase, self.metric, plateau.start_tick, tick,
                plateau.value,
            )
        )


def default_window(span_ticks):
    """Stall threshold for a campaign of ``span_ticks``: one eighth.

    One eighth of the budget matches the campaign's native round scale (the
    paper's 6 h rounds in 48 h campaigns, the sync/checkpoint cadence).
    """
    return max(1, int(span_ticks) // 8)


def detect_plateaus(series, window=None, metric="coverage"):
    """Post-hoc plateau detection over ``[(tick, value), ...]`` samples.

    ``window`` defaults to :func:`default_window` of the series' tick span.
    Non-monotone inputs (merged multi-worker timelines) are rectified with a
    running max — progress anywhere counts as progress.  Returns a list of
    :class:`Plateau` (possibly with the last one open).
    """
    samples = sorted(series)
    if len(samples) < 2:
        return []
    span = samples[-1][0] - samples[0][0]
    if span <= 0:
        return []
    detector = PlateauDetector(window or default_window(span), metric=metric)
    envelope = None
    for tick, value in samples:
        envelope = value if envelope is None else max(envelope, value)
        detector.observe(tick, envelope)
    return detector.finish(samples[-1][0])
