"""Telemetry subsystem tests: bus, sinks, metrics, plateaus, render, CLI.

The load-bearing assertions are the determinism contract (a traced campaign
is field-for-field equal to an untraced one) and the rate/bucket edge cases
the ISSUE calls out: ``execs_per_vhour`` at ``tick <= 0``, histogram
``le`` bucket boundaries, plateau detection on degenerate series, and
JSONL sink rotation plus malformed-line tolerance on reload.
"""

import json
import logging
import os

import pytest

from repro.cli import main
from repro.fuzzer.stats import CampaignStats, MatrixProgress
from repro.subjects import get_subject
from repro.telemetry import engine_telemetry, start_trace
from repro.telemetry.bus import (
    CampaignEvent,
    JsonlSink,
    LogSink,
    NullSink,
    PlateauEvent,
    SpanEvent,
    TelemetryBus,
    WorkerProgressEvent,
    format_event_line,
    read_trace,
)
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    diff_snapshots,
)
from repro.telemetry.plateau import (
    Plateau,
    PlateauDetector,
    default_window,
    detect_plateaus,
)
from repro.telemetry.trace import EngineTelemetry, SpanTracer


# -- bus -----------------------------------------------------------------------


def test_bus_publishes_to_sinks_and_ring():
    bus = TelemetryBus(capacity=4)
    seen = []

    class ListSink:
        def emit(self, event):
            seen.append(event)

        def close(self):
            pass

    sink = bus.attach(ListSink())
    events = [SpanEvent("s%d" % i, 0.1) for i in range(6)]
    for event in events:
        bus.publish(event)
    assert seen == events
    # Ring keeps only the newest `capacity` events.
    assert list(bus.recent()) == events[-4:]
    bus.detach(sink)
    bus.publish(SpanEvent("after", 0.0))
    assert len(seen) == 6


def test_bus_survives_null_sink_and_clear():
    bus = TelemetryBus()
    bus.attach(NullSink())
    bus.publish(CampaignEvent("begin", "gdk", "path", 0))
    assert len(bus.recent()) == 1
    bus.clear()
    assert list(bus.recent()) == []


def test_event_round_trips_through_dict():
    event = WorkerProgressEvent(
        "lbl", 2, tick=100, execs=50, queue=3, crashes=1, hangs=0,
        coverage=7, elapsed=1.5,
    )
    data = event.to_dict()
    assert data["kind"] == "worker_progress"
    assert data["worker"] == 2 and data["coverage"] == 7
    # Every event renders to a one-line TTY string.
    assert "w2" in format_event_line(data)


# -- JSONL sink: rotation, reload, malformed tolerance -------------------------


def test_jsonl_sink_writes_and_reloads(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path, flush_every=1)
    for i in range(5):
        sink.emit(SpanEvent("step", float(i)))
    sink.close()
    events, skipped = read_trace(path)
    assert skipped == 0
    assert [e["kind"] for e in events] == ["span"] * 5
    assert [e["secs"] for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_jsonl_sink_rotates_atomically(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path, rotate_bytes=256, flush_every=1)
    for i in range(50):
        sink.emit(SpanEvent("rot", float(i)))
    sink.close()
    assert os.path.exists(path + ".1")
    events, skipped = read_trace(path)
    # One archive generation is kept: the merged view is the archive then
    # the live file — a contiguous, ordered tail ending at the last emit.
    assert skipped == 0
    secs = [e["secs"] for e in events]
    assert secs == sorted(secs)
    assert secs[-1] == 49.0
    assert secs == [float(i) for i in range(50 - len(secs), 50)]
    live_events, _ = read_trace(path, include_rotated=False)
    assert len(live_events) < len(events)


def test_read_trace_tolerates_malformed_lines(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    good = json.dumps({"kind": "span", "name": "x", "secs": 0.5, "wall": 1.0})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(good + "\n")
        handle.write("{truncated...\n")
        handle.write("not json at all\n")
        handle.write(good + "\n")
        handle.write("[1, 2, 3]\n")  # JSON but not an event object
    events, skipped = read_trace(path)
    assert len(events) == 2
    assert skipped == 3


def test_jsonl_sink_ignores_forked_children(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlSink(path, flush_every=1)
    sink.emit(SpanEvent("parent", 1.0))
    sink._pid = os.getpid() + 1  # simulate inheritance across fork
    sink.emit(SpanEvent("child", 2.0))
    sink._pid = os.getpid()
    sink.close()
    events, _ = read_trace(path)
    assert [e["name"] for e in events] == ["parent"]


# -- metrics -------------------------------------------------------------------


def test_histogram_bucket_boundaries_are_le():
    h = Histogram("h", bounds=(1.0, 2.0, 4.0))
    h.observe(1.0)   # == bound -> that bucket (le semantics)
    h.observe(1.5)
    h.observe(2.0)
    h.observe(4.0001)  # above the last bound -> overflow
    assert h.counts == [1, 2, 0, 1]
    assert h.count == 4
    assert h.mean() == pytest.approx((1.0 + 1.5 + 2.0 + 4.0001) / 4)


def test_histogram_quantile_and_merge():
    h = Histogram("h", bounds=(1.0, 2.0, 4.0))
    assert h.quantile(0.5) == 0.0  # empty
    for value in (0.5, 0.5, 3.0, 100.0):
        h.observe(value)
    assert h.quantile(0.5) == 1.0
    assert h.quantile(1.0) == 4.0  # overflow reports the last bound
    other = Histogram("h", bounds=(1.0, 2.0, 4.0))
    other.observe(1.5)
    h.merge(other)
    assert h.count == 5
    with pytest.raises(ValueError):
        h.merge(Histogram("x", bounds=(1.0,)))


def test_registry_snapshot_and_diff():
    reg = MetricsRegistry()
    reg.counter("execs").inc(10)
    reg.gauge("coverage").set(7)
    reg.histogram("span.execute").observe(0.001)
    snap1 = reg.snapshot()
    reg.counter("execs").inc(5)
    snap2 = reg.snapshot()
    assert diff_snapshots(snap1, snap2)["execs"] == 5
    # Resume boundary: the counter shrank, so the delta restarts from zero.
    resumed = {"counters": {"execs": 3}}
    assert diff_snapshots(snap2, resumed)["execs"] == 3
    assert snap1["gauges"]["coverage"] == 7
    assert snap1["histograms"]["span.execute"]["count"] == 1


# -- rate math edge cases ------------------------------------------------------


def test_worker_sample_rates_at_zero_denominators(caplog):
    cases = [
        (dict(tick=0, execs=100, elapsed=0.0), 0.0, 0.0, "(0/vh, 0/s)"),
        (dict(tick=-5, execs=100, elapsed=-1.0), 0.0, 0.0, "(0/vh, 0/s)"),
        (dict(tick=400_000, execs=100, elapsed=2.0), 100.0, 50.0,
         "(100/vh, 50/s)"),
    ]
    sink = LogSink()
    for fields, vhour, per_sec, logged in cases:
        event = WorkerProgressEvent("lbl", 0, queue=1, crashes=0, hangs=0,
                                    **fields)
        assert event.execs_per_vhour() == pytest.approx(vhour)
        assert event.execs_per_sec() == pytest.approx(per_sec)
        # The LogSink worker line prints these same rates.
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="repro.fuzzer.parallel"):
            sink.emit(event)
        assert [r.getMessage() for r in caplog.records] == [
            "lbl worker 0 @tick %d: 100 execs %s, queue 1, 0 crashes"
            % (fields["tick"], logged)
        ]


# -- plateau detection ---------------------------------------------------------


def test_detect_plateaus_degenerate_series():
    assert detect_plateaus([]) == []
    assert detect_plateaus([(100, 5)]) == []
    assert detect_plateaus([(100, 5), (100, 5)]) == []  # zero span


def test_detect_plateaus_constant_series_is_one_open_plateau():
    series = [(i * 100, 10) for i in range(9)]  # span 800, window 100
    plateaus = detect_plateaus(series)
    assert len(plateaus) == 1
    assert plateaus[0] == Plateau("coverage", 0, None, 10)
    assert plateaus[0].open


def test_detect_plateaus_strictly_increasing_has_none():
    series = [(i * 100, i) for i in range(9)]
    assert detect_plateaus(series) == []


def test_detect_plateaus_closes_on_gain_and_rectifies_merges():
    # Stall from tick 100 to 500, then gain; merged multi-worker series are
    # non-monotone, so the running-max envelope must absorb the dip at 300.
    series = [(0, 1), (100, 5), (200, 5), (300, 2), (400, 5), (500, 6),
              (600, 6)]
    plateaus = detect_plateaus(series, window=150)
    assert plateaus == [Plateau("coverage", 100, 500, 5)]
    assert plateaus[0].duration() == 400


def test_plateau_detector_publishes_begin_and_end_events():
    bus = TelemetryBus()
    detector = PlateauDetector(window=10, bus=bus, label="w0")
    for tick, value in [(0, 1), (10, 1), (20, 1), (30, 2)]:
        detector.observe(tick, value)
    detector.finish(30)
    phases = [e.phase for e in bus.recent() if isinstance(e, PlateauEvent)]
    assert phases == ["begin", "end"]
    assert detector.plateaus == [Plateau("coverage", 0, 30, 1)]


def test_plateau_detector_rejects_bad_window():
    with pytest.raises(ValueError):
        PlateauDetector(window=0)
    assert default_window(800) == 100
    assert default_window(4) == 1


# -- span tracer & engine telemetry --------------------------------------------


def test_span_tracer_records_histograms_and_events():
    bus = TelemetryBus()
    tracer = SpanTracer(bus=bus)
    with tracer.span("sync_round", tick=42):
        pass
    tracer.observe("execute", 0.001)  # hot path: histogram only, no event
    names = [e.name for e in bus.recent() if isinstance(e, SpanEvent)]
    assert names == ["sync_round"]
    assert tracer.registry.histogram("span.sync_round").count == 1
    assert tracer.registry.histogram("span.execute").count == 1


def test_engine_telemetry_counts_and_plateaus(caplog):
    class FakeResult:
        def __init__(self, timeout=False, trap=None):
            self.instr_count = 10
            self.timeout = timeout
            self.trap = trap

    bus = TelemetryBus()
    bus.attach(LogSink())
    tel = EngineTelemetry(bus=bus, label="t").begin(budget_ticks=800)
    tel.record_exec(0.001, FakeResult())
    tel.record_exec(0.001, FakeResult(timeout=True))
    tel.record_exec(0.001, FakeResult(trap="overflow"))
    tel.record_stage("mutate", 0.0005)
    tel.record_queued()
    tel.record_skipped()
    with caplog.at_level(logging.INFO, logger="repro.fuzzer.parallel"):
        for tick in (0, 200, 400, 600, 800):
            tel.sample(tick, coverage=5, queue_size=1, crashes=1, execs=3)
        tel.finish(800)
        tel.finish(800)  # idempotent: the second call publishes nothing
    reg = tel.registry
    assert reg.counter("execs").value == 3
    assert reg.counter("hangs").value == 1
    assert reg.counter("crashes").value == 1
    assert reg.counter("instrs").value == 30
    assert reg.histogram("span.mutate").count == 1
    assert len(tel.plateaus()) == 1 and tel.plateaus()[0].open
    # The plateau is still open at the end, so no "end" event is published
    # and the rendered trace reports it as open.
    ends = [e for e in bus.recent()
            if isinstance(e, PlateauEvent) and e.phase == "end"]
    assert len(ends) == 0
    assert "t coverage plateau since tick 0 (value 5)" in caplog.text
    assert "plateau ended" not in caplog.text
    from repro.telemetry import render

    events = [e.to_dict() for e in bus.recent()]
    assert "  plateau: coverage 5 flat from tick 0 (open)" in (
        render.summarize(events))
    assert "| 0 | open | 5 |" in render.render_markdown(events)


# -- determinism contract ------------------------------------------------------


def test_traced_campaign_equals_untraced(tmp_path):
    from repro.experiments.config import run_config

    subject = get_subject("flvmeta")
    budget = 50_000
    plain = run_config(subject, "pcguard", 0, budget)
    bus = TelemetryBus()
    bus.attach(JsonlSink(str(tmp_path / "t.jsonl"), flush_every=1))
    telemetry = EngineTelemetry(bus=bus, label="x").begin(budget)
    traced = run_config(subject, "pcguard", 0, budget, telemetry=telemetry)
    bus.close()
    assert plain == traced
    assert plain.plateaus == traced.plateaus
    assert os.path.getsize(str(tmp_path / "t.jsonl")) > 0


def test_campaign_result_exposes_plateaus():
    from repro.experiments.config import run_config

    subject = get_subject("flvmeta")
    result = run_config(subject, "pcguard", 0, 100_000)
    assert isinstance(result.plateaus, tuple)
    for plateau in result.plateaus:
        assert plateau.metric == "coverage"
        assert plateau.start_tick >= 0


# -- stats-on-the-bus back-compat ----------------------------------------------


def test_campaign_stats_publishes_typed_events():
    bus = TelemetryBus()
    stats = CampaignStats(label="gdk/path#0", bus=bus)
    stats.record_worker(0, tick=100, execs=10, queue_size=2, crashes=0,
                        coverage=4)
    stats.record_sync(200, offered=3, accepted=1,
                      imported_per_worker=[(0, 1)])
    stats.record_restart(1, attempt=1, reason="crash", delay=0.5)
    stats.record_degraded(1, reason="restart budget exhausted")
    kinds = [type(e).__name__ for e in bus.recent()]
    assert kinds == ["WorkerProgressEvent", "SyncRoundEvent",
                     "WorkerRestartEvent", "WorkerDroppedEvent"]
    assert stats.restart_counts(workers=2) == (0, 1)
    assert any("degraded" in line for line in stats.summary_lines())


def test_campaign_stats_log_sink_mirrors_legacy_lines(caplog):
    # The default bus carries a LogSink that reproduces the historical
    # logger output, so pre-bus consumers of the log stream see no change.
    stats = CampaignStats(label="gdk/path#0")
    with caplog.at_level(logging.INFO, logger="repro.fuzzer.parallel"):
        stats.record_worker(0, tick=100, execs=10, queue_size=2, crashes=0)
        stats.record_restart(1, attempt=1, reason="crash", delay=0.5)
    text = caplog.text
    assert "worker 0 @tick 100" in text
    assert "worker 1 restart #1" in text


def test_matrix_progress_publishes_cell_events():
    bus = TelemetryBus()
    progress = MatrixProgress(total=2, bus=bus)
    progress.record_cell(("gdk", "path", 0), "ok", 1.0, execs=10)
    progress.record_retry(("gdk", "path", 1), attempt=1,
                          kind="crashed", delay=0.1)
    kinds = [e.kind for e in bus.recent()]
    assert kinds == ["cell", "cell_retry"]


# -- env-driven activation -----------------------------------------------------


def test_engine_telemetry_disabled_without_trace_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert engine_telemetry(label="x") is None


def test_engine_telemetry_enabled_by_trace_env(tmp_path, monkeypatch):
    import repro.telemetry as tel

    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_TRACE", path)
    bus = TelemetryBus()
    # Route the "global" bus to a private one so the test stays hermetic.
    monkeypatch.setattr(tel, "get_bus", lambda: bus)
    telemetry = tel.engine_telemetry(label="x", budget_ticks=800)
    assert telemetry is not None
    assert any(isinstance(s, JsonlSink) for s in bus.sinks)
    # Idempotent: a second engine on the same bus adds no second sink.
    tel.engine_telemetry(label="y", budget_ticks=800)
    assert sum(isinstance(s, JsonlSink) for s in bus.sinks) == 1
    bus.close()
    assert os.path.exists(path)


def test_start_trace_suffix_derives_sibling_files(tmp_path, monkeypatch):
    path = str(tmp_path / "trace.jsonl")
    bus = TelemetryBus()
    sink = start_trace(path, suffix="w3", bus=bus)
    sink.emit(SpanEvent("x", 0.0))
    bus.close()
    assert os.path.exists(str(tmp_path / "trace.w3.jsonl"))


# -- renderer ------------------------------------------------------------------


def _synthetic_trace(tmp_path):
    path = str(tmp_path / "synthetic.jsonl")
    bus = TelemetryBus()
    sink = bus.attach(JsonlSink(path, flush_every=1))
    bus.publish(CampaignEvent("begin", "gdk", "path", 0, workers=2,
                              budget=1000))
    for worker in range(2):
        for tick in (250, 500, 750, 1000):
            bus.publish(WorkerProgressEvent(
                "gdk/path#0", worker, tick=tick, execs=tick // 10,
                queue=3, crashes=worker, hangs=0, coverage=tick // 100,
                elapsed=tick / 1000.0,
            ))
    bus.publish(SpanEvent("sync_round", 0.05, tick=500))
    bus.publish(PlateauEvent("w0", "begin", "coverage", 500, 750, 7))
    bus.publish(PlateauEvent("w0", "end", "coverage", 500, 1000, 7))
    bus.publish(CampaignEvent("end", "gdk", "path", 0, workers=2,
                              budget=1000))
    sink.close()
    return path


def test_render_summary_markdown_and_html(tmp_path):
    from repro.telemetry import render

    path = _synthetic_trace(tmp_path)
    events, skipped = render.load_traces([path])
    assert skipped == 0
    lines = render.summarize(events, skipped)
    assert any("gdk/path#0" in line for line in lines)
    markdown = render.render_markdown(events)
    assert "| coverage |" in markdown
    html = render.render_html(events)
    assert html.startswith("<!doctype html>")
    assert "Coverage over virtual time" in html
    assert "<svg" in html and "</svg>" in html


def test_render_report_writes_artifacts(tmp_path):
    from repro.telemetry.render import render_report

    path = _synthetic_trace(tmp_path)
    html_path = str(tmp_path / "report.html")
    md_path = str(tmp_path / "report.md")
    lines = render_report([path], html_path=html_path, markdown_path=md_path)
    assert lines
    assert os.path.getsize(html_path) > 0
    assert os.path.getsize(md_path) > 0


# -- CLI -----------------------------------------------------------------------


def test_cli_telemetry_report(tmp_path, capsys):
    path = _synthetic_trace(tmp_path)
    html_path = str(tmp_path / "out.html")
    assert main(["telemetry", "report", path, "--html", html_path,
                 "--tail", "2"]) == 0
    out = capsys.readouterr().out
    assert "campaign gdk/path#0" in out
    assert "wrote %s" % html_path in out
    assert os.path.exists(html_path)


def test_cli_telemetry_report_missing_trace(tmp_path):
    with pytest.raises(SystemExit):
        main(["telemetry", "report", str(tmp_path / "missing.jsonl")])


def test_cli_fuzz_trace_end_to_end(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    trace = str(tmp_path / "fuzz.jsonl")
    assert main(["fuzz", "flvmeta", "--config", "pcguard",
                 "--hours", "0.25", "--scale", "0.5",
                 "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "telemetry trace:" in out
    events, skipped = read_trace(trace)
    assert skipped == 0
    kinds = {e["kind"] for e in events}
    assert "campaign" in kinds and "metrics" in kinds
    assert main(["telemetry", "report", trace]) == 0
    assert "flvmeta/pcguard#0" in capsys.readouterr().out


def test_cli_global_verbose_reaches_subcommands(capsys):
    # `repro --verbose list` parses and runs; the fuzz-level spelling stays
    # accepted and must not clobber the global flag.
    assert main(["--verbose", "list"]) == 0
    assert logging.getLogger("repro").level == logging.INFO
    parser_args = ["--verbose", "show", "gdk"]
    assert main(parser_args) == 0


# -- taint-guided stage telemetry ----------------------------------------------


def test_taint_event_round_trips_and_formats():
    from repro.telemetry.bus import TaintEvent

    event = TaintEvent("w0", 1500, 7, 1, "main:4", 2, 4)
    data = event.to_dict()
    assert data["kind"] == "taint"
    assert data["site"] == "main:4"
    assert data["focus"] == 2 and data["frozen"] == 4
    line = format_event_line(data)
    assert "taint" in line and "main:4" in line and "rarity=1" in line


def test_engine_telemetry_records_taint_stage():
    from repro.taint import TaintTarget

    bus = TelemetryBus()
    tel = EngineTelemetry(bus=bus, label="w0")
    target = TaintTarget(7, 1, None, ("main", 4), 8)
    tel.record_taint(target, {4, 5}, {0, 1, 2})
    tel.record_masked(True)
    tel.record_masked(False)
    assert tel.registry.counter("taint.targets").value == 1
    assert tel.registry.counter("taint.masked_execs").value == 2
    assert tel.registry.counter("taint.masked_hits").value == 1
    assert tel.registry.histogram("taint.mask_bytes").count == 1
    taint_events = [e for e in bus.recent() if e.kind == "taint"]
    assert len(taint_events) == 1
    assert taint_events[0].site == "main:4"
    assert taint_events[0].focus == 2 and taint_events[0].frozen == 3


def _taint_trace(tmp_path):
    from repro.telemetry.bus import MetricsSnapshotEvent, TaintEvent

    path = str(tmp_path / "taint.jsonl")
    bus = TelemetryBus()
    sink = bus.attach(JsonlSink(path, flush_every=1))
    bus.publish(CampaignEvent("begin", "gdk", "taint", 0, budget=1000))
    bus.publish(TaintEvent("w0", 250, 7, 1, "load_bmp:4", 2, 4))
    bus.publish(TaintEvent("w0", 500, 9, 2, "load_gif:7", 1, 6))
    bus.publish(MetricsSnapshotEvent("w0", 750, {
        "counters": {"execs": 900, "taint.targets": 2,
                     "taint.masked_execs": 300, "taint.masked_hits": 30},
        "gauges": {"tick": 750, "coverage": 40},
        "histograms": {},
    }))
    bus.publish(CampaignEvent("end", "gdk", "taint", 0, budget=1000))
    sink.close()
    return path


def test_render_surfaces_taint_stage(tmp_path):
    from repro.telemetry import render

    path = _taint_trace(tmp_path)
    events, skipped = render.load_traces([path])
    assert skipped == 0
    summary = render.TraceSummary(events, skipped)
    stats = summary.taint_stats()
    assert stats["targets"] == 2
    assert stats["masked_execs"] == 300
    assert stats["hit_rate"] == pytest.approx(0.1)
    rows = summary.taint_targets()
    assert rows[0][2] == "load_bmp:4"  # rarity 1 sorts first
    lines = render.summarize(events, skipped)
    assert any("taint:" in line for line in lines)
    markdown = render.render_markdown(events)
    assert "Taint-guided targeting" in markdown
    assert "load_bmp:4" in markdown
    html = render.render_html(events)
    assert "Taint-guided targeting" in html


def test_render_omits_taint_section_when_off(tmp_path):
    from repro.telemetry import render

    # The synthetic non-taint trace from the renderer tests above.
    path = str(tmp_path / "plain.jsonl")
    bus = TelemetryBus()
    sink = bus.attach(JsonlSink(path, flush_every=1))
    bus.publish(CampaignEvent("begin", "gdk", "path", 0, budget=1000))
    bus.publish(CampaignEvent("end", "gdk", "path", 0, budget=1000))
    sink.close()
    events, skipped = render.load_traces([path])
    assert render.TraceSummary(events, skipped).taint_stats() is None
    assert "Taint-guided targeting" not in render.render_markdown(events)


def test_traced_taint_campaign_publishes_taint_events(tmp_path):
    import random

    from repro.coverage.feedback import EdgeFeedback
    from repro.fuzzer.engine import EngineConfig, FuzzEngine
    from repro.lang import compile_source

    path = str(tmp_path / "campaign.jsonl")
    bus = TelemetryBus()
    sink = bus.attach(JsonlSink(path, flush_every=1))
    tel = EngineTelemetry(bus=bus, label="w0").begin(400_000)
    program = compile_source(
        'fn main(input) { if (len(input) < 5) { return 0; }'
        ' if (read32(input, 0) != 0x4D414743) { return 1; }'
        ' if ((input[4] * 3) % 251 == 17) { trap(1); } return 2; }'
    )
    engine = FuzzEngine(
        program,
        EdgeFeedback(),
        [b"MAGC\x00\x00", b"nope"],
        random.Random(0),
        EngineConfig(max_input_len=16, exec_instr_budget=10_000,
                     use_taint=True, taint_targets=8),
        telemetry=tel,
    )
    engine.run(400_000)
    tel.finish(engine.clock.ticks)
    sink.close()
    assert engine.taint.targets_selected > 0
    events, skipped = read_trace(path)
    assert skipped == 0
    taint_events = [e for e in events if e.get("kind") == "taint"]
    assert taint_events
    assert all(e.get("focus", 0) >= 1 for e in taint_events)
