"""Pin every telemetry record's observable output, kind by kind.

One fully populated instance of each of the 14 event kinds (plus the
variants that take a different branch: a plateau's two phases, a store scan
with and without quarantine, the three concolic outcomes, a cell with an
unknown total, a zero-rate worker sample, a service op without detail) is
built with a fixed ``wall`` and pinned four ways:

* the exact line :class:`JsonlSink` writes,
* the level, logger and message :class:`LogSink` produces,
* :func:`format_event_line` (the TTY and ``--follow`` view),
* ``repr`` of the event.

The TTY summary, the markdown report, the HTML report (by digest) and
``CampaignStats.summary_lines()`` are pinned on a fixed synthetic trace that
holds every kind, together with the fields tests read back through the
``CampaignStats``/``MatrixProgress`` accessors and the events they publish.
Finally the pinned JSONL lines are reloaded with :func:`read_trace` and must
render to the same TTY lines, so traces already on disk keep loading.

Any diff here is a change in what a user sees or what a trace contains; if
it is deliberate, re-bless the constants and say why.
"""

import hashlib
import json
import logging

from repro.fuzzer.stats import CampaignStats, MatrixProgress
from repro.telemetry import render
from repro.telemetry.bus import (
    CampaignEvent,
    CellEvent,
    CellRetryEvent,
    ConcolicEvent,
    JsonlSink,
    LogSink,
    MetricsSnapshotEvent,
    PlateauEvent,
    ServiceEvent,
    SpanEvent,
    StoreEvent,
    SyncRoundEvent,
    TaintEvent,
    TelemetryBus,
    WorkerDroppedEvent,
    WorkerProgressEvent,
    WorkerRestartEvent,
    format_event_line,
    read_trace,
)

WALL = 1700000000.25

_SNAPSHOT = {
    "counters": {"execs": 1200, "taint.masked_execs": 40,
                 "taint.masked_hits": 6, "taint.targets": 3,
                 "concolic.attempts": 3, "concolic.solved": 2,
                 "concolic.flips": 1},
    "gauges": {"coverage": 42, "queue_size": 9, "crash_count": 2},
    "histograms": {"span.execute": {"count": 1200, "mean": 0.00025,
                                    "p95": 0.0004}},
}


def _events():
    """Every kind, fully populated, in a fixed wall order."""
    return [
        CampaignEvent("begin", "gdk", "path", 3, 2, 400000, wall=WALL),
        WorkerProgressEvent("gdk/path#3", 0, 0, 0, 1, 0, 0, 0, 0.0,
                            wall=WALL + 0.5),
        WorkerProgressEvent("gdk/path#3", 0, 200000, 600, 5, 1, 0, 30, 1.5,
                            wall=WALL + 1.5),
        WorkerProgressEvent("gdk/path#3", 1, 200000, 500, 4, 0, 1, 28, 1.5,
                            wall=WALL + 1.5),
        WorkerProgressEvent("gdk/path#3", 0, 400000, 1200, 9, 2, 1, 42, 3.0,
                            wall=WALL + 3.0),
        WorkerProgressEvent("gdk/path#3", 1, 400000, 1000, 8, 0, 2, 40, 3.0,
                            wall=WALL + 3.0),
        SyncRoundEvent("gdk/path#3", 200000, 6, 2, [(0, 1), (1, 1)], 1.6,
                       wall=WALL + 1.6),
        WorkerRestartEvent("gdk/path#3", 1, 1, "WorkerDead: exit 3", 0.25,
                           1.7, wall=WALL + 1.7),
        WorkerDroppedEvent("gdk/path#3", 1, "restart budget exhausted",
                           "restart-budget", "WorkerDead", wall=WALL + 2.0),
        CellEvent(("gdk", "path", 3), "ok", 12.34, 1200, 1, 1, 2,
                  wall=WALL + 3.1),
        CellEvent(("jq", "pcguard", 0), "timeout", 7.5, 0, 0, 2, 0,
                  wall=WALL + 3.2),
        CellRetryEvent(("jq", "pcguard", 0), 1, "crashed", 0.125,
                       wall=WALL + 3.15),
        SpanEvent("sync_round", 0.0625, 200000, {"offered": 6},
                  wall=WALL + 1.65),
        MetricsSnapshotEvent("gdk/path#3", 400000, _SNAPSHOT,
                             wall=WALL + 3.05),
        PlateauEvent("gdk/path#3", "begin", "coverage", 100000, 150000, 30,
                     wall=WALL + 1.0),
        PlateauEvent("gdk/path#3", "end", "coverage", 100000, 350000, 30,
                     wall=WALL + 2.5),
        PlateauEvent("gdk/path#3", "begin", "coverage", 360000, 400000, 42,
                     wall=WALL + 2.9),
        StoreEvent("scan", 1, "crashes", 5, 2, wall=WALL + 0.1),
        StoreEvent("scan", 0, "queue", 12, 0, wall=WALL + 0.2),
        TaintEvent("gdk/path#3", 250000, 17, 1, "parse:4", 3, 5,
                   wall=WALL + 2.1),
        ConcolicEvent("gdk/path#3", 260000, 17, 1, "parse:4", 2, 31, True,
                      True, wall=WALL + 2.2),
        ConcolicEvent("gdk/path#3", 270000, 21, 2, "check:9", 4, 57, True,
                      False, wall=WALL + 2.3),
        ConcolicEvent("gdk/path#3", 280000, 23, 3, "main:2", 8, 500, False,
                      False, wall=WALL + 2.4),
        ServiceEvent("retry", "job-7", "acme", "attempt 2 of 3",
                     {"seq": 14, "backlog": 2}, wall=WALL + 2.6),
        ServiceEvent("cancel", "job-8", "acme", wall=WALL + 2.7),
    ]


PINNED_JSONL = [
    '{"action":"begin","budget":400000,"config":"path","kind":"campaign","run_seed":3,"subject":"gdk","wall":1700000000.25,"workers":2}',
    '{"coverage":0,"crashes":0,"elapsed":0.0,"execs":0,"hangs":0,"kind":"worker_progress","label":"gdk/path#3","queue":1,"tick":0,"wall":1700000000.75,"worker":0}',
    '{"coverage":30,"crashes":1,"elapsed":1.5,"execs":600,"hangs":0,"kind":"worker_progress","label":"gdk/path#3","queue":5,"tick":200000,"wall":1700000001.75,"worker":0}',
    '{"coverage":28,"crashes":0,"elapsed":1.5,"execs":500,"hangs":1,"kind":"worker_progress","label":"gdk/path#3","queue":4,"tick":200000,"wall":1700000001.75,"worker":1}',
    '{"coverage":42,"crashes":2,"elapsed":3.0,"execs":1200,"hangs":1,"kind":"worker_progress","label":"gdk/path#3","queue":9,"tick":400000,"wall":1700000003.25,"worker":0}',
    '{"coverage":40,"crashes":0,"elapsed":3.0,"execs":1000,"hangs":2,"kind":"worker_progress","label":"gdk/path#3","queue":8,"tick":400000,"wall":1700000003.25,"worker":1}',
    '{"accepted":2,"elapsed":1.6,"imported":[[0,1],[1,1]],"kind":"sync","label":"gdk/path#3","offered":6,"tick":200000,"wall":1700000001.85}',
    '{"attempt":1,"delay":0.25,"elapsed":1.7,"kind":"restart","label":"gdk/path#3","reason":"WorkerDead: exit 3","wall":1700000001.95,"worker":1}',
    '{"cause":"restart-budget","detail":"WorkerDead","kind":"degraded","label":"gdk/path#3","reason":"restart budget exhausted","wall":1700000002.25,"worker":1}',
    '{"done":1,"execs":1200,"key":"(\'gdk\', \'path\', 3)","kind":"cell","restarts":1,"secs":12.34,"status":"ok","total":2,"wall":1700000003.35}',
    '{"done":2,"execs":0,"key":"(\'jq\', \'pcguard\', 0)","kind":"cell","restarts":0,"secs":7.5,"status":"timeout","total":0,"wall":1700000003.45}',
    '{"attempt":1,"delay":0.125,"failure":"crashed","key":"(\'jq\', \'pcguard\', 0)","kind":"cell_retry","wall":1700000003.4}',
    '{"attrs":{"offered":6},"kind":"span","name":"sync_round","secs":0.0625,"tick":200000,"wall":1700000001.9}',
    '{"kind":"metrics","label":"gdk/path#3","metrics":{"counters":{"concolic.attempts":3,"concolic.flips":1,"concolic.solved":2,"execs":1200,"taint.masked_execs":40,"taint.masked_hits":6,"taint.targets":3},"gauges":{"coverage":42,"crash_count":2,"queue_size":9},"histograms":{"span.execute":{"count":1200,"mean":0.00025,"p95":0.0004}}},"tick":400000,"wall":1700000003.3}',
    '{"kind":"plateau","label":"gdk/path#3","metric":"coverage","phase":"begin","start_tick":100000,"tick":150000,"value":30,"wall":1700000001.25}',
    '{"kind":"plateau","label":"gdk/path#3","metric":"coverage","phase":"end","start_tick":100000,"tick":350000,"value":30,"wall":1700000002.75}',
    '{"kind":"plateau","label":"gdk/path#3","metric":"coverage","phase":"begin","start_tick":360000,"tick":400000,"value":42,"wall":1700000003.15}',
    '{"action":"scan","artifact":"crashes","entries":5,"kind":"store","quarantined":2,"wall":1700000000.35,"worker":1}',
    '{"action":"scan","artifact":"queue","entries":12,"kind":"store","quarantined":0,"wall":1700000000.45,"worker":0}',
    '{"focus":3,"frozen":5,"index":17,"kind":"taint","label":"gdk/path#3","rarity":1,"site":"parse:4","tick":250000,"wall":1700000002.35}',
    '{"flipped":true,"index":17,"kind":"concolic","label":"gdk/path#3","nodes":31,"rarity":1,"site":"parse:4","solved":true,"support":2,"tick":260000,"wall":1700000002.45}',
    '{"flipped":false,"index":21,"kind":"concolic","label":"gdk/path#3","nodes":57,"rarity":2,"site":"check:9","solved":true,"support":4,"tick":270000,"wall":1700000002.55}',
    '{"flipped":false,"index":23,"kind":"concolic","label":"gdk/path#3","nodes":500,"rarity":3,"site":"main:2","solved":false,"support":8,"tick":280000,"wall":1700000002.65}',
    '{"action":"retry","data":{"backlog":2,"seq":14},"detail":"attempt 2 of 3","job":"job-7","kind":"service","tenant":"acme","wall":1700000002.85}',
    '{"action":"cancel","data":{},"detail":null,"job":"job-8","kind":"service","tenant":"acme","wall":1700000002.95}',
]

PINNED_LOG = [
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 worker 0 @tick 0: 0 execs (0/vh, 0/s), queue 1, 0 crashes'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 worker 0 @tick 200000: 600 execs (1200/vh, 400/s), queue 5, 1 crashes'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 worker 1 @tick 200000: 500 execs (1000/vh, 333/s), queue 4, 0 crashes'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 worker 0 @tick 400000: 1200 execs (1200/vh, 400/s), queue 9, 2 crashes'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 worker 1 @tick 400000: 1000 execs (1000/vh, 333/s), queue 8, 0 crashes'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 sync @tick 200000: 6 offered, 2 accepted into shared corpus'),
    ('repro.fuzzer.parallel', 'WARNING', 'gdk/path#3 worker 1 restart #1 after 0.25s backoff: WorkerDead: exit 3'),
    ('repro.fuzzer.parallel', 'WARNING', 'gdk/path#3 worker 1 dropped (campaign degraded): restart budget exhausted'),
    ('repro.fuzzer.parallel', 'INFO', "cell ('gdk', 'path', 3): ok in 12.3s (1/2 done)"),
    ('repro.fuzzer.parallel', 'INFO', "cell ('jq', 'pcguard', 0): timeout in 7.5s (2/? done)"),
    ('repro.fuzzer.parallel', 'WARNING', "cell ('jq', 'pcguard', 0): crashed; retry #1 after 0.12s backoff"),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 coverage plateau since tick 100000 (value 30)'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 coverage plateau ended at tick 350000 after 250000 ticks'),
    ('repro.fuzzer.parallel', 'INFO', 'gdk/path#3 coverage plateau since tick 360000 (value 42)'),
    ('repro.fuzzer.parallel', 'WARNING', '1 store scan crashes: 5 entries, 2 quarantined'),
    ('repro.service', 'INFO', 'service retry: job=job-7 tenant=acme attempt 2 of 3'),
    ('repro.service', 'INFO', 'service cancel: job=job-8 tenant=acme '),
]

PINNED_TTY = [
    '[campaign begin] gdk/path#3 workers=2',
    '[w0 @0] execs=0 queue=1 crashes=0 coverage=0',
    '[w0 @200000] execs=600 queue=5 crashes=1 coverage=30',
    '[w1 @200000] execs=500 queue=4 crashes=0 coverage=28',
    '[w0 @400000] execs=1200 queue=9 crashes=2 coverage=42',
    '[w1 @400000] execs=1000 queue=8 crashes=0 coverage=40',
    '[sync @200000] offered=6 accepted=2',
    '[restart w1 #1] WorkerDead: exit 3',
    '[degraded w1] restart-budget: restart budget exhausted',
    "[cell ('gdk', 'path', 3)] ok in 12.3s",
    "[cell ('jq', 'pcguard', 0)] timeout in 7.5s",
    "[cell ('jq', 'pcguard', 0)] retry #1: crashed",
    '[span sync_round] 0.0625s',
    '[metrics @400000] concolic.attempts=3 concolic.flips=1 concolic.solved=2 execs=1200 taint.masked_execs=40 taint.masked_hits=6 taint.targets=3',
    '[plateau] coverage flat since tick 100000',
    '[plateau] coverage resumed at tick 350000',
    '[plateau] coverage flat since tick 360000',
    '[store scan 1/crashes] entries=5 quarantined=2',
    '[store scan 0/queue] entries=12 quarantined=0',
    '[taint @250000] idx=17 rarity=1 site=parse:4 focus=3B frozen=5B',
    '[concolic @260000] idx=17 site=parse:4 support=2B nodes=31 flipped',
    '[concolic @270000] idx=21 site=check:9 support=4B nodes=57 solved',
    '[concolic @280000] idx=23 site=main:2 support=8B nodes=500 unsolved',
    '[service retry] job=job-7 tenant=acme attempt 2 of 3',
    '[service cancel] job=job-8 tenant=acme ',
]

PINNED_REPR = [
    "CampaignEvent({'action': 'begin', 'subject': 'gdk', 'config': 'path', 'run_seed': 3, 'workers': 2, 'budget': 400000})",
    "WorkerProgressEvent({'label': 'gdk/path#3', 'worker': 0, 'tick': 0, 'execs': 0, 'queue': 1, 'crashes': 0, 'hangs': 0, 'coverage': 0, 'elapsed': 0.0})",
    "WorkerProgressEvent({'label': 'gdk/path#3', 'worker': 0, 'tick': 200000, 'execs': 600, 'queue': 5, 'crashes': 1, 'hangs': 0, 'coverage': 30, 'elapsed': 1.5})",
    "WorkerProgressEvent({'label': 'gdk/path#3', 'worker': 1, 'tick': 200000, 'execs': 500, 'queue': 4, 'crashes': 0, 'hangs': 1, 'coverage': 28, 'elapsed': 1.5})",
    "WorkerProgressEvent({'label': 'gdk/path#3', 'worker': 0, 'tick': 400000, 'execs': 1200, 'queue': 9, 'crashes': 2, 'hangs': 1, 'coverage': 42, 'elapsed': 3.0})",
    "WorkerProgressEvent({'label': 'gdk/path#3', 'worker': 1, 'tick': 400000, 'execs': 1000, 'queue': 8, 'crashes': 0, 'hangs': 2, 'coverage': 40, 'elapsed': 3.0})",
    "SyncRoundEvent({'label': 'gdk/path#3', 'tick': 200000, 'offered': 6, 'accepted': 2, 'imported': [(0, 1), (1, 1)], 'elapsed': 1.6})",
    "WorkerRestartEvent({'label': 'gdk/path#3', 'worker': 1, 'attempt': 1, 'reason': 'WorkerDead: exit 3', 'delay': 0.25, 'elapsed': 1.7})",
    "WorkerDroppedEvent({'label': 'gdk/path#3', 'worker': 1, 'reason': 'restart budget exhausted', 'cause': 'restart-budget', 'detail': 'WorkerDead'})",
    'CellEvent({\'key\': "(\'gdk\', \'path\', 3)", \'status\': \'ok\', \'secs\': 12.34, \'execs\': 1200, \'restarts\': 1, \'done\': 1, \'total\': 2})',
    'CellEvent({\'key\': "(\'jq\', \'pcguard\', 0)", \'status\': \'timeout\', \'secs\': 7.5, \'execs\': 0, \'restarts\': 0, \'done\': 2, \'total\': 0})',
    'CellRetryEvent({\'key\': "(\'jq\', \'pcguard\', 0)", \'attempt\': 1, \'failure\': \'crashed\', \'delay\': 0.125})',
    "SpanEvent({'name': 'sync_round', 'secs': 0.0625, 'tick': 200000, 'attrs': {'offered': 6}})",
    "MetricsSnapshotEvent({'label': 'gdk/path#3', 'tick': 400000, 'metrics': {'counters': {'execs': 1200, 'taint.masked_execs': 40, 'taint.masked_hits': 6, 'taint.targets': 3, 'concolic.attempts': 3, 'concolic.solved': 2, 'concolic.flips': 1}, 'gauges': {'coverage': 42, 'queue_size': 9, 'crash_count': 2}, 'histograms': {'span.execute': {'count': 1200, 'mean': 0.00025, 'p95': 0.0004}}}})",
    "PlateauEvent({'label': 'gdk/path#3', 'phase': 'begin', 'metric': 'coverage', 'start_tick': 100000, 'tick': 150000, 'value': 30})",
    "PlateauEvent({'label': 'gdk/path#3', 'phase': 'end', 'metric': 'coverage', 'start_tick': 100000, 'tick': 350000, 'value': 30})",
    "PlateauEvent({'label': 'gdk/path#3', 'phase': 'begin', 'metric': 'coverage', 'start_tick': 360000, 'tick': 400000, 'value': 42})",
    "StoreEvent({'action': 'scan', 'worker': 1, 'artifact': 'crashes', 'entries': 5, 'quarantined': 2})",
    "StoreEvent({'action': 'scan', 'worker': 0, 'artifact': 'queue', 'entries': 12, 'quarantined': 0})",
    "TaintEvent({'label': 'gdk/path#3', 'tick': 250000, 'index': 17, 'rarity': 1, 'site': 'parse:4', 'focus': 3, 'frozen': 5})",
    "ConcolicEvent({'label': 'gdk/path#3', 'tick': 260000, 'index': 17, 'rarity': 1, 'site': 'parse:4', 'support': 2, 'nodes': 31, 'solved': True, 'flipped': True})",
    "ConcolicEvent({'label': 'gdk/path#3', 'tick': 270000, 'index': 21, 'rarity': 2, 'site': 'check:9', 'support': 4, 'nodes': 57, 'solved': True, 'flipped': False})",
    "ConcolicEvent({'label': 'gdk/path#3', 'tick': 280000, 'index': 23, 'rarity': 3, 'site': 'main:2', 'support': 8, 'nodes': 500, 'solved': False, 'flipped': False})",
    "ServiceEvent({'action': 'retry', 'job': 'job-7', 'tenant': 'acme', 'detail': 'attempt 2 of 3', 'data': {'seq': 14, 'backlog': 2}})",
    "ServiceEvent({'action': 'cancel', 'job': 'job-8', 'tenant': 'acme', 'detail': None, 'data': {}})",
]


def _jsonl_lines(tmp_path, events):
    path = str(tmp_path / "pin.jsonl")
    sink = JsonlSink(path, flush_every=1)
    for event in events:
        sink.emit(event)
    sink.close()
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


def _log_lines(caplog, events):
    sink = LogSink()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="repro"):
        for event in events:
            sink.emit(event)
    return [(r.name, r.levelname, r.getMessage()) for r in caplog.records]


def test_jsonl_lines_are_pinned(tmp_path):
    assert _jsonl_lines(tmp_path, _events()) == PINNED_JSONL


def test_log_sink_lines_are_pinned(caplog):
    assert _log_lines(caplog, _events()) == PINNED_LOG


def test_tty_lines_are_pinned():
    assert [format_event_line(e.to_dict()) for e in _events()] == PINNED_TTY


def test_event_reprs_are_pinned():
    assert [repr(e) for e in _events()] == PINNED_REPR


def test_pinned_trace_lines_reload_and_render_identically(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text("\n".join(PINNED_JSONL) + "\n", encoding="utf-8")
    events, skipped = read_trace(str(path))
    assert skipped == 0
    assert [json.dumps(e, separators=(",", ":"), sort_keys=True)
            for e in events] == PINNED_JSONL
    assert [format_event_line(e) for e in events] == PINNED_TTY


def test_tty_tolerates_partial_and_unknown_events():
    # A degraded event from before ``cause``/``detail`` existed, and a kind
    # this version does not know.
    older = {"kind": "degraded", "wall": WALL, "label": "x", "worker": 1,
             "reason": "boom"}
    assert format_event_line(older) == "[degraded w1] unknown: boom"
    alien = {"kind": "ledger", "wall": WALL, "stage": "havoc"}
    assert format_event_line(alien) == (
        "[ledger] {'kind': 'ledger', 'wall': 1700000000.25, 'stage': 'havoc'}"
    )


# -- rendered reports ----------------------------------------------------------


PINNED_SUMMARY = [
    'campaign gdk/path#3',
    '  execs 2200, coverage 42, queue 17, crashes 2',
    '  syncs: 1 rounds, 6 offered, 2 accepted',
    '  supervision: 1 restart(s), 1 worker(s) dropped',
    '  plateau: coverage 30 flat from tick 100000 (250000 ticks)',
    '  plateau: coverage 42 flat from tick 360000 (open)',
    '  taint: 3 target(s), 40 masked exec(s), hit rate 15.0%, mean focus 3.0B',
    '  concolic: 3 solve attempt(s), 2 solved, 1 branch flip(s), mean support 4.7B',
    '  span.execute     n=1200    mean=0.25ms p95=0.4ms',
    '  matrix: 1/2 cells ok',
    '  (1 malformed trace line(s) skipped)',
]

PINNED_MARKDOWN = (
    '# Campaign report — gdk/path#3\n'
    '\n'
    '| metric | value |\n'
    '|---|---|\n'
    '| execs | 2200 |\n'
    '| coverage | 42 |\n'
    '| queue | 17 |\n'
    '| crashes | 2 |\n'
    '| restarts | 1 |\n'
    '| plateaus | 2 |\n'
    '\n'
    '## Coverage plateaus\n'
    '\n'
    '| start tick | end tick | coverage |\n'
    '|---|---|---|\n'
    '| 100000 | 350000 | 30 |\n'
    '| 360000 | open | 42 |\n'
    '\n'
    '## Taint-guided targeting\n'
    '\n'
    '3 target(s) selected, 40 masked execution(s), branch-flip hit rate 15.0%, mean focus mask 3.0 bytes.\n'
    '\n'
    '| rarity | map index | site | focus (B) | frozen (B) | tick |\n'
    '|---|---|---|---|---|---|\n'
    '| 1 | 17 | parse:4 | 3 | 5 | 250000 |\n'
    '\n'
    '## Concolic escalation\n'
    '\n'
    '3 solve attempt(s), 2 solved (66.7%), 1 branch flip(s), mean support 4.7 bytes.\n'
    '\n'
    '| rarity | map index | site | support (B) | nodes | outcome | tick |\n'
    '|---|---|---|---|---|---|---|\n'
    '| 1 | 17 | parse:4 | 2 | 31 | flipped | 260000 |\n'
    '| 2 | 21 | check:9 | 4 | 57 | solved | 270000 |\n'
    '| 3 | 23 | main:2 | 8 | 500 | unsolved | 280000 |\n'
    '\n'
    '## Stage timings\n'
    '\n'
    '| span | count | mean (ms) | p95 (ms) |\n'
    '|---|---|---|---|\n'
    '| span.execute | 1200 | 0.25 | 0.4 |\n'
    '\n'
    '## Restart / fault timeline\n'
    '\n'
    '| t (s) | event |\n'
    '|---|---|\n'
    '| 1.7 | restart w1 #1 |\n'
    '| 2.0 | dropped w1 (restart-budget) |\n'
    '| 2.6 | service retry job-7 |\n'
    "| 3.2 | cell retry ('jq', 'pcguard', 0) #1 |\n"
    '\n'
    '_1 malformed trace line(s) skipped._\n'
)

PINNED_HTML_SHA256 = 'ce2e9ab6db811b32314b51210bb081e533d7710ab6bcc12d5c75c89943d2b737'


def _trace_dicts(tmp_path):
    lines = _jsonl_lines(tmp_path, _events())
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    events, skipped = render.load_traces([str(path)])
    assert skipped == 0
    return events


def test_summary_is_pinned(tmp_path):
    assert render.summarize(_trace_dicts(tmp_path), skipped=1) == PINNED_SUMMARY


def test_markdown_is_pinned(tmp_path):
    assert render.render_markdown(_trace_dicts(tmp_path), 1) == PINNED_MARKDOWN


def test_html_is_pinned(tmp_path):
    html = render.render_html(_trace_dicts(tmp_path), 1)
    assert hashlib.sha256(html.encode("utf-8")).hexdigest() == PINNED_HTML_SHA256


# -- stats recorders -----------------------------------------------------------


def _published(bus):
    """What a recorder put on the bus, minus the wall-clock stamp."""
    out = []
    for event in bus.recent():
        data = event.to_dict()
        del data["wall"]
        out.append(json.dumps(data, sort_keys=True))
    return out


def _campaign_stats():
    bus = TelemetryBus()
    stats = CampaignStats(label="gdk/path#3", bus=bus)
    stats.elapsed = lambda: 2.0  # fixed wall seconds: rates are pinned
    stats.record_worker(0, 200000, 600, 5, 1, coverage=30)
    stats.record_worker(1, 200000, 500, 4, 0, hangs=1, coverage=28)
    stats.record_sync(200000, 6, 2, [(0, 1), (1, 1)])
    stats.record_restart(1, 1, "WorkerDead: exit 3", 0.25)
    stats.record_restart(1, 2, "WorkerStalled", 0.5)
    stats.record_restart(0, 1, "WorkerDead: exit 9", 0.25)
    stats.record_worker(0, 400000, 1200, 9, 2, hangs=1, coverage=42)
    stats.record_sync(400000, 4, 1)
    stats.record_degraded(1, "restart budget exhausted",
                          cause="restart-budget", detail="WorkerDead")
    stats.record_degraded(3, "deadline passed")
    return stats, bus


PINNED_STATS_LINES = [
    'worker 0: 1200 execs (1200 exec/vh, 600 exec/s), queue 9, crashes 2, hangs 1',
    'worker 1: 500 execs (1000 exec/vh, 250 exec/s), queue 4, crashes 0, hangs 1',
    'syncs: 2 rounds, 10 inputs offered, 3 accepted',
    'supervision: 3 restart(s) (w0 x1, w1 x2)',
    'degraded: worker 1 dropped — restart budget exhausted',
    'degraded: worker 3 dropped — deadline passed',
]

PINNED_STATS_ACCESSORS = [
    '[(0, 200000, 600, 1, 0, 30), (1, 200000, 500, 0, 1, 28), (0, 400000, 1200, 2, 1, 42)]',
    '{0: (400000, 1200), 1: (200000, 500)}',
    '[(200000, 6, 2), (400000, 4, 1)]',
    "[(1, 1, 'WorkerDead: exit 3', 0.25), (1, 2, 'WorkerStalled', 0.5), (0, 1, 'WorkerDead: exit 9', 0.25)]",
    '(1, 2)',
    '(1,)',
    "((1, 'restart-budget', 'WorkerDead'), (3, 'unknown', None))",
]

PINNED_STATS_PUBLISHED = [
    '{"coverage": 30, "crashes": 1, "elapsed": 2.0, "execs": 600, "hangs": 0, "kind": "worker_progress", "label": "gdk/path#3", "queue": 5, "tick": 200000, "worker": 0}',
    '{"coverage": 28, "crashes": 0, "elapsed": 2.0, "execs": 500, "hangs": 1, "kind": "worker_progress", "label": "gdk/path#3", "queue": 4, "tick": 200000, "worker": 1}',
    '{"accepted": 2, "elapsed": 2.0, "imported": [[0, 1], [1, 1]], "kind": "sync", "label": "gdk/path#3", "offered": 6, "tick": 200000}',
    '{"attempt": 1, "delay": 0.25, "elapsed": 2.0, "kind": "restart", "label": "gdk/path#3", "reason": "WorkerDead: exit 3", "worker": 1}',
    '{"attempt": 2, "delay": 0.5, "elapsed": 2.0, "kind": "restart", "label": "gdk/path#3", "reason": "WorkerStalled", "worker": 1}',
    '{"attempt": 1, "delay": 0.25, "elapsed": 2.0, "kind": "restart", "label": "gdk/path#3", "reason": "WorkerDead: exit 9", "worker": 0}',
    '{"coverage": 42, "crashes": 2, "elapsed": 2.0, "execs": 1200, "hangs": 1, "kind": "worker_progress", "label": "gdk/path#3", "queue": 9, "tick": 400000, "worker": 0}',
    '{"accepted": 1, "elapsed": 2.0, "imported": [], "kind": "sync", "label": "gdk/path#3", "offered": 4, "tick": 400000}',
    '{"cause": "restart-budget", "detail": "WorkerDead", "kind": "degraded", "label": "gdk/path#3", "reason": "restart budget exhausted", "worker": 1}',
    '{"cause": "unknown", "detail": null, "kind": "degraded", "label": "gdk/path#3", "reason": "deadline passed", "worker": 3}',
]


def test_campaign_stats_summary_lines_are_pinned():
    stats, _ = _campaign_stats()
    assert stats.summary_lines() == PINNED_STATS_LINES


def test_campaign_stats_accessors_are_pinned():
    stats, _ = _campaign_stats()
    accessors = [
        repr([(s.worker, s.tick, s.execs, s.crashes, s.hangs, s.coverage)
              for s in stats.samples]),
        repr({w: (s.tick, s.execs) for w, s in stats.latest_samples().items()}),
        repr([(e.tick, e.offered, e.accepted) for e in stats.sync_events]),
        repr([(e.worker, e.attempt, e.reason, e.delay)
              for e in stats.restarts]),
        repr(stats.restart_counts(workers=2)),
        repr(stats.restart_counts(workers=1)),
        repr(stats.degraded_reasons()),
    ]
    assert accessors == PINNED_STATS_ACCESSORS


def test_campaign_stats_published_events_are_pinned():
    _, bus = _campaign_stats()
    assert _published(bus) == PINNED_STATS_PUBLISHED


def _matrix_progress():
    bus = TelemetryBus()
    progress = MatrixProgress(total=3, bus=bus)
    progress.record_cell(("gdk", "path", 0), "ok", 1.25, execs=10)
    progress.record_retry(("jq", "pcguard", 1), 1, "crashed", 0.125)
    progress.record_cell(("jq", "pcguard", 1), "crashed", 0.5, restarts=1)
    progress.record_cell(("jq", "pcguard", 2), "ok", 2.0, 30, 0)
    return progress, bus


PINNED_MATRIX_ACCESSORS = [
    "[(('gdk', 'path', 0), 'ok', 10, 0), (('jq', 'pcguard', 1), 'crashed', 0, 1), (('jq', 'pcguard', 2), 'ok', 30, 0)]",
    "[('gdk', 'path', 0), ('jq', 'pcguard', 2)]",
    "[(('jq', 'pcguard', 1), 'crashed')]",
]

PINNED_MATRIX_PUBLISHED = [
    '{"done": 1, "execs": 10, "key": "(\'gdk\', \'path\', 0)", "kind": "cell", "restarts": 0, "secs": 1.25, "status": "ok", "total": 3}',
    '{"attempt": 1, "delay": 0.125, "failure": "crashed", "key": "(\'jq\', \'pcguard\', 1)", "kind": "cell_retry"}',
    '{"done": 2, "execs": 0, "key": "(\'jq\', \'pcguard\', 1)", "kind": "cell", "restarts": 1, "secs": 0.5, "status": "crashed", "total": 3}',
    '{"done": 3, "execs": 30, "key": "(\'jq\', \'pcguard\', 2)", "kind": "cell", "restarts": 0, "secs": 2.0, "status": "ok", "total": 3}',
]


def test_matrix_progress_accessors_are_pinned():
    progress, _ = _matrix_progress()
    accessors = [
        repr([(c.key, c.status, c.execs, c.restarts) for c in progress.cells]),
        repr([c.key for c in progress.completed()]),
        repr([(c.key, c.status) for c in progress.failed()]),
    ]
    assert accessors == PINNED_MATRIX_ACCESSORS


def test_matrix_progress_published_events_are_pinned():
    _, bus = _matrix_progress()
    assert _published(bus) == PINNED_MATRIX_PUBLISHED
