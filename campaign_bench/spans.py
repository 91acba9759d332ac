"""In-memory span recorder and the wrappers that feed it.

The traced run times calls *into* each layer from the outside: public
functions and methods are swapped for timing wrappers for the duration of
a :func:`patched_layers` block and restored afterwards.  Nothing inside
the ``repro`` package is edited.

Every span has a name, a start, an end, a parent span and an owner (the
campaign or shadow request it belongs to).  Spans are kept in flat arrays
while the benchmark runs and written out once at the end.  A span's *self
time* is its duration minus the time its direct children cover; since the
wrapped calls nest strictly (one thread, synchronous calls), that is the
duration minus the sum of the children's durations.
"""

import gzip
import json
import os
from array import array
from time import perf_counter

#: Span name -> the layer (module) it is charged to.  Root spans
#: ("campaign", "request") keep what no wrapped layer claimed: their self
#: time is ``engine.other_s``.
LAYER_OF = {
    "runtime.execute": "runtime",
    "runtime.execute.cmplog": "runtime",
    "concolic.verify": "runtime",
    "mutate.havoc": "fuzzer.mutators",
    "mutate.splice": "fuzzer.mutators",
    "novelty.classify": "coverage.bitmap",
    "novelty.probe": "coverage.bitmap",
    "novelty.merge": "coverage.bitmap",
    "queue.cull": "fuzzer.corpus",
    "queue.add": "fuzzer.corpus",
    "schedule.fuzz_one": "fuzzer.schedule",
    "cmplog.candidates": "fuzzer.cmplog",
    "taint.execute": "taint",
    "taint.select": "taint",
    "taint.masked": "taint",
    "concolic.extract": "analysis.symbolic",
    "concolic.solve": "analysis.solver",
    "replay.edge_coverage": "fuzzer.campaign",
    "store.save": "fuzzer.store",
    "store.finalize": "fuzzer.store",
    "checkpoint.save": "fuzzer.checkpoint",
    "checkpoint.write": "fuzzer.checkpoint",
    "telemetry.sample": "telemetry",
}

LAYERS = (
    "runtime",
    "fuzzer.mutators",
    "coverage.bitmap",
    "fuzzer.corpus",
    "fuzzer.schedule",
    "fuzzer.cmplog",
    "taint",
    "analysis.symbolic",
    "analysis.solver",
    "fuzzer.campaign",
    "fuzzer.store",
    "fuzzer.checkpoint",
    "telemetry",
)

ROOTS = ("campaign", "request")


class SpanRecorder:
    """Flat-array span store with a live parent stack."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.owners = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.owner = array("i")
        self._stack = []
        self._owner = -1
        #: Counts taken at the same boundaries as the spans.
        self.counts = {}

    def name_id(self, name):
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def set_owner(self, label):
        """Spans opened from now on belong to ``label`` (a campaign/request)."""
        self._owner = len(self.owners)
        self.owners.append(label)

    def open(self, name_id):
        index = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.owner.append(self._owner)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index):
        self.end[index] = perf_counter()
        self._stack.pop()

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name):
        return _SpanContext(self, self.name_id(name))

    # -- derived views ---------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * len(start)))
        for index in range(len(start)):
            up = parent[index]
            if up >= 0:
                child[up] += end[index] - start[index]
        return [end[i] - start[i] - child[i] for i in range(len(start))]

    def by_name(self):
        """name -> (durations list, total self time)."""
        selfs = self.self_times()
        out = {}
        for index, name_id in enumerate(self.name):
            durations, total_self = out.get(self.names[name_id], ([], 0.0))
            durations.append(self.end[index] - self.start[index])
            out[self.names[name_id]] = (durations, total_self + selfs[index])
        return out

    def write(self, path):
        """Write every span to a gzip file; returns the path.

        The first line is a JSON header (name and owner tables, counts, and
        the column layout); the columns follow as raw native-endian arrays
        in header order, ``rows`` entries each.
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = [
            ("name", self.name),
            ("start", self.start),
            ("end", self.end),
            ("parent", self.parent),
            ("owner", self.owner),
        ]
        header = {
            "names": self.names,
            "owners": self.owners,
            "counts": self.counts,
            "rows": len(self.start),
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
        }
        with gzip.open(path, "wb", compresslevel=1) as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for _key, col in columns:
                handle.write(col.tobytes())
        return path


class _SpanContext:
    __slots__ = ("_rec", "_name_id", "_index")

    def __init__(self, rec, name_id):
        self._rec = rec
        self._name_id = name_id

    def __enter__(self):
        self._index = self._rec.open(self._name_id)
        return self

    def __exit__(self, *exc_info):
        self._rec.close(self._index)
        return False


def wrap(rec, name, fn, observe=None):
    """``fn`` timed as span ``name``; ``observe(out, args, kwargs)`` after."""
    name_id = rec.name_id(name)
    opener, closer = rec.open, rec.close

    def wrapped(*args, **kwargs):
        index = opener(name_id)
        try:
            out = fn(*args, **kwargs)
        finally:
            closer(index)
        if observe is not None:
            observe(out, args, kwargs)
        return out

    wrapped.__wrapped__ = fn
    return wrapped


def wrap_generator(rec, name, fn):
    """A generator function whose every ``next`` is timed as span ``name``."""
    name_id = rec.name_id(name)
    opener, closer = rec.open, rec.close

    def wrapped(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            index = opener(name_id)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                closer(index)
            yield item

    wrapped.__wrapped__ = fn
    return wrapped


class patched_layers:
    """Swap the layers' public entry points for timing wrappers, then restore.

    Covers the names :mod:`repro.fuzzer.engine` imports, the queue, virgin
    map, taint, store and telemetry methods, the final edge replay and the
    checkpoint writer.  The engine's ``backend.execute`` slot is per engine
    and is wrapped by :func:`wrap_execute_slot`.
    """

    def __init__(self, rec):
        self.rec = rec
        self._saved = []

    def _swap(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self):
        from repro.coverage.bitmap import VirginMap
        from repro.fuzzer import campaign, checkpoint, engine
        from repro.fuzzer.corpus import Queue
        from repro.fuzzer.store import CampaignStore
        from repro.runtime.backend import Backend
        from repro.telemetry.trace import EngineTelemetry

        rec = self.rec

        def on_taint(out, _args, _kwargs):
            result = out[0]
            rec.count("taint.vticks", vticks(result))

        def on_solve(out, _args, _kwargs):
            assignment, stats = out
            rec.count("concolic.nodes", stats.nodes)
            rec.count("concolic.solved", assignment is not None)

        def on_store(out, _args, _kwargs):
            rec.count("store.writes", out is not None)

        def on_checkpoint(out, _args, _kwargs):
            rec.count("checkpoint.bytes", os.path.getsize(out))

        plain = {
            "havoc": "mutate.havoc",
            "splice": "mutate.splice",
            "classify_hits": "novelty.classify",
            "candidates_from_log": "cmplog.candidates",
            "select_targets": "taint.select",
            "masked_candidates": "taint.masked",
            "masked_havoc": "taint.masked",
            "extract_path_condition": "concolic.extract",
            "performance_score": "schedule.fuzz_one",
        }
        for attr, name in plain.items():
            self._swap(engine, attr, wrap(rec, name, getattr(engine, attr)))
        self._swap(
            engine,
            "sweep_candidates",
            wrap_generator(rec, "taint.masked", engine.sweep_candidates),
        )
        self._swap(
            engine, "solve_flip", wrap(rec, "concolic.solve", engine.solve_flip, on_solve)
        )
        methods = (
            (Queue, "cull", "queue.cull", None),
            (Queue, "add", "queue.add", None),
            (VirginMap, "probe", "novelty.probe", None),
            (VirginMap, "merge", "novelty.merge", None),
            (Backend, "taint_execute", "taint.execute", on_taint),
            (CampaignStore, "save_queue_entry", "store.save", on_store),
            (CampaignStore, "save_crash", "store.save", on_store),
            (CampaignStore, "save_hang", "store.save", on_store),
            (CampaignStore, "finalize", "store.finalize", None),
            (EngineTelemetry, "sample", "telemetry.sample", None),
        )
        for owner, attr, name, observe in methods:
            self._swap(owner, attr, wrap(rec, name, getattr(owner, attr), observe))
        self._swap(
            campaign,
            "replay_edge_coverage",
            wrap(rec, "replay.edge_coverage", campaign.replay_edge_coverage),
        )
        self._swap(
            checkpoint,
            "write_checkpoint",
            wrap(rec, "checkpoint.write", checkpoint.write_checkpoint, on_checkpoint),
        )
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def vticks(result):
    """The ticks the engine charges for one execution's result."""
    from repro.fuzzer.clock import EXEC_OVERHEAD

    return EXEC_OVERHEAD + result.virtual_cost + len(result.hits) // 4


def wrap_execute_slot(rec, backend):
    """Time ``backend.execute`` (the engine's execute slot) and count results."""
    plain_id = rec.name_id("runtime.execute")
    cmplog_id = rec.name_id("runtime.execute.cmplog")
    execute = backend.execute
    opener, closer, count = rec.open, rec.close, rec.count

    def wrapped(data, **kwargs):
        index = opener(cmplog_id if kwargs.get("cmplog") else plain_id)
        try:
            result = execute(data, **kwargs)
        finally:
            closer(index)
        count("runtime.instrs", result.instr_count)
        count("runtime.vticks", vticks(result))
        if result.timeout:
            count("runtime.timeouts")
        elif result.trap is not None:
            count("runtime.traps")
        else:
            count("runtime.clean")
        return result

    backend.execute = wrapped
    return backend
