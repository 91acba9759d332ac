"""Per-layer metrics of a traced measurement.

Busy times and counts are per pass over the workload's campaign or request
list (every pass runs the same trajectories), so counts repeat exactly
between runs of the same code and seed.  Shares divide a layer's self time
by the wall of the root spans (``campaign`` or ``request``); the roots'
own self time is ``engine.other_s``, so the shares plus
``engine.other_share`` sum to one.
"""

import os
from time import perf_counter

from spans import LAYER_OF, LAYERS, ROOTS

#: Passes over the inputs per controlled variant; the fastest is kept.
VARIANT_REPEATS = 3


def quantile(values, q):
    """Inclusive-method quantile (``q`` in 0..1) of a non-empty list."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    low = int(pos)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (pos - low)


def _best_per_input(execute, inputs, kwargs):
    """Fastest of VARIANT_REPEATS passes, per input, in seconds."""
    best = None
    for _ in range(VARIANT_REPEATS):
        start = perf_counter()
        for data in inputs:
            execute(data, **kwargs)
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / len(inputs)


def _variants(program, instrumentation, backend, inputs, kwargs):
    """Seconds per input of the controlled execute variants.

    ``reset`` runs the empty input through the instrumented backend;
    ``bare`` is uninstrumented and ``instr`` carries the workload's
    instrumentation, both on the workload's backend.  Where
    ``build_prune_plan`` applies (pure-HIT feedback), ``compiled`` and
    ``pruned`` run the instrumented program compiled without and with
    probe pruning plus map reconstruction.
    """
    from repro.coverage.prune import build_prune_plan
    from repro.runtime.backend import make_backend

    variants = {
        "reset": (make_backend(program, instrumentation, backend=backend), [b""] * len(inputs)),
        "bare": (make_backend(program, None, backend=backend), inputs),
        "instr": (make_backend(program, instrumentation, backend=backend), inputs),
    }
    if build_prune_plan(program, instrumentation) is not None:
        variants["compiled"] = (
            make_backend(program, instrumentation, backend="compile"), inputs
        )
        variants["pruned"] = (
            make_backend(program, instrumentation, backend="compile", probe_prune=True),
            inputs,
        )
    out = {}
    for name, (runner, data) in variants.items():
        runner.execute(data[0], **kwargs)  # codegen outside the timing
        out[name] = _best_per_input(runner.execute, data, kwargs)
    return out


def controlled_variants(wl, outcome):
    """runtime.*_us over the final queues (campaigns) or request inputs."""
    from workloads import exec_kwargs

    totals, count = {}, 0
    groups = []
    if wl.kind == "campaign":
        for run in outcome["first"].values():
            inputs = [entry.data for entry in run.engine.queue.entries]
            groups.append((run.subject, run.engine.instrumentation, inputs))
    else:
        by_subject = {}
        for run in outcome["first"].values():
            by_subject.setdefault(run.label.split("/")[0], []).append(run.data)
        contexts = outcome["contexts"]
        for name, inputs in by_subject.items():
            ctx = contexts[name]
            groups.append((ctx.subject, ctx.instrumentation, inputs))
    ratios = {}
    for subject, instrumentation, inputs in groups:
        if not inputs:
            continue
        kwargs = exec_kwargs(subject)
        per = _variants(subject.program, instrumentation, wl.backend, inputs, kwargs)
        for name, seconds in per.items():
            totals[name] = totals.get(name, 0.0) + seconds * len(inputs)
        count += len(inputs)
        if wl.kind == "shadow":
            _shadow_ratios(subject, instrumentation, inputs, kwargs, per, ratios)
    us = {name: total / count * 1e6 for name, total in totals.items()}
    return us, ratios


def _shadow_ratios(subject, instrumentation, inputs, kwargs, per, ratios):
    """Accumulate taint/extract wall against plain interpreted and compiled execs."""
    from repro.analysis.symbolic import extract_path_condition
    from repro.taint.track import taint_execute

    program = subject.program
    taint_s = _best_per_input(
        lambda data, **kw: taint_execute(program, data, instrumentation, **kw),
        inputs, kwargs,
    )
    extract_s = _best_per_input(
        lambda data, **kw: extract_path_condition(program, data, **kw), inputs, kwargs
    )
    n = len(inputs)
    for key, value in (
        ("interp", per["instr"]), ("compiled", per["compiled"]),
        ("taint", taint_s), ("extract", extract_s),
    ):
        ratios[key] = ratios.get(key, 0.0) + value * n


def per_layer(wl, outcome, setup_parts):
    """Every per-layer metric as {name: (value, note)}."""
    rec = outcome["rec"]
    passes = outcome["passes"]
    by = rec.by_name()
    counts = rec.counts
    first = outcome["first"]

    def durations(name):
        return by.get(name, ([], 0.0))[0]

    def busy(*names):
        return sum(sum(durations(name)) for name in names) / passes

    def calls(*names):
        return sum(len(durations(name)) for name in names) / passes

    def pct(name, q, scale):
        values = durations(name)
        return quantile(values, q) * scale if values else 0.0

    def per_pass(key):
        return counts.get(key, 0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    root_wall = busy(*ROOTS)
    other = sum(by.get(name, ([], 0.0))[1] for name in ROOTS) / passes
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_durations, total_self) in by.items():
        layer = LAYER_OF.get(name)
        if layer is not None:
            layer_self[layer] += total_self / passes
    untraced = sum(r.wall for rs in outcome["runs"].values() for r in rs)
    traced = sum(r.wall for rs in outcome["traced_runs"].values() for r in rs)

    masked_execs = counts.get("taint.masked_execs", 0)
    masked_hits = counts.get("taint.masked_hits", 0)
    if wl.kind == "campaign":
        flips = per_pass("concolic.flips")
        queue_size = sum(r.result.queue_size for r in first.values())
        trace_bytes = sum(
            os.path.getsize(os.path.join(r.workdir, "trace.jsonl"))
            for r in first.values() if r.workdir
        )
    else:
        flips = outcome["verified"]
        queue_size = 0
        trace_bytes = 0
    solved = per_pass("concolic.solved")

    us, ratios = controlled_variants(wl, outcome)
    setup = {
        key: sum(row[key] for row in setup_parts.values())
        for key in ("front_s", "instrument_s", "codegen_s", "codegen_cmplog_s")
    }

    m = {
        "runtime.execs": calls("runtime.execute", "runtime.execute.cmplog"),
        "runtime.busy_s": busy("runtime.execute", "runtime.execute.cmplog"),
        "runtime.exec_us_p50": pct("runtime.execute", 0.5, 1e6),
        "runtime.exec_us_p90": pct("runtime.execute", 0.9, 1e6),
        "runtime.cmplog_busy_s": busy("runtime.execute.cmplog"),
        "runtime.instrs": per_pass("runtime.instrs"),
        "runtime.timeouts": per_pass("runtime.timeouts"),
        "runtime.traps": per_pass("runtime.traps"),
        "runtime.ns_per_vtick": ratio(
            busy("runtime.execute", "runtime.execute.cmplog") * 1e9,
            per_pass("runtime.vticks"),
        ),
        "runtime.reset_us": us.get("reset", 0.0),
        "runtime.bare_us": us.get("bare", 0.0),
        "runtime.instr_us": us.get("instr", 0.0),
        "runtime.compiled_us": us.get("compiled", 0.0),
        "runtime.pruned_us": us.get("pruned", 0.0),
        "runtime.probe_share": ratio(
            us.get("instr", 0.0) - us.get("bare", 0.0), us.get("instr", 0.0)
        ),
        "mutate.havoc.calls": calls("mutate.havoc"),
        "mutate.havoc.busy_s": busy("mutate.havoc"),
        "mutate.havoc_us_p50": pct("mutate.havoc", 0.5, 1e6),
        "mutate.splice.busy_s": busy("mutate.splice"),
        "novelty.classify.busy_s": busy("novelty.classify"),
        "novelty.probe.busy_s": busy("novelty.probe"),
        "novelty.merge.busy_s": busy("novelty.merge"),
        "novelty.new_ratio": ratio(calls("queue.add"), per_pass("runtime.clean")),
        "queue.cull.calls": calls("queue.cull"),
        "queue.cull.busy_s": busy("queue.cull"),
        "queue.add.busy_s": busy("queue.add"),
        "queue.size": queue_size,
        "schedule.fuzz_one": calls("schedule.fuzz_one"),
        "cmplog.candidates.calls": calls("cmplog.candidates"),
        "cmplog.candidates.busy_s": busy("cmplog.candidates"),
        "taint.runs": calls("taint.execute"),
        "taint.busy_s": busy("taint.execute"),
        "taint.run_us_p50": pct("taint.execute", 0.5, 1e6),
        "taint.ns_per_vtick": ratio(busy("taint.execute") * 1e9, per_pass("taint.vticks")),
        "taint.select.busy_s": busy("taint.select"),
        "taint.masked.busy_s": busy("taint.masked"),
        "taint.masked_execs": masked_execs / passes,
        "taint.hit_ratio": ratio(masked_hits, masked_execs),
        "concolic.extract.calls": calls("concolic.extract"),
        "concolic.extract.busy_s": busy("concolic.extract"),
        "concolic.extract_us_p50": pct("concolic.extract", 0.5, 1e6),
        "concolic.solve.calls": calls("concolic.solve"),
        "concolic.solve.busy_s": busy("concolic.solve"),
        "concolic.nodes": per_pass("concolic.nodes"),
        "concolic.solve_ratio": ratio(solved, calls("concolic.solve")),
        "concolic.flip_ratio": ratio(flips, solved),
        "concolic.verify.busy_s": busy("concolic.verify"),
        "shadow.taint_x": ratio(ratios.get("taint", 0.0), ratios.get("interp", 0.0)),
        "shadow.taint_x_compiled": ratio(
            ratios.get("taint", 0.0), ratios.get("compiled", 0.0)
        ),
        "shadow.extract_x": ratio(ratios.get("extract", 0.0), ratios.get("interp", 0.0)),
        "shadow.extract_x_compiled": ratio(
            ratios.get("extract", 0.0), ratios.get("compiled", 0.0)
        ),
        "replay.execs": queue_size,
        "replay.busy_s": busy("replay.edge_coverage"),
        "store.writes": per_pass("store.writes"),
        "store.busy_s": busy("store.save"),
        "store.write_ms_p50": pct("store.save", 0.5, 1e3),
        "store.write_ms_p90": pct("store.save", 0.9, 1e3),
        "store.finalize_s": busy("store.finalize"),
        "checkpoint.writes": per_pass("checkpoint.writes"),
        "checkpoint.busy_s": busy("checkpoint.save"),
        "checkpoint.bytes": per_pass("checkpoint.bytes"),
        "telemetry.sample.busy_s": busy("telemetry.sample"),
        "telemetry.trace_bytes": trace_bytes,
        "setup.front_s": setup["front_s"],
        "setup.instrument_s": setup["instrument_s"],
        "setup.codegen_s": setup["codegen_s"],
        "setup.codegen_cmplog_s": setup["codegen_cmplog_s"],
        "engine.other_s": other,
        "engine.other_share": ratio(other, root_wall),
        "trace.wall_s": root_wall,
        "trace.overhead": ratio(traced - untraced, untraced),
    }
    for layer in LAYERS:
        m["layer.%s.share" % layer] = ratio(layer_self[layer], root_wall)
    accounted = sum(layer_self.values()) + other
    print("traced wall per pass %.4fs = layers' self %.4fs + engine.other %.4fs "
          "(%d passes, overhead %+.1f%%)"
          % (root_wall, accounted - other, other, passes, 100 * m["trace.overhead"]))
    for layer in sorted(LAYERS, key=lambda name: -layer_self[name]):
        print("  layer %-18s self %9.4fs  share %6.2f%%"
              % (layer, layer_self[layer], 100 * ratio(layer_self[layer], root_wall)))
    note = "per pass (%d traced passes)" % passes
    return {name: (value, note) for name, value in m.items()}
