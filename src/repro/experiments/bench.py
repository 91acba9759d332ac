"""``repro bench``: wall-clock throughput of the execution backends.

Measures executions/second and virtual ticks/second per subject for the
interpreter and the compiled backend over the same input set, reports the
per-subject speedup and its geometric mean, and writes a ``BENCH_<date>.json``
record.  The regression gate compares *speedups* (compiled relative to the
interpreter measured in the same process moments apart), not raw rates:
absolute execs/sec shift with the host machine, while the ratio is stable
enough to gate in CI.

Methodology notes (kept honest on purpose):

- Inputs are each subject's seeds grown to ``max_input_len`` by doubling —
  deterministic, and deep enough that the measurement is not dominated by
  argument shuffling on near-empty inputs.
- Both backends are warmed (compilation, caches) before timing.
- Timing interleaves best-of-``repeats`` passes per backend, which
  suppresses thermal / scheduler drift: a slow machine moment hurts one
  pass, not one backend.
- The default feedback is ``path`` (the paper's core instrumentation);
  probe pruning is applied where sound (pure-HIT feedbacks), since that is
  how the compiled backend actually runs in campaigns.
- ``codegen_s`` is the cold start a fresh process pays before its first
  compiled execution: generating and ``compile()``-ing the plain and
  cmplog variants, timed through :func:`generate_sources` directly so
  neither the in-process compile memo nor ``REPRO_COMPILE_CACHE`` can
  serve it.  It is reported, not gated.
- ``front_s`` is the cold MiniC front end before that: the best-of-repeats
  :func:`compile_source` of the subject's text (lex, parse, checks,
  lowering, optimizer and both verifier passes).  Reported, not gated.
"""

import json
import os
import time
from time import perf_counter as _perf_counter

from repro.coverage.feedback import feedback_by_name
from repro.coverage.prune import build_prune_plan
from repro.lang import compile_source
from repro.runtime.backend import make_backend
from repro.runtime.compiler import compile_program, generate_sources
from repro.subjects import SUITE_NAMES, get_subject

DEFAULT_FEEDBACK = "path"
DEFAULT_REPEATS = 3
DEFAULT_MIN_SECONDS = 0.25
QUICK_MIN_SECONDS = 0.08
QUICK_REPEATS = 2
DEFAULT_GATE_PCT = 10.0


def grow_inputs(subject, limit=4):
    """Deterministic bench corpus: seeds doubled up to the input cap."""
    grown = []
    for seed in list(subject.seeds)[:limit]:
        data = bytes(seed)
        if not data:
            continue
        while len(data) * 2 <= subject.max_input_len:
            data += data
        grown.append(data[: subject.max_input_len])
    return grown or [b"A" * subject.max_input_len]


def _measure(execute, inputs, min_seconds):
    """One timing pass: (execs/sec, ticks/sec) over >= min_seconds."""
    execs = 0
    ticks = 0
    start = _perf_counter()
    while True:
        for data in inputs:
            result = execute(data)
            ticks += result.virtual_cost
            execs += 1
        elapsed = _perf_counter() - start
        if elapsed >= min_seconds:
            return execs / elapsed, ticks / elapsed


def cold_codegen_seconds(program, instrumentation, prune, repeats=DEFAULT_REPEATS):
    """Best-of-``repeats`` seconds to generate and compile the plain and
    cmplog variants, sharing liveness as one compiled program does."""
    best = None
    for _ in range(repeats):
        live = {}
        start = _perf_counter()
        for cmplog in (False, True):
            sources = generate_sources(
                program, instrumentation, prune, cmplog, live=live
            )
            for source in sources:
                compile(source, "<bench-codegen>", "exec")
        elapsed = _perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def cold_front_seconds(subject, repeats=DEFAULT_REPEATS):
    """Best-of-``repeats`` seconds to compile ``subject``'s MiniC text."""
    best = None
    for _ in range(repeats):
        start = _perf_counter()
        compile_source(subject.source, subject.name)
        elapsed = _perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def bench_subject(
    name,
    feedback=DEFAULT_FEEDBACK,
    repeats=DEFAULT_REPEATS,
    min_seconds=DEFAULT_MIN_SECONDS,
):
    """Best-of-``repeats`` interleaved measurement of one subject.

    Returns a dict with per-backend rates and the compiled/interp speedup.
    """
    subject = get_subject(name)
    program = subject.program
    instrumentation = feedback_by_name(feedback).instrument(program)
    prune = build_prune_plan(program, instrumentation)
    interp = make_backend(program, instrumentation, backend="interp")
    compiled = compile_program(program, instrumentation, prune)
    inputs = grow_inputs(subject)
    # Warm both sides: compilation, code caches, allocator pools.
    for data in inputs:
        interp.execute(data)
        compiled.execute(data)
    interp_execs = interp_ticks = 0.0
    compiled_execs = compiled_ticks = 0.0
    for _ in range(repeats):
        execs, ticks = _measure(interp.execute, inputs, min_seconds)
        if execs > interp_execs:
            interp_execs, interp_ticks = execs, ticks
        execs, ticks = _measure(compiled.execute, inputs, min_seconds)
        if execs > compiled_execs:
            compiled_execs, compiled_ticks = execs, ticks
    return {
        "subject": name,
        "feedback": feedback,
        "pruned_probes": prune.dropped if prune is not None else 0,
        "interp": {"execs_per_sec": interp_execs, "ticks_per_sec": interp_ticks},
        "compiled": {
            "execs_per_sec": compiled_execs,
            "ticks_per_sec": compiled_ticks,
        },
        "speedup": compiled_execs / interp_execs if interp_execs else 0.0,
        "front_s": cold_front_seconds(subject, repeats),
        "codegen_s": cold_codegen_seconds(program, instrumentation, prune, repeats),
    }


def geomean(values):
    product = 1.0
    values = list(values)
    for value in values:
        product *= value
    return product ** (1.0 / len(values)) if values else 0.0


def run_bench(
    subjects=None,
    feedback=DEFAULT_FEEDBACK,
    quick=False,
    repeats=None,
    progress=None,
):
    """Bench every subject; returns the full report dict."""
    subjects = list(subjects) if subjects else list(SUITE_NAMES)
    if repeats is None:
        repeats = QUICK_REPEATS if quick else DEFAULT_REPEATS
    min_seconds = QUICK_MIN_SECONDS if quick else DEFAULT_MIN_SECONDS
    rows = []
    for name in subjects:
        row = bench_subject(
            name, feedback=feedback, repeats=repeats, min_seconds=min_seconds
        )
        rows.append(row)
        if progress is not None:
            progress(row)
    return {
        "date": time.strftime("%Y-%m-%d"),
        "feedback": feedback,
        "quick": quick,
        "repeats": repeats,
        "subjects": rows,
        "geomean_speedup": geomean(row["speedup"] for row in rows),
    }


def write_report(report, out_dir="."):
    """Write ``BENCH_<date>.json`` under ``out_dir``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_%s.json" % report["date"])
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def baseline_from_report(report):
    """The committed-baseline shape: speedups only (machine-portable)."""
    return {
        "feedback": report["feedback"],
        "speedups": {
            row["subject"]: round(row["speedup"], 3) for row in report["subjects"]
        },
        "geomean_speedup": round(report["geomean_speedup"], 3),
    }


def check_against_baseline(report, baseline, gate_pct=DEFAULT_GATE_PCT):
    """Gate the report's speedups against a committed baseline.

    A subject fails when its measured speedup drops more than ``gate_pct``
    percent below the baseline's; the geomean is gated the same way.
    Subjects absent from the baseline are ignored (new subjects should not
    fail the gate until the baseline is refreshed).  Returns a list of
    failure strings (empty = pass).
    """
    failures = []
    allowed = 1.0 - gate_pct / 100.0
    baseline_speedups = baseline.get("speedups", {})
    for row in report["subjects"]:
        expected = baseline_speedups.get(row["subject"])
        if expected is None:
            continue
        if row["speedup"] < expected * allowed:
            failures.append(
                "%s: speedup %.2fx is more than %.0f%% below baseline %.2fx"
                % (row["subject"], row["speedup"], gate_pct, expected)
            )
    expected = baseline.get("geomean_speedup")
    if expected is not None and report["geomean_speedup"] < expected * allowed:
        failures.append(
            "geomean: %.2fx is more than %.0f%% below baseline %.2fx"
            % (report["geomean_speedup"], gate_pct, expected)
        )
    return failures


def format_row(row):
    return (
        "%-14s interp %9.0f/s %12.0f t/s   compiled %9.0f/s %12.0f t/s   %5.2fx"
        "   front %5.1f ms   codegen %6.1f ms"
        % (
            row["subject"],
            row["interp"]["execs_per_sec"],
            row["interp"]["ticks_per_sec"],
            row["compiled"]["execs_per_sec"],
            row["compiled"]["ticks_per_sec"],
            row["speedup"],
            row["front_s"] * 1e3,
            row["codegen_s"] * 1e3,
        )
    )
