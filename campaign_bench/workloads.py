"""The four benchmark workloads: campaigns and shadow analysis requests.

Campaign workloads drive :class:`~repro.fuzzer.engine.FuzzEngine` exactly
as ``run_config`` does for plain configs (same RNG, config and feedback),
but through ``run_until`` barriers at budget/32 so every virtual slice is
timed; on ``durable-interp`` a checkpoint is written at every budget/8
barrier, as ``repro fuzz --output DIR --checkpoint F --trace T`` does.
Barriers do not change the trajectory.  The experiment runner's result
caches are never consulted.

The ``shadow`` workload is a closed loop of analysis requests, one at a
time: taint run, path-condition extraction, a capped number of flip
solves, and a replay of each witness.
"""

import hashlib
import os
import random
import shutil
from contextlib import nullcontext
from time import perf_counter

from repro.analysis.solver import apply_witness, solve_flip
from repro.analysis.symbolic import eval_expr, extract_path_condition
from repro.coverage.bitmap import classify_hits
from repro.coverage.feedback import EdgeFeedback
from repro.experiments.bench import grow_inputs
from repro.experiments.config import FUZZER_CONFIGS, campaign_rng
from repro.fuzzer import campaign as campaign_mod
from repro.fuzzer.checkpoint import read_checkpoint
from repro.fuzzer.clock import EXEC_OVERHEAD, TICKS_PER_HOUR
from repro.fuzzer.engine import FuzzEngine
from repro.fuzzer.store import CampaignStore, campaign_queue_hashes, content_hash
from repro.runtime.backend import make_backend
from repro.subjects import get_subject
from repro.telemetry.bus import CampaignEvent, JsonlSink, TelemetryBus
from repro.telemetry.trace import EngineTelemetry
from repro.triage.pathreport import profile_input

from spans import vticks, wrap, wrap_execute_slot

#: Timed run_until slices per campaign: short slices, each timed in every
#: pass, let the best of passes dodge the host's bursts of contention.
SLICES = 32
#: Checkpoints per durable campaign (the `repro fuzz` default cadence).
CHECKPOINTS = 8


class CampaignWorkload:
    """Fixed-budget campaigns over a subject list, several run seeds each."""

    kind = "campaign"

    def __init__(self, name, config, backend, subjects, runs, vhours, durable=False):
        self.name = name
        self.config = config
        self.backend = backend
        self.subjects = subjects
        self.runs = runs
        self.vhours = vhours
        self.durable = durable

    @property
    def budget(self):
        return int(self.vhours * TICKS_PER_HOUR)

    @property
    def spec(self):
        return FUZZER_CONFIGS[self.config]

    def feedback(self):
        return self.spec.feedback_factory()

    def items(self, seed):
        """(subject name, run seed) for every campaign of this workload seed."""
        return [
            (subject, derive(seed, self.name, subject, run))
            for subject in self.subjects
            for run in range(self.runs)
        ]

    def engine_config(self, subject):
        """The config's EngineConfig with every switch set explicitly."""
        config = self.spec.engine_config(subject)
        overrides = self.spec.engine_overrides
        config.backend = self.backend
        config.use_taint = bool(overrides.get("use_taint", False))
        config.use_concolic = bool(overrides.get("use_concolic", False))
        return config


class ShadowWorkload:
    """Closed-loop analysis requests on grown seeds, mutants and bug witnesses.

    Every census bug witness of a subject is a request input (a triage
    request), so the bugs reached do not hinge on which mutants a seed draws.
    """

    kind = "shadow"
    backend = "interp"

    def __init__(self, name, subjects, mutants, flips):
        self.name = name
        self.subjects = subjects
        self.mutants = mutants
        self.flips = flips

    def feedback(self):
        return EdgeFeedback()

    def items(self, seed):
        """(subject name, input bytes) for every request of this workload seed."""
        out = []
        for name in self.subjects:
            subject = get_subject(name)
            grown = grow_inputs(subject)
            rng = random.Random(derive(seed, self.name, name, 0))
            inputs = list(grown)
            for _ in range(self.mutants):
                data = bytearray(rng.choice(grown))
                for _ in range(rng.randint(1, 4)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                inputs.append(bytes(data))
            inputs.extend(bug.witness for bug in subject.bugs)
            out.extend((name, data) for data in inputs)
        return out


WORKLOADS = {
    wl.name: wl
    for wl in (
        CampaignWorkload(
            "loop-compiled", "path", "compile",
            ("nm_new", "flvmeta", "jhead", "imginfo"), runs=6, vhours=2,
        ),
        CampaignWorkload(
            "exec-compiled", "path", "compile",
            ("sqlite3", "cflow", "lame", "infotocap"), runs=6, vhours=4,
        ),
        CampaignWorkload(
            "durable-interp", "concolic", "interp",
            ("jq", "gdk", "pdftotext"), runs=4, vhours=2, durable=True,
        ),
        ShadowWorkload(
            "shadow", ("jq", "pdftotext", "sqlite3", "mujs"), mutants=24, flips=4
        ),
    )
}


def derive(seed, *parts):
    """A 31-bit seed derived from the workload seed and ``parts``."""
    text = "|".join(str(part) for part in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def exec_kwargs(subject):
    return dict(
        instr_budget=subject.exec_instr_budget,
        call_depth_limit=subject.call_depth_limit,
    )


# -- cold set-up ---------------------------------------------------------------


def cold_setup(wl):
    """One cold set-up of every subject: {subject: (front, instrument, codegen)}.

    Front end (lang + cfg), instrumentation (coverage.feedback / ballarus)
    and, for the compiled backend, codegen of the plain and cmplog variants
    with the in-process compile memo cleared first.
    """
    from repro.lang import compile_source
    from repro.runtime.compiler import clear_cache, compile_program

    clear_cache()
    out = {}
    for name in wl.subjects:
        subject = get_subject(name)
        t0 = perf_counter()
        program = compile_source(subject.source, subject.name)
        t1 = perf_counter()
        instrumentation = wl.feedback().instrument(program)
        t2 = perf_counter()
        codegen = {"plain": 0.0, "cmplog": 0.0}
        if wl.backend == "compile":
            compiled = compile_program(program, instrumentation)
            for variant in codegen:
                t = perf_counter()
                compiled.execute(b"", cmplog=variant == "cmplog")
                codegen[variant] = perf_counter() - t
        out[name] = (t1 - t0, t2 - t1, codegen)
    return out


# -- campaigns -----------------------------------------------------------------


class CampaignRun:
    """One finished campaign: result, engine, timings and digest."""

    def __init__(self, label, subject, engine, result, wall, slices, workdir):
        self.label = label
        self.subject = subject
        self.subject_name = subject.name
        self.engine = engine
        self.result = result
        self.bugs = result.bugs
        self.wall = wall
        self.slices = slices  # [(wall seconds, ticks)]
        self.workdir = workdir
        self.digest = campaign_digest(engine, result)

    @property
    def vhours(self):
        return self.result.ticks / TICKS_PER_HOUR

    def slim(self):
        """Drop what only pass 1 needs; keeps wall, slices and digest."""
        self.engine = self.result = self.bugs = None


def campaign_digest(engine, result):
    """Trajectory digest: queue hashes, crash signatures, ticks and execs."""
    sha = hashlib.sha256()
    for entry in engine.queue.entries:
        sha.update(content_hash(entry.data).encode())
    for record in sorted(result.crash_records, key=lambda r: r.hash5):
        sha.update(("%s|%r" % (record.hash5, record.bug)).encode())
    sha.update(
        ("%d|%d|%d|%d" % (result.ticks, result.execs, result.hangs, len(result.edges)))
        .encode()
    )
    return sha.hexdigest()[:16]


def run_campaign(wl, subject_name, run_seed, work_root, rec=None):
    """Run one campaign; with ``rec`` its spans go to that recorder."""
    subject = get_subject(subject_name)
    spec = wl.spec
    budget = wl.budget
    label = "%s#%d" % (subject_name, run_seed)
    config = wl.engine_config(subject)
    rng = campaign_rng(subject.name, wl.config, run_seed)
    telemetry = store = bus = sink = workdir = checkpoint = None
    if wl.durable:
        # The `repro fuzz --output DIR --checkpoint F --trace T` stack.
        workdir = os.path.join(work_root, "%s-%d" % (subject_name, run_seed))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        checkpoint = os.path.join(workdir, "campaign.ckpt")
        bus = TelemetryBus()
        sink = bus.attach(JsonlSink(os.path.join(workdir, "trace.jsonl")))
        telemetry = EngineTelemetry(bus=bus, label=label)
        telemetry.begin(budget)
        bus.publish(CampaignEvent(
            "begin", subject.name, wl.config, run_seed, workers=1, budget=budget
        ))
        store = CampaignStore(
            os.path.join(workdir, "out"),
            meta={"subject": subject.name, "config": wl.config, "run_seed": run_seed},
        )
    engine = FuzzEngine(
        subject.program,
        spec.feedback_factory(),
        subject.seeds,
        rng,
        config,
        subject.tokens,
        telemetry=telemetry,
    )
    engine.store = store
    if rec is not None:
        rec.set_owner(label)
        wrap_execute_slot(rec, engine.backend)
    slices = []
    every = max(1, budget // SLICES)
    checkpoint_every = max(1, budget // CHECKPOINTS)
    next_checkpoint, checkpoints = checkpoint_every, 0
    try:
        with _span(rec, "campaign"):
            start = mark = perf_counter()
            engine.start(budget)
            ticks = 0
            while True:
                target = min(budget, (engine.clock.ticks // every + 1) * every)
                engine.run_until(target)
                now_ticks = engine.clock.ticks
                if checkpoint is not None and (
                    now_ticks >= next_checkpoint or now_ticks >= budget
                ):
                    with _span(rec, "checkpoint.save"):
                        engine.save_checkpoint(checkpoint, meta={"ticks": now_ticks})
                    checkpoints += 1
                    next_checkpoint = (now_ticks // checkpoint_every + 1) * checkpoint_every
                now = perf_counter()
                slices.append((now - mark, engine.clock.ticks - ticks))
                mark, ticks = now, engine.clock.ticks
                if engine.clock.ticks >= budget:
                    break
            engine.finish()
            if store is not None:
                store.finalize(engine)
            result = campaign_mod.result_from_engines(
                subject, wl.config, run_seed, [engine], engine
            )
            wall = perf_counter() - start
    finally:
        if store is not None:
            store.close()
        if bus is not None:
            telemetry.finish(budget)
            bus.publish(CampaignEvent(
                "end", subject.name, wl.config, run_seed, workers=1, budget=budget
            ))
            bus.flush()
            sink.close()
    if rec is not None:
        rec.count("checkpoint.writes", checkpoints)
        if engine.taint is not None:
            rec.count("taint.masked_execs", engine.taint.masked_execs)
            rec.count("taint.masked_hits", engine.taint.masked_hits)
        if engine.concolic is not None:
            rec.count("concolic.flips", engine.concolic.flips)
    return CampaignRun(label, subject, engine, result, wall, slices, workdir)


def check_campaign(wl, run):
    """Replay a campaign's outputs; returns (attempted, failures, verified).

    Every final queue entry must replay to its recorded classified trace,
    every crash record must re-trap with the same bug id and every hang
    input must time out again.  On durable campaigns the store's queue
    hashes must match the final queue and the last checkpoint must read
    back with the result's ticks and execs.
    """
    engine, result = run.engine, run.result
    execute = engine.backend.execute
    kwargs = dict(
        instr_budget=engine.config.exec_instr_budget,
        call_depth_limit=engine.config.call_depth_limit,
    )
    attempted, failures, verified = 0, [], 0
    for entry in engine.queue.entries:
        attempted += 1
        replay = execute(entry.data, **kwargs)
        if replay.crashed or replay.timeout or classify_hits(replay.hits) != entry.classified:
            failures.append("%s: queue entry #%d replays differently"
                            % (run.label, entry.entry_id))
        else:
            verified += 1
    for record in engine.unique_crashes.values():
        attempted += 1
        replay = execute(record.data, **kwargs)
        if replay.trap is None or replay.trap.bug_id() != record.trap.bug_id():
            failures.append("%s: crash %s does not re-trap" % (run.label, record.hash5))
        else:
            verified += 1
    for record in engine.unique_hangs.values():
        attempted += 1
        if not execute(record.data, **kwargs).timeout:
            failures.append("%s: hang %s does not time out"
                            % (run.label, record.input_hash))
        else:
            verified += 1
    if wl.durable:
        attempted += 2
        queue = {content_hash(e.data) for e in engine.queue.entries}
        if campaign_queue_hashes(os.path.join(run.workdir, "out")) != queue:
            failures.append("%s: store queue hashes differ from the queue" % run.label)
        state, meta = read_checkpoint(os.path.join(run.workdir, "campaign.ckpt"))
        if (
            meta.get("ticks") != result.ticks
            or state["clock"][0] != result.ticks
            or state["execs"] != result.execs
        ):
            failures.append("%s: last checkpoint disagrees with the result" % run.label)
    return attempted, failures, verified


# -- shadow requests -----------------------------------------------------------


class ShadowContext:
    """Per-subject state of the shadow workload (program, backend, limits)."""

    def __init__(self, name):
        self.subject = get_subject(name)
        self.program = self.subject.program
        self.instrumentation = EdgeFeedback().instrument(self.program)
        self.backend = make_backend(self.program, self.instrumentation, backend="interp")
        self.kwargs = exec_kwargs(self.subject)


class RequestRun:
    """One finished shadow request."""

    def __init__(self, label, data, result, witnesses, ticks, wall, edges, bugs):
        self.label = label
        self.subject_name = label.split("/")[0]
        self.data = data
        self.result = result
        self.witnesses = witnesses  # [(constraint, witness bytes, replay result)]
        self.ticks = ticks
        self.wall = wall
        self.edges = edges
        self.bugs = bugs
        sha = hashlib.sha256()
        for constraint, witness, _ in witnesses:
            sha.update(("%d|" % constraint.index).encode() + witness)
        self.digest = sha.hexdigest()[:16]

    @property
    def vhours(self):
        return self.ticks / TICKS_PER_HOUR

    @property
    def execs(self):
        return 2 + len(self.witnesses)

    def slim(self):
        """Drop what only pass 1 needs; keeps wall, ticks and digest."""
        self.data = self.result = self.witnesses = self.edges = self.bugs = None


def pick_constraints(condition, limit):
    """Up to ``limit`` constraints at distinct sites, deepest first."""
    chosen, sites = [], set()
    for constraint in reversed(condition.constraints):
        if constraint.site in sites:
            continue
        sites.add(constraint.site)
        chosen.append(constraint)
        if len(chosen) == limit:
            break
    return chosen


def run_request(wl, ctx, label, data, rec=None):
    """Taint run, extraction, capped flip solving, and witness replays."""
    extract, solve, replay = extract_path_condition, solve_flip, ctx.backend.execute
    if rec is not None:
        rec.set_owner(label)
        extract = wrap(rec, "concolic.extract", extract)
        solve = wrap(rec, "concolic.solve", solve)
        replay = wrap(rec, "concolic.verify", replay)
    with _span(rec, "request"):
        start = perf_counter()
        result, _tmap = ctx.backend.taint_execute(data, **ctx.kwargs)
        ticks = vticks(result)
        extracted, condition = extract(ctx.program, data, **ctx.kwargs)
        ticks += EXEC_OVERHEAD + extracted.virtual_cost
        witnesses = []
        for constraint in pick_constraints(condition, wl.flips):
            assignment, stats = solve(constraint, condition.prefix(constraint.index), data)
            ticks += stats.clock_cost()
            if rec is not None:
                rec.count("concolic.nodes", stats.nodes)
                rec.count("concolic.solved", assignment is not None)
            if assignment is None:
                continue
            witness = apply_witness(data, assignment)
            outcome = replay(witness, **ctx.kwargs)
            ticks += vticks(outcome)
            witnesses.append((constraint, witness, outcome))
        wall = perf_counter() - start
    edges = set(result.hits)
    bugs = set()
    for outcome in [result] + [w[2] for w in witnesses]:
        edges.update(outcome.hits)
        if outcome.trap is not None and not outcome.timeout:
            bugs.add(outcome.trap.bug_id())
    return RequestRun(label, data, result, witnesses, ticks, wall, edges, bugs)


def _span(rec, name):
    """A span of ``rec`` around a block, or nothing when untraced."""
    return rec.span(name) if rec is not None else nullcontext()


def check_request(ctx, run):
    """Witness soundness, as the symbolic suite checks it.

    Each witness must satisfy the solver's own prediction, replay down the
    flipped branch when the replayed path keeps the target's index and
    site, and agree with ``profile_input`` on whether it crashes.  Returns
    (attempted, failures, verified).
    """
    attempted, failures, verified = 0, [], 0
    for constraint, witness, _ in run.witnesses:
        attempted += 1
        want = not constraint.taken_true
        value = eval_expr(constraint.expr, lambda off, w=witness: w[off])
        result, replay = extract_path_condition(ctx.program, witness)
        aligned = next((c for c in replay if c.index == constraint.index), None)
        ok = value is not None and (value != 0) == want
        if aligned is not None and aligned.site == constraint.site:
            ok = ok and aligned.taken_true == want
            verified += 1
        ok = ok and profile_input(ctx.program, witness).crashed == (result.trap is not None)
        if not ok:
            failures.append("%s: witness at constraint %d is unsound"
                            % (run.label, constraint.index))
    return attempted, failures, verified
