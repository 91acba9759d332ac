"""Command-line interface.

Usage::

    python -m repro list
    python -m repro show cflow
    python -m repro fuzz gdk --config cull --hours 4 --run-seed 1
    python -m repro fuzz gdk --config path --workers 4   # main/secondary
    python -m repro fuzz gdk --trace out.jsonl           # telemetry trace
    python -m repro fuzz gdk --output out/               # durable workspace
    python -m repro fuzz gdk --resume-dir out/           # continue a killed run
    python -m repro cmin gdk out/main/queue min/         # minimize a corpus
    python -m repro lint                                 # lint all 18 subjects
    python -m repro lint lame path/to/prog.mc --paths    # + path-space pruning
    python -m repro lint --check-baseline results/lint_baseline.json
    python -m repro report --jobs 8 table2 fig2
    python -m repro telemetry report out.jsonl --html report.html
    python -m repro telemetry overhead --gate 5
    python -m repro serve svc/ --submit gdk --submit mp3gain:path:1
    python -m repro serve svc/ --daemon --lease-ttl 30  # stays up for intake
    python -m repro serve svc/ --standby 60 --lease-ttl 30  # hot standby
    python -m repro job svc/ submit gdk --tenant sec --priority 1
    python -m repro job svc/ status                  # read-only journal fold
    python -m repro job svc/ status req-8f3a...      # resolve an intake nonce
    python -m repro job svc/ cancel j000001
    python -m repro job svc/ drain                   # daemon exits after backlog
    python -m repro job svc/ compact                 # snapshot + prune (stopped)
    python -m repro job svc/ crashes j000000

``fuzz`` runs one campaign of any registered configuration and prints the
summary plus the triaged crashes; with ``--workers N`` it becomes an
AFL++-style instance-parallel campaign with periodic corpus sync, and with
``--trace PATH`` the full telemetry pipeline (events, spans, metrics,
plateaus) is persisted as JSONL.  ``--output DIR`` streams every retained
input, crash, and hang to an AFL-style on-disk workspace
(:mod:`repro.fuzzer.store`), fsynced at each sync round and at the end
of the run; ``--resume-dir DIR`` continues a killed campaign from whatever
that workspace holds.  ``cmin`` minimizes an
on-disk corpus (a store's ``queue/``, say) with the afl-cmin analogue.
``lint`` runs the MiniC static analyzer (:mod:`repro.analysis.lint`) over
subject names and/or source files; ``--paths`` adds the Ball-Larus
path-feasibility report, ``--json`` emits machine-readable findings, and
``--check-baseline``/``--write-baseline`` gate CI on finding drift.
``report`` regenerates the paper's tables/figures (see
:mod:`repro.experiments.report`); ``--jobs N`` fans the campaign matrix out
over N worker processes with identical results.  ``telemetry`` renders
traces (TTY/markdown/HTML) and runs the tracing overhead gate.  ``serve``
runs the crash-safe campaign service (:mod:`repro.service`): it recovers
whatever an earlier (possibly killed) service journaled under ROOT, admits
``--submit`` jobs, and drives everything to a terminal state; ``job``
inspects or feeds a service root without running one (``submit`` journals
a submission for the next serve, ``status``/``crashes`` are read-only).
``--verbose`` is global: it configures the ``repro`` logger for every
subcommand.
"""

import argparse
import logging
import os

from repro.analysis.solver import DEFAULT_MAX_BYTES, DEFAULT_NODE_BUDGET
from repro.experiments.config import (FUZZER_CONFIGS, build_session, run_config,
                                      run_session)
from repro.fuzzer.campaign import result_from_engines
from repro.fuzzer.clock import hours_to_ticks
from repro.fuzzer.session import FRESH, REFUSED
from repro.subjects import all_subject_names, get_subject


def build_arg_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-aware coverage-guided fuzzing (CGO 2026) reproduction",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log campaign progress (any subcommand)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list benchmark subjects")

    show = commands.add_parser("show", help="describe one subject")
    show.add_argument("subject", choices=all_subject_names())
    show.add_argument("--rare", action="store_true",
                      help="list branch sites ranked by hit-rarity over the "
                           "seed corpus's edge coverage maps (rarest first)")
    show.add_argument("--taint", action="store_true",
                      help="with --rare: run the seeds under taint tracking "
                           "and add each site's input byte mask")
    show.add_argument("--limit", type=int, default=24, metavar="N",
                      help="show at most N branch sites (default 24; 0 = all)")
    show.add_argument("--constraints", action="store_true",
                      help="replay each seed under the shadow interpreter "
                           "and print its path condition (DESIGN §14)")

    fuzz = commands.add_parser("fuzz", help="run one fuzzing campaign")
    fuzz.add_argument("subject", choices=all_subject_names())
    fuzz.add_argument("--config", default="path", choices=sorted(FUZZER_CONFIGS))
    fuzz.add_argument("--hours", type=float, default=2.0,
                      help="virtual campaign hours (default 2)")
    fuzz.add_argument("--scale", type=float, default=1.0,
                      help="virtual-clock scale (default 1.0)")
    fuzz.add_argument("--run-seed", type=int, default=0)
    fuzz.add_argument("--workers", type=int, default=1,
                      help="parallel fuzzing instances with corpus sync "
                           "(default 1: single instance)")
    fuzz.add_argument("--sync-hours", type=float, default=None,
                      help="virtual hours between corpus syncs "
                           "(default: hours / 8)")
    fuzz.add_argument("--checkpoint", metavar="PATH", default=None,
                      help="periodically snapshot campaign state to PATH "
                           "(single-instance) or use PATH as the per-worker "
                           "checkpoint directory (--workers > 1)")
    fuzz.add_argument("--checkpoint-every", type=float, default=None,
                      metavar="HOURS",
                      help="virtual hours between snapshots (default: hours/8)")
    fuzz.add_argument("--resume", metavar="PATH", default=None,
                      help="resume a single-instance campaign from a "
                           "checkpoint file (implies --checkpoint PATH)")
    fuzz.add_argument("--max-restarts", type=int, default=3,
                      help="per-worker restart budget before the campaign "
                           "degrades (--workers > 1; default 3)")
    fuzz.add_argument("--worker-timeout", type=float, default=None,
                      help="wall seconds before a silent worker counts as "
                           "stalled (default 120)")
    # Back-compat spelling of the global flag.  SUPPRESS keeps this copy
    # from clobbering a `repro --verbose fuzz ...` value with False.
    fuzz.add_argument("--verbose", action="store_true",
                      default=argparse.SUPPRESS,
                      help="log per-worker progress and sync events")
    fuzz.add_argument("--trace", metavar="PATH", default=None,
                      help="write a telemetry trace (events, spans, metrics, "
                           "plateaus) to PATH as JSONL; workers write "
                           "PATH-derived sibling files")
    fuzz.add_argument("--output", metavar="DIR", default=None,
                      help="durable AFL-style campaign workspace: stream "
                           "every retained input, crash, and hang to "
                           "DIR/<worker>/{queue,crashes,hangs}/ as found; "
                           "they survive a kill at once, and a power loss "
                           "once a sync round or the end of the run has "
                           "fsynced them (until then, a --checkpoint "
                           "resume writes back what a power loss tore)")
    fuzz.add_argument("--resume-dir", metavar="DIR", default=None,
                      help="resume a killed campaign from its --output "
                           "workspace (lossless for everything written "
                           "before a kill; after a power loss, only for "
                           "what a sync round or the end of the run "
                           "fsynced; damaged files are quarantined)")

    cmin = commands.add_parser(
        "cmin", help="minimize an on-disk corpus (afl-cmin analogue)"
    )
    cmin.add_argument("subject", choices=all_subject_names())
    cmin.add_argument("input_dir", metavar="IN",
                      help="directory of input files (e.g. a store's queue/)")
    cmin.add_argument("output_dir", metavar="OUT",
                      help="directory for the minimized corpus")
    cmin.add_argument("--config", default="pcguard",
                      choices=sorted(name for name, spec in FUZZER_CONFIGS.items()
                                     if spec.kind == "plain"),
                      help="feedback to minimize under (default pcguard, "
                           "i.e. edge coverage like afl-cmin)")

    lint = commands.add_parser(
        "lint", help="run the MiniC linter / path-feasibility analysis"
    )
    lint.add_argument("targets", nargs="*", metavar="TARGET",
                      help="subject names and/or MiniC source files "
                           "(default: all 18 evaluation subjects)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings (and path spaces) as JSON")
    lint.add_argument("--paths", action="store_true",
                      help="also report statically-infeasible Ball-Larus "
                           "paths per target")
    lint.add_argument("--path-cap", type=int, default=None, metavar="N",
                      help="enumerate path feasibility only for functions "
                           "with at most N numbered paths (default 20000); "
                           "larger functions fall back to the dead-edge bound")
    lint.add_argument("--check-baseline", metavar="PATH", default=None,
                      help="compare findings + path spaces against a "
                           "committed baseline; exit 1 on drift")
    lint.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="write the current findings + path spaces as the "
                           "new baseline")

    solve = commands.add_parser(
        "solve",
        help="extract an input's path condition and solve branch flips",
    )
    solve.add_argument("target", metavar="TARGET",
                       help="a subject name or a MiniC source file")
    solve.add_argument("input", metavar="INPUT",
                       help="input file to replay ('-' reads stdin)")
    solve.add_argument("--max-bytes", type=int, default=DEFAULT_MAX_BYTES,
                       metavar="N",
                       help="skip constraints supported by more than N input "
                            "bytes (default %(default)s)")
    solve.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                       metavar="N",
                       help="interval-split search nodes per constraint "
                            "(default %(default)s)")
    solve.add_argument("--flips", type=int, default=0, metavar="N",
                       help="attempt at most N flips (default 0 = all)")
    solve.add_argument("--json", action="store_true",
                       help="emit constraints and witnesses as JSON")

    report = commands.add_parser("report", help="regenerate paper artifacts")
    report.add_argument("artifacts", nargs="*", help="table1..table10, fig2, ...")
    report.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the campaign matrix "
                             "(default: REPRO_JOBS or 1)")
    report.add_argument("--resume", action="store_true",
                        help="checkpoint long campaign cells and resume them "
                             "across retries/restarts instead of recomputing "
                             "from zero (sets REPRO_CHECKPOINT_DIR and a "
                             "default REPRO_CELL_RESTARTS=2)")

    telemetry = commands.add_parser(
        "telemetry", help="render telemetry traces / check tracing overhead"
    )
    telemetry_actions = telemetry.add_subparsers(dest="action", required=True)

    tel_report = telemetry_actions.add_parser(
        "report", help="summarize one or more JSONL trace files"
    )
    tel_report.add_argument("traces", nargs="+", metavar="TRACE",
                            help="JSONL trace file(s); worker sibling files "
                                 "merge by wall timestamp")
    tel_report.add_argument("--html", metavar="PATH", default=None,
                            help="also write a static HTML report")
    tel_report.add_argument("--markdown", metavar="PATH", default=None,
                            help="also write a markdown report")
    tel_report.add_argument("--tail", type=int, default=0, metavar="N",
                            help="print the last N raw event lines too")

    tel_overhead = telemetry_actions.add_parser(
        "overhead",
        help="measure tracing overhead on a smoke campaign and gate it",
    )
    tel_overhead.add_argument("--subject", default="flvmeta",
                              choices=all_subject_names())
    tel_overhead.add_argument("--config", default="pcguard",
                              choices=sorted(FUZZER_CONFIGS))
    tel_overhead.add_argument("--hours", type=float, default=2.0)
    tel_overhead.add_argument("--scale", type=float, default=4.0)
    tel_overhead.add_argument("--repeats", type=int, default=3,
                              help="best-of-N timing repeats (default 3)")
    tel_overhead.add_argument("--gate", type=float, default=5.0,
                              metavar="PCT",
                              help="fail when overhead exceeds PCT%% "
                                   "(default 5)")
    tel_overhead.add_argument("--trace-dir", metavar="DIR", default=None,
                              help="keep the traced run's JSONL under DIR "
                                   "(default: a temp dir, discarded)")

    serve = commands.add_parser(
        "serve",
        help="run the campaign service: schedule job campaigns to completion",
    )
    serve.add_argument("root", metavar="ROOT",
                       help="service root directory (journal + job stores)")
    serve.add_argument("--submit", action="append", default=[],
                       metavar="SUBJECT[:CONFIG[:SEED[:TENANT[:PRIO]]]]",
                       help="submit a job before serving (repeatable); "
                            "previously journaled pending jobs run too")
    serve.add_argument("--max-workers", type=int, default=2,
                       help="concurrent job worker processes (default 2)")
    serve.add_argument("--budget-ticks", type=int, default=60_000,
                       help="virtual-tick budget per submitted job "
                            "(default 60000)")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="per-job retry budget before it degrades "
                            "(default 2)")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       help="seconds of heartbeat silence before an attempt "
                            "counts as stalled (default 30)")
    serve.add_argument("--wall-budget", type=float, default=600.0,
                       help="wall seconds per job attempt (default 600)")
    serve.add_argument("--tenant", action="append", default=[],
                       metavar="NAME:RUN:PEND:RETRIES",
                       help="tenant policy: max running, max pending, "
                            "retry budget (repeatable)")
    serve.add_argument("--no-fsync", action="store_true",
                       help="skip fsync on the journal and lease writes "
                            "(tests only: a power loss may lose journaled "
                            "state; job stores still fsync when a job "
                            "finishes)")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="write the service telemetry trace to PATH "
                            "as JSONL")
    serve.add_argument("--daemon", action="store_true",
                       help="keep serving after the backlog drains, picking "
                            "up `repro job submit/cancel` from other "
                            "processes; exits on `repro job drain`")
    serve.add_argument("--lease-ttl", type=float, default=None, metavar="SECS",
                       help="hold the root under a renewed lease instead of "
                            "pid-liveness: a standby can steal the root once "
                            "this service stops renewing for SECS")
    serve.add_argument("--standby", type=float, default=None, metavar="SECS",
                       help="if the root is held, wait up to SECS for its "
                            "lease to lapse instead of failing (hot standby)")
    serve.add_argument("--compact-after", type=int, default=0, metavar="N",
                       help="compact the journal after every N records "
                            "(default 0: never auto-compact)")
    serve.add_argument("--poll", type=float, default=0.25, metavar="SECS",
                       help="daemon intake poll interval (default 0.25)")
    serve.add_argument("--service-index", type=int, default=0, metavar="N",
                       help="this service's index for fault-injection "
                            "coordinates (default 0)")

    job = commands.add_parser(
        "job", help="inspect or feed a service root (safe while it serves)"
    )
    job.add_argument("root", metavar="ROOT", help="service root directory")
    job_actions = job.add_subparsers(dest="action", required=True)

    job_submit = job_actions.add_parser(
        "submit", help="journal a job submission for the next `repro serve`"
    )
    job_submit.add_argument("subject", choices=all_subject_names())
    job_submit.add_argument("--config", default="path",
                            choices=sorted(FUZZER_CONFIGS))
    job_submit.add_argument("--run-seed", type=int, default=0)
    job_submit.add_argument("--tenant", default="default")
    job_submit.add_argument("--priority", type=int, default=0)
    job_submit.add_argument("--budget-ticks", type=int, default=60_000)
    job_submit.add_argument("--max-retries", type=int, default=2)
    job_submit.add_argument("--require-checkpoint", action="store_true",
                            help="degrade (typed checkpoint-corrupt) instead "
                                 "of replaying the store when the resume "
                                 "checkpoint is damaged")

    job_status = job_actions.add_parser(
        "status", help="fold the journal (read-only) and print the job table"
    )
    job_status.add_argument("job_id", nargs="?", default=None,
                            help="one job id or a req-… intake nonce "
                                 "(default: the whole table)")
    job_status.add_argument("--json", action="store_true",
                            help="emit machine-readable snapshots")

    job_cancel = job_actions.add_parser(
        "cancel", help="cancel one job (journals directly, or asks a live "
                       "daemon via an intake request)"
    )
    job_cancel.add_argument("job_id")

    job_actions.add_parser(
        "drain", help="ask the daemon on this root to finish its backlog "
                      "and exit (request is honored by the next daemon if "
                      "none is live)"
    )

    job_actions.add_parser(
        "compact", help="fold settled history into a snapshot and prune "
                        "covered records (stopped roots only)"
    )

    job_crashes = job_actions.add_parser(
        "crashes", help="list one job's deduped crash artifacts"
    )
    job_crashes.add_argument("job_id")
    job_crashes.add_argument("--json", action="store_true")

    bench = commands.add_parser(
        "bench",
        help="measure interp vs compiled backend throughput per subject",
    )
    bench.add_argument("subjects", nargs="*", metavar="SUBJECT",
                       help="subjects to bench (default: the 18-subject "
                            "evaluation suite)")
    bench.add_argument("--quick", action="store_true",
                       help="short CI-sized passes (noisier, ~10x faster)")
    bench.add_argument("--feedback", default=None,
                       help="instrumentation to bench under (default path)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="best-of-N interleaved timing passes")
    bench.add_argument("--out-dir", metavar="DIR", default=".",
                       help="directory for BENCH_<date>.json (default .)")
    bench.add_argument("--baseline", metavar="PATH",
                       default="results/bench_baseline.json",
                       help="committed speedup baseline to gate against "
                            "(default results/bench_baseline.json; gate "
                            "skipped when the file is absent)")
    bench.add_argument("--gate-pct", type=float, default=10.0, metavar="PCT",
                       help="fail when a speedup drops more than PCT%% "
                            "below the baseline (default 10)")
    bench.add_argument("--write-baseline", action="store_true",
                       help="rewrite the baseline from this run instead of "
                            "gating against it")
    return parser


def cmd_list(_args):
    for name in all_subject_names():
        subject = get_subject(name)
        print("%-12s %2d bugs  %s" % (name, len(subject.bugs), subject.description))
    return 0


def cmd_show(args):
    subject = get_subject(args.subject)
    stats = subject.program.stats()
    print("subject: %s" % subject.name)
    print("  %s" % subject.description)
    print("  program: %(functions)d functions, %(blocks)d blocks, "
          "%(edges)d edges" % stats)
    print("  seeds: %d, dictionary tokens: %d, max input: %d bytes"
          % (len(subject.seeds), len(subject.tokens), subject.max_input_len))
    from repro.analysis.feasibility import program_path_space

    space = program_path_space(subject.program)
    print("  path space: %d Ball-Larus paths, %d statically infeasible "
          "(%d feasible)" % (space["num_paths"], space["infeasible_paths"],
                             space["feasible_paths"]))
    print("  bug census (%d):" % len(subject.bugs))
    for bug in subject.bugs:
        function, line, kind = bug.bug_id
        print("    %-11s %s:%d %s — %s" % (
            "[%s]" % bug.difficulty, function, line, kind, bug.description))
    if getattr(args, "rare", False):
        _show_rare_branches(subject, args.taint, args.limit)
    elif getattr(args, "taint", False):
        print("  (--taint only applies together with --rare)")
    if getattr(args, "constraints", False):
        _show_seed_constraints(subject, args.limit)
    return 0


def _show_seed_constraints(subject, limit):
    """``show --constraints``: each seed's path condition, shadow-replayed."""
    from repro.analysis.symbolic import extract_path_condition

    for position, seed in enumerate(subject.seeds):
        result, condition = extract_path_condition(
            subject.program,
            seed,
            instr_budget=subject.exec_instr_budget,
            call_depth_limit=subject.call_depth_limit,
        )
        outcome = "ok"
        if result.timeout:
            outcome = "timeout"
        elif result.trap is not None:
            outcome = result.trap.kind
        print("  seed %d (%d bytes, %s): %d symbolic constraint(s)%s"
              % (position, len(seed), outcome, len(condition),
                 ", truncated" if condition.truncated else ""))
        shown = (
            condition.constraints[:limit]
            if limit and limit > 0
            else condition.constraints
        )
        for constraint in shown:
            print("    [%d] %s" % (constraint.index, constraint.describe()))
        if len(shown) < len(condition):
            print("    ... %d more (raise --limit)"
                  % (len(condition) - len(shown)))


def _mask_ranges(mask):
    """Render a byte-offset set as compact ranges, e.g. ``0-3,7,12-13``."""
    if not mask:
        return "-"
    offsets = sorted(mask)
    runs = []
    start = prev = offsets[0]
    for off in offsets[1:]:
        if off == prev + 1:
            prev = off
            continue
        runs.append((start, prev))
        start = prev = off
    runs.append((start, prev))
    return ",".join(
        "%d" % lo if lo == hi else "%d-%d" % (lo, hi) for lo, hi in runs
    )


def _show_rare_branches(subject, with_taint, limit):
    """``show --rare``: branch sites ranked by seed-corpus hit-rarity.

    Executes the subject's seeds under edge-coverage instrumentation (the
    same maps a ``pcguard``/``taint`` campaign observes), counts how many
    seeds cover each conditional-branch edge, and prints the sites rarest
    first — the ones the taint-guided stage would target.  ``--taint``
    additionally runs the seeds under :func:`repro.taint.taint_execute`
    and shows which input bytes each site's condition depends on.
    """
    from repro.coverage.feedback import EdgeFeedback
    from repro.runtime.backend import make_backend
    from repro.taint import build_branch_index

    instr = EdgeFeedback().instrument(subject.program)
    backend = make_backend(subject.program, instr)
    branch_index = build_branch_index(subject.program, instr)
    run_kwargs = dict(
        instr_budget=subject.exec_instr_budget,
        call_depth_limit=subject.call_depth_limit,
    )
    counts = dict.fromkeys(branch_index, 0)
    site_masks = {}
    for seed in subject.seeds:
        result = backend.execute(seed, **run_kwargs)
        for index in result.hits:
            if index in counts:
                counts[index] += 1
        if with_taint:
            _, tmap = backend.taint_execute(seed, **run_kwargs)
            for site, mask in tmap.branch_masks.items():
                site_masks[site] = site_masks.get(site, frozenset()) | mask
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    total = len(subject.seeds)
    shown = ranked[:limit] if limit and limit > 0 else ranked
    print("  rare branch edges (%d seeds, %d conditional edges%s):"
          % (total, len(ranked),
             ", rarest %d" % len(shown) if len(shown) < len(ranked) else ""))
    for index, rarity in shown:
        info = branch_index[index]
        line = "    %3d/%-3d idx=%-5d %s:%d -> %d" % (
            rarity, total, index, info.site[0], info.site[1], info.dst)
        if with_taint:
            line += "  bytes=%s" % _mask_ranges(site_masks.get(info.site))
        print(line)
    if with_taint and not site_masks:
        print("    (no seed reached a tainted branch condition)")


def cmd_fuzz(args):
    if args.workers < 1:
        raise SystemExit("repro fuzz: error: --workers must be >= 1")
    if args.resume and args.checkpoint and args.resume != args.checkpoint:
        raise SystemExit("repro fuzz: error: --resume and --checkpoint disagree")
    if args.resume_dir and args.output and args.resume_dir != args.output:
        raise SystemExit("repro fuzz: error: --resume-dir and --output disagree")
    if args.resume_dir and not os.path.isdir(args.resume_dir):
        raise SystemExit(
            "repro fuzz: error: no campaign workspace at %r to resume"
            % args.resume_dir
        )
    output_dir = args.resume_dir or args.output
    resume_store = bool(args.resume_dir)
    subject = get_subject(args.subject)
    budget = hours_to_ticks(args.hours, args.scale)
    checkpoint_every = (
        hours_to_ticks(args.checkpoint_every, args.scale)
        if args.checkpoint_every
        else None
    )
    telemetry = None
    if args.trace:
        from repro import telemetry as _telemetry

        # Workers inherit the trace destination through the environment and
        # re-home their sinks to PATH-derived sibling files (child_trace).
        os.environ[_telemetry.TRACE_ENV] = args.trace
        _telemetry.start_trace(args.trace)
    if args.workers > 1:
        from repro.fuzzer.parallel import run_instance_campaign
        from repro.fuzzer.supervisor import RestartPolicy

        if args.resume:
            raise SystemExit(
                "repro fuzz: error: --resume is single-instance; "
                "instance campaigns resume through --checkpoint DIR supervision"
            )
        sync_hours = args.sync_hours
        sync_ticks = (
            hours_to_ticks(sync_hours, args.scale) if sync_hours else None
        )
        print("fuzzing %s with %r: %d instances x %.1f virtual hours (%d ticks)..."
              % (subject.name, args.config, args.workers, args.hours, budget))
        result, _, stats = run_instance_campaign(
            subject.name,
            args.config,
            args.run_seed,
            budget,
            workers=args.workers,
            sync_interval_ticks=sync_ticks,
            checkpoint_dir=args.checkpoint,
            restart_policy=RestartPolicy(max_restarts=args.max_restarts),
            worker_timeout=args.worker_timeout,
            output_dir=output_dir,
            resume_store=resume_store,
        )
        for line in stats.summary_lines():
            print("  " + line)
        if getattr(result, "degraded", False):
            print("  WARNING: campaign degraded (some workers were dropped)")
    else:
        checkpoint_path = args.resume or args.checkpoint
        if args.resume and not os.path.exists(args.resume):
            raise SystemExit(
                "repro fuzz: error: no checkpoint at %r to resume" % args.resume
            )
        print("fuzzing %s with %r for %.1f virtual hours (%d ticks)..."
              % (subject.name, args.config, args.hours, budget))
        if args.trace:
            from repro import telemetry as _telemetry
            from repro.telemetry.bus import CampaignEvent

            telemetry = _telemetry.engine_telemetry(
                label="%s-%s-%d" % (subject.name, args.config, args.run_seed),
                budget_ticks=budget,
            )
            if telemetry is not None:
                telemetry.bus.publish(CampaignEvent(
                    "begin", subject.name, args.config, args.run_seed,
                    workers=1, budget=budget,
                ))
        store = None
        if output_dir:
            from repro.fuzzer.store import CampaignStore

            store = CampaignStore(
                output_dir,
                meta={
                    "subject": subject.name,
                    "config": args.config,
                    "run_seed": args.run_seed,
                },
            )
        try:
            if FUZZER_CONFIGS[args.config].kind != "plain":
                # The phased drivers checkpoint nothing and refuse a store.
                result = run_config(subject, args.config, args.run_seed,
                                    budget, store=store)
            else:
                # --resume requires its checkpoint; --checkpoint only warns.
                session = build_session(subject, args.config, args.run_seed,
                                        budget, checkpoint_path,
                                        telemetry=telemetry, store=store)
                resumed = session.open(bool(checkpoint_path),
                                       replay_store=resume_store,
                                       require_checkpoint=bool(args.resume))
                if resumed.refusal:
                    refused = "refused checkpoint %s (%s)" % (checkpoint_path,
                                                              resumed.refusal)
                    if resumed.rung == REFUSED:
                        raise SystemExit("repro fuzz: error: " + refused)
                    print("WARNING: %s; %s" % (refused, "started fresh"
                          if resumed.rung == FRESH else "replayed the store"))
                engine = run_session(session, checkpoint_every)
                result = result_from_engines(subject, args.config,
                                             args.run_seed, [engine], engine)
        finally:
            if store is not None:
                store.close()
        if store is not None and store.quarantine_count:
            print("WARNING: quarantined %d damaged workspace file(s) under %s"
                  % (store.quarantine_count,
                     os.path.join(store.worker_dir, "quarantine")))
        if telemetry is not None:
            from repro.telemetry.bus import CampaignEvent

            telemetry.finish(budget)
            telemetry.bus.publish(CampaignEvent(
                "end", subject.name, args.config, args.run_seed,
                workers=1, budget=budget,
            ))
            telemetry.bus.flush()
    print("executions: %d (%d hangs), throughput %.0f exec/vh"
          % (result.execs, result.hangs, result.throughput))
    print("queue: %d entries; edge coverage: %d" % (result.queue_size, len(result.edges)))
    print("crashes: %d raw, %d unique stacks, %d unique bugs"
          % (result.crash_count, len(result.crash_records), len(result.bugs)))
    for record in sorted(result.crash_records, key=lambda r: r.found_at):
        function, line, kind = record.bug
        print("  bug %s:%d (%s), first seen at tick %d, %d crashes"
              % (function, line, kind, record.found_at, record.count))
    plateaus = getattr(result, "plateaus", ())
    if plateaus:
        print("coverage plateaus: %d" % len(plateaus))
        for plateau in plateaus:
            end = "open" if plateau.open else "tick %d" % plateau.end_tick
            print("  flat at %d edges from tick %d to %s"
                  % (plateau.value, plateau.start_tick, end))
    if args.trace:
        print("telemetry trace: %s (render with "
              "`repro telemetry report %s`)" % (args.trace, args.trace))
    if output_dir:
        print("campaign workspace: %s (resume with "
              "`repro fuzz %s --resume-dir %s`)"
              % (output_dir, args.subject, output_dir))
    return 0


def cmd_cmin(args):
    from repro.fuzzer.cmin import coverage_of, minimize_corpus
    from repro.fuzzer.store import CRASH_SIDECARS, content_hash, write_sealed

    subject = get_subject(args.subject)
    spec = FUZZER_CONFIGS[args.config]
    if not os.path.isdir(args.input_dir):
        raise SystemExit(
            "repro cmin: error: no input directory %r" % args.input_dir
        )
    # Collect input files, skipping store sidecars and exact duplicates
    # (content hash) so identical entries from different worker slices do
    # not inflate the trace pass.
    inputs = []
    seen = set()
    for name in sorted(os.listdir(args.input_dir)):
        path = os.path.join(args.input_dir, name)
        if not os.path.isfile(path):
            continue
        if name.endswith(CRASH_SIDECARS + (".json",)) or ".tmp." in name:
            continue
        with open(path, "rb") as handle:
            data = handle.read()
        digest = content_hash(data)
        if not data or digest in seen:
            continue
        seen.add(digest)
        inputs.append(data)
    if not inputs:
        raise SystemExit(
            "repro cmin: error: no corpus files in %r" % args.input_dir
        )
    feedback = spec.feedback_factory()
    budget = subject.exec_instr_budget
    kept = minimize_corpus(
        subject.program, inputs, feedback=feedback, instr_budget=budget
    )
    os.makedirs(args.output_dir, exist_ok=True)
    for seq, data in enumerate(kept):
        write_sealed(args.output_dir, "id", seq, data)
    before = coverage_of(subject.program, inputs, feedback=feedback, instr_budget=budget)
    after = coverage_of(subject.program, kept, feedback=feedback, instr_budget=budget)
    print("minimized %d unique inputs -> %d (%s coverage: %d -> %d indices)"
          % (len(inputs), len(kept), args.config, len(before), len(after)))
    print("wrote %d files to %s" % (len(kept), args.output_dir))
    return 0 if after >= before else 1


def _lint_payload(args):
    """Lint every target; {name: {findings, path_space?}} plus Findings."""
    from repro.analysis.feasibility import DEFAULT_PATH_CAP, program_path_space
    from repro.analysis.lint import lint_source
    from repro.lang import compile_source
    from repro.subjects import SUITE_NAMES

    targets = args.targets or list(SUITE_NAMES)
    path_cap = args.path_cap if args.path_cap is not None else DEFAULT_PATH_CAP
    want_paths = bool(
        args.paths or args.json or args.check_baseline or args.write_baseline
    )
    payload = {}
    all_findings = []
    for target in targets:
        if os.path.isfile(target):
            with open(target) as handle:
                source = handle.read()
            name = target
            program = compile_source(source, name) if want_paths else None
        else:
            try:
                subject = get_subject(target)
            except KeyError:
                raise SystemExit(
                    "repro lint: error: %r is neither a subject nor a file"
                    % target
                )
            source = subject.source
            name = subject.name
            program = subject.program if want_paths else None
        findings = lint_source(source, name)
        entry = {"findings": [f.to_dict() for f in findings]}
        if program is not None:
            space = program_path_space(program, path_cap=path_cap)
            entry["path_space"] = {
                key: space[key]
                for key in (
                    "num_paths",
                    "feasible_paths",
                    "infeasible_paths",
                    "dead_edges",
                )
            }
        payload[name] = entry
        all_findings.extend(findings)
    return payload, all_findings


def cmd_lint(args):
    import json

    from repro.analysis.lint import render_text

    payload, findings = _lint_payload(args)
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump({"subjects": payload}, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote baseline for %d target(s) to %s"
              % (len(payload), args.write_baseline))
        return 0
    if args.check_baseline:
        with open(args.check_baseline) as handle:
            baseline = json.load(handle).get("subjects", {})
        # Round-trip through JSON so tuples/ints normalize identically.
        current = json.loads(json.dumps(payload))
        drift = []
        for name in sorted(set(baseline) | set(current)):
            if name not in baseline:
                drift.append("%s: not in baseline" % name)
            elif name not in current:
                drift.append("%s: in baseline but not linted" % name)
            elif baseline[name] != current[name]:
                got = len(current[name]["findings"])
                want = len(baseline[name]["findings"])
                detail = "%d findings (baseline %d)" % (got, want)
                if baseline[name].get("path_space") != current[name].get(
                    "path_space"
                ):
                    detail += "; path space changed %r -> %r" % (
                        baseline[name].get("path_space"),
                        current[name].get("path_space"),
                    )
                drift.append("%s: %s" % (name, detail))
        if drift:
            print("lint baseline drift (%d target(s)):" % len(drift))
            for line in drift:
                print("  " + line)
            print("re-record with: repro lint --write-baseline %s"
                  % args.check_baseline)
            return 1
        print("lint baseline clean: %d target(s), %d finding(s)"
              % (len(payload), len(findings)))
        return 0
    # Error-severity findings fail the command (warnings/info do not).
    status = 1 if any(f.severity == "error" for f in findings) else 0
    if args.json:
        print(json.dumps({"subjects": payload}, indent=2, sort_keys=True))
        return status
    print(render_text(findings))
    if args.paths:
        for name in sorted(payload):
            space = payload[name].get("path_space")
            if space:
                print("%s: %d of %d Ball-Larus paths statically infeasible "
                      "(%d dead edges)"
                      % (name, space["infeasible_paths"], space["num_paths"],
                         space["dead_edges"]))
    return status


def cmd_solve(args):
    """``repro solve``: path condition + bounded flip solving for one input.

    The command-line face of the concolic stage (DESIGN §14): replay the
    input under the shadow interpreter with every byte symbolic, print the
    collected path condition, then ask the bounded solver for a witness
    flipping each constraint — verifying every witness by concrete replay.
    """
    import json as _json
    import sys

    from repro.analysis.solver import apply_witness, solve_flip
    from repro.analysis.symbolic import extract_path_condition
    from repro.lang import compile_source
    from repro.runtime.interpreter import execute

    run_kwargs = {}
    if os.path.isfile(args.target):
        with open(args.target) as handle:
            source = handle.read()
        name = args.target
        program = compile_source(source, name)
    else:
        try:
            subject = get_subject(args.target)
        except KeyError:
            raise SystemExit(
                "repro solve: error: %r is neither a subject nor a file"
                % args.target
            )
        name = subject.name
        program = subject.program
        run_kwargs = dict(
            instr_budget=subject.exec_instr_budget,
            call_depth_limit=subject.call_depth_limit,
        )
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.input, "rb") as handle:
            data = handle.read()

    result, condition = extract_path_condition(
        program,
        data,
        instr_budget=run_kwargs.get("instr_budget", 400_000),
        call_depth_limit=run_kwargs.get("call_depth_limit", 64),
    )
    rows = []
    budget = args.flips if args.flips and args.flips > 0 else len(condition)
    attempted = 0
    for constraint in condition:
        row = {
            "index": constraint.index,
            "site": "%s:%d" % constraint.site,
            "support": sorted(constraint.support()),
            "constraint": constraint.describe(),
        }
        if attempted < budget:
            attempted += 1
            assignment, stats = solve_flip(
                constraint,
                condition.prefix(constraint.index),
                data,
                max_bytes=args.max_bytes,
                node_budget=args.node_budget,
            )
            row["nodes"] = stats.nodes
            if assignment is None:
                row["witness"] = None
                row["gave_up"] = stats.gave_up
            else:
                witness = apply_witness(data, assignment)
                replay = execute(program, witness, **run_kwargs)
                row["witness"] = {
                    "assignment": {
                        str(off): value
                        for off, value in sorted(assignment.items())
                    },
                    "bytes": witness.hex(),
                    "retval": replay.retval,
                    "trap": (
                        replay.trap.kind if replay.trap is not None else None
                    ),
                }
        rows.append(row)
    if args.json:
        print(_json.dumps({
            "target": name,
            "input_len": len(data),
            "trapped": result.trap.kind if result.trap is not None else None,
            "truncated": condition.truncated,
            "constraints": rows,
        }, indent=2, sort_keys=True))
        return 0
    print("%s: %d byte(s), %d symbolic constraint(s)%s"
          % (name, len(data), len(condition),
             ", truncated" if condition.truncated else ""))
    if result.trap is not None:
        print("  input already traps: %s" % result.trap.kind)
    for row in rows:
        print("  [%d] %s" % (row["index"], row["constraint"]))
        if "witness" not in row:
            print("      (not attempted; raise --flips)")
        elif row["witness"] is None:
            why = "support cap" if row.get("gave_up") else (
                "%d nodes exhausted" % args.node_budget)
            print("      unsolved (%s)" % why)
        else:
            witness = row["witness"]
            edits = ", ".join(
                "byte[%s]=%d" % item for item in witness["assignment"].items()
            )
            outcome = (
                "TRAP %s" % witness["trap"]
                if witness["trap"]
                else "retval %d" % witness["retval"]
            )
            print("      flipped with %s (%d nodes) -> %s"
                  % (edits, row["nodes"], outcome))
    return 0


def cmd_telemetry(args):
    from repro.telemetry import render

    if args.action == "report":
        for path in args.traces:
            if not os.path.exists(path):
                raise SystemExit(
                    "repro telemetry: error: no trace at %r" % path
                )
        lines = render.render_report(
            args.traces, html_path=args.html, markdown_path=args.markdown
        )
        for line in lines:
            print(line)
        if args.tail:
            events, _ = render.load_traces(args.traces)
            print()
            for line in render.tail_lines(events)[-args.tail:]:
                print(line)
        if args.html:
            print("wrote %s" % args.html)
        if args.markdown:
            print("wrote %s" % args.markdown)
        return 0
    # action == "overhead"
    from repro.telemetry.overhead import measure_overhead

    report = measure_overhead(
        subject_name=args.subject,
        config_name=args.config,
        hours=args.hours,
        scale=args.scale,
        repeats=args.repeats,
        gate_pct=args.gate,
        trace_dir=args.trace_dir,
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_bench(args):
    from repro.experiments import bench as _bench

    feedback = args.feedback or _bench.DEFAULT_FEEDBACK
    report = _bench.run_bench(
        subjects=args.subjects or None,
        feedback=feedback,
        quick=args.quick,
        repeats=args.repeats,
        progress=lambda row: print(_bench.format_row(row)),
    )
    print("geomean speedup: %.2fx" % report["geomean_speedup"])
    path = _bench.write_report(report, args.out_dir)
    print("wrote %s" % path)
    if args.write_baseline:
        os.makedirs(os.path.dirname(args.baseline) or ".", exist_ok=True)
        with open(args.baseline, "w") as fh:
            import json

            json.dump(_bench.baseline_from_report(report), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.baseline)
        return 0
    if not os.path.exists(args.baseline):
        print("no baseline at %s; gate skipped" % args.baseline)
        return 0
    with open(args.baseline) as fh:
        import json

        baseline = json.load(fh)
    failures = _bench.check_against_baseline(
        report, baseline, gate_pct=args.gate_pct
    )
    for failure in failures:
        print("REGRESSION: %s" % failure)
    if failures:
        return 1
    print("bench gate passed (within %.0f%% of baseline)" % args.gate_pct)
    return 0


def _parse_submit_spec(text):
    """``subject[:config[:seed[:tenant[:prio]]]]`` -> submit() kwargs."""
    from repro.service import AdmissionError
    from repro.service.orchestrator import check_admissible

    parts = text.split(":")
    subject = parts[0]
    config = parts[1] if len(parts) > 1 and parts[1] else "path"
    try:
        check_admissible(subject, config)
    except AdmissionError as exc:
        raise SystemExit("repro serve: error: %s in --submit %r" % (exc, text))
    try:
        run_seed = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        priority = int(parts[4]) if len(parts) > 4 and parts[4] else 0
    except ValueError:
        raise SystemExit(
            "repro serve: error: non-integer seed/priority in --submit %r"
            % text
        )
    tenant = parts[3] if len(parts) > 3 and parts[3] else "default"
    return {
        "subject": subject,
        "config": config,
        "run_seed": run_seed,
        "tenant": tenant,
        "priority": priority,
    }


def _print_job_table(jobs):
    for job_id in sorted(jobs):
        snap = jobs[job_id].snapshot()
        line = "  %-8s %-9s %s/%s#%d tenant=%s attempts=%d retries=%d" % (
            snap["job"], snap["state"], snap["subject"], snap["config"],
            snap["run_seed"], snap["tenant"], snap["attempts"],
            snap["retries_used"],
        )
        summary = snap.get("summary") or {}
        if summary:
            line += "  %d execs, %d crash sig(s)" % (
                summary.get("execs", 0), len(summary.get("crash_sigs", ())),
            )
        reason = snap.get("reason")
        if reason:
            line += "  [%s] %s" % (reason["category"], reason["detail"])
        print(line)


def cmd_serve(args):
    import asyncio

    from repro.fuzzer.supervisor import RestartPolicy
    from repro.fuzzer.store import StoreLockError
    from repro.service import AdmissionError, CampaignService, TenantPolicy
    from repro.service.lease import LeaseLostError

    if args.trace:
        from repro import telemetry as _telemetry

        os.environ[_telemetry.TRACE_ENV] = args.trace
        _telemetry.start_trace(args.trace)
    policies = []
    for text in args.tenant:
        parts = text.split(":")
        if len(parts) != 4:
            raise SystemExit(
                "repro serve: error: --tenant wants NAME:RUN:PEND:RETRIES, "
                "got %r" % text
            )
        try:
            policies.append(
                TenantPolicy(parts[0], int(parts[1]), int(parts[2]),
                             int(parts[3]))
            )
        except ValueError:
            raise SystemExit(
                "repro serve: error: non-integer quota in --tenant %r" % text
            )
    submissions = [_parse_submit_spec(text) for text in args.submit]
    try:
        service = CampaignService(
            args.root,
            max_workers=args.max_workers,
            policies=policies,
            restart_policy=RestartPolicy(
                max_restarts=args.max_retries, backoff_base=0.05,
                backoff_max=1.0
            ),
            heartbeat_timeout=args.heartbeat_timeout,
            wall_budget=args.wall_budget,
            fsync=not args.no_fsync,
            lease_ttl=args.lease_ttl,
            standby_wait=args.standby,
            compact_after=args.compact_after,
            poll_interval=args.poll,
            service_index=args.service_index,
        )
    except StoreLockError as exc:
        raise SystemExit(
            "repro serve: error: %s (use --standby SECS to wait for the "
            "lease to lapse)" % exc
        )
    try:
        if service.quarantined:
            print("WARNING: quarantined %d damaged journal record(s)"
                  % len(service.quarantined))
        for kwargs in submissions:
            try:
                job_id = service.submit(
                    budget_ticks=args.budget_ticks,
                    max_retries=args.max_retries,
                    **kwargs,
                )
            except AdmissionError as exc:
                print("refused %s/%s#%d: %s"
                      % (kwargs["subject"], kwargs["config"],
                         kwargs["run_seed"], exc))
                continue
            print("submitted %s: %s/%s#%d (tenant=%s, prio=%d)"
                  % (job_id, kwargs["subject"], kwargs["config"],
                     kwargs["run_seed"], kwargs["tenant"], kwargs["priority"]))
        if args.daemon:
            print("daemon on %s (fence epoch %d): waiting for jobs; stop "
                  "with `repro job %s drain`"
                  % (args.root, service.lease.epoch, args.root))
        try:
            summary = asyncio.run(
                service.serve_forever() if args.daemon
                else service.run_until_idle()
            )
        except LeaseLostError as exc:
            # Another service fenced this one off the root.  Exit distinct
            # from failure: our journaled work up to the steal is intact.
            print("FENCED: %s" % exc)
            return 75
        print("served %d job(s): %s" % (
            summary["jobs"],
            ", ".join("%d %s" % (count, state)
                      for state, count in sorted(summary["states"].items()))
            or "none",
        ))
        _print_job_table(service.jobs)
        signatures = service.crash_signatures()
        print("deduped crash signatures: %d unique (%d artifact(s))"
              % (summary["dedupe"]["unique"], summary["dedupe"]["total"]))
        for sig, count in signatures.items():
            print("  sig:%s  %d artifact(s) via %s"
                  % (sig, count, ",".join(service.dedupe.jobs_for(sig))))
        degraded = summary["states"].get("degraded", 0)
        if degraded:
            print("WARNING: %d job(s) degraded (see reasons above)" % degraded)
        return 1 if degraded else 0
    finally:
        service.close()
        if args.trace:
            from repro.telemetry.bus import get_bus

            get_bus().flush()
            print("telemetry trace: %s" % args.trace)


def cmd_job(args):
    import json

    from repro.fuzzer.store import StoreLockError
    from repro.service import AdmissionError, list_job_crashes, submit_offline
    from repro.service.intake import drain_request
    from repro.service.orchestrator import (
        JOBS_DIR,
        cancel_offline,
        compact_offline,
        load_service_state,
    )

    if args.action == "submit":
        try:
            job_id = submit_offline(
                args.root,
                subject=args.subject,
                config=args.config,
                run_seed=args.run_seed,
                tenant=args.tenant,
                priority=args.priority,
                budget_ticks=args.budget_ticks,
                max_retries=args.max_retries,
                require_checkpoint=args.require_checkpoint,
            )
        except AdmissionError as exc:
            raise SystemExit("repro job: error: %s" % exc)
        if job_id.startswith("req-"):
            print("requested %s (a live service owns %s; track it with "
                  "`repro job %s status %s`)"
                  % (job_id, args.root, args.root, job_id))
        else:
            print("journaled %s (runs on the next `repro serve %s`)"
                  % (job_id, args.root))
        return 0
    if args.action == "cancel":
        try:
            result = cancel_offline(args.root, args.job_id)
        except KeyError:
            raise SystemExit(
                "repro job: error: unknown job %r" % args.job_id
            )
        if result is True:
            print("cancelled %s" % args.job_id)
        elif result is False:
            print("%s already terminal; nothing to cancel" % args.job_id)
        else:
            print("requested %s (a live service owns %s; it re-checks and "
                  "settles the cancel)" % (result, args.root))
        return 0
    if args.action == "drain":
        nonce = drain_request(args.root)
        print("requested %s (the daemon on %s finishes its backlog and "
              "exits)" % (nonce, args.root))
        return 0
    if args.action == "compact":
        try:
            path = compact_offline(args.root)
        except StoreLockError as exc:
            raise SystemExit(
                "repro job: error: %s (a live daemon compacts on its own "
                "cadence; stop it first)" % exc
            )
        if path is None:
            print("nothing to compact (empty journal)")
        else:
            print("compacted into %s" % os.path.basename(path))
        return 0
    state, quarantined, pending = load_service_state(args.root)
    jobs, epochs, conflicts = state.jobs, state.epochs, state.conflicts
    if args.action == "status":
        if args.job_id is not None and args.job_id.startswith("req-"):
            # An intake nonce: resolve it through the fold's settled-request
            # table, falling back to the still-pending request files.
            if args.job_id in state.handled:
                job_id = state.handled[args.job_id]
                if job_id is None:
                    print("%s: settled (refused or acknowledged)"
                          % args.job_id)
                    return 0
                print("%s -> %s" % (args.job_id, job_id))
                args.job_id = job_id
            elif any(req["nonce"] == args.job_id for req in pending):
                print("%s: pending (no daemon has settled it yet)"
                      % args.job_id)
                return 0
            else:
                raise SystemExit(
                    "repro job: error: unknown request %r" % args.job_id
                )
        if args.job_id is not None:
            if args.job_id not in jobs:
                raise SystemExit(
                    "repro job: error: unknown job %r" % args.job_id
                )
            snaps = [jobs[args.job_id].snapshot()]
        else:
            snaps = [jobs[job_id].snapshot() for job_id in sorted(jobs)]
        if args.json:
            print(json.dumps(
                {
                    "epochs": epochs,
                    "conflicts": conflicts,
                    "quarantined": len(quarantined),
                    "pending_requests": [req["nonce"] for req in pending],
                    "jobs": snaps,
                },
                indent=2, sort_keys=True,
            ))
            return 0
        print("%d job(s), %d service epoch(s), %d fold conflict(s), "
              "%d quarantined record(s), %d pending request(s)"
              % (len(jobs), epochs, conflicts, len(quarantined),
                 len(pending)))
        _print_job_table({snap["job"]: jobs[snap["job"]] for snap in snaps})
        return 0
    # action == "crashes"
    if args.job_id not in jobs:
        raise SystemExit("repro job: error: unknown job %r" % args.job_id)
    crashes = list_job_crashes(
        os.path.join(os.path.abspath(args.root), JOBS_DIR), args.job_id
    )
    if args.json:
        print(json.dumps(crashes, indent=2, sort_keys=True))
        return 0
    print("%d crash artifact(s) for %s" % (len(crashes), args.job_id))
    for crash in crashes:
        triage = crash["triage"] or {}
        frames = triage.get("stack") or triage.get("frames") or []
        top = frames[0] if frames else "?"
        print("  sig:%s  %s  top=%s" % (crash["sig"], crash["path"], top))
    return 0


def cmd_report(args):
    from repro.experiments.report import main as report_main

    if args.jobs is not None:
        # The report modules call run_matrix without a jobs argument; the
        # environment knob is how the fan-out degree reaches them.
        os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.resume:
        # Durable matrix cells: campaigns checkpoint periodically and a
        # crashed/retried cell resumes from its snapshot (see runner docs).
        from repro.experiments.runner import _cache_dir

        os.environ.setdefault(
            "REPRO_CHECKPOINT_DIR", os.path.join(_cache_dir(), "checkpoints")
        )
        os.environ.setdefault("REPRO_CELL_RESTARTS", "2")
    report_main(args.artifacts)
    return 0


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        # Configure the package logger for every subcommand; basicConfig is
        # a no-op when the root logger is already set up, so this composes
        # with embedding applications.
        logging.basicConfig(level=logging.INFO, format="%(message)s")
        logging.getLogger("repro").setLevel(logging.INFO)
    handler = {
        "list": cmd_list,
        "show": cmd_show,
        "fuzz": cmd_fuzz,
        "cmin": cmd_cmin,
        "lint": cmd_lint,
        "solve": cmd_solve,
        "report": cmd_report,
        "telemetry": cmd_telemetry,
        "bench": cmd_bench,
        "serve": cmd_serve,
        "job": cmd_job,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
