"""Campaign benchmark: wall seconds per virtual hour, and where they go.

Usage, from the repository root::

    python3 campaign_bench/run.py --workload loop-compiled --seed 1 \
        --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``loop-compiled``: ``path`` campaigns, compiled backend, cheap subjects;
- ``exec-compiled``: ``path`` campaigns, compiled backend, deep subjects;
- ``durable-interp``: ``concolic`` campaigns on the interpreter with a
  fsync'ing store, budget/8 checkpoints and a JSONL telemetry trace;
- ``shadow``: closed-loop taint/extract/solve/replay analysis requests.

One process runs the workload, one campaign or request at a time.  After a
cold set-up (sampled several times, median reported) it runs the
workload's fixed campaign or request list over and over until ``--seconds``
have elapsed.  Pass 1 is checked (replays, re-traps, store and checkpoint
read-back, witness soundness); every later run of an op must repeat pass
1's trajectory digest.  Each mismatch counts as a failed op.  Times are the
best of passes for every campaign slice (and the campaign's tail: final
replay and result assembly) or shadow request, summed; percentiles over
checkpoint windows split each campaign's time by the slices' median
shares of it.  Times are then scaled to reference speed: this host
can slow a whole run by up to 2x for minutes, so each run also times a
fixed pure-Python kernel (``reference_kernel``) between ops and reports
seconds as they would read on a host where that kernel takes
``REFERENCE_S`` (see :class:`HostSpeed`).  The raw figures are printed
next to them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
campaign or request untraced and then traced, requires equal results,
times the layers' public entry points from outside, runs the controlled
execute variants, writes the spans under ``.bench_work/`` and prints the
per-layer metrics.  The last stdout line is one JSON object.

Metric notes: on campaign workloads a "request" is one checkpoint window
of a campaign (budget/8 virtual ticks, the unit a ``repro job`` worker
runs between checkpoints), the virtual-hour percentiles are taken over
the same windows, and ``witnesses`` counts the replay-verified queue
entries, crash records and hang records.  On ``shadow``, virtual hours are
the ticks the engine would charge for the same work, ``witnesses`` counts
solver witnesses verified by replay, and ``edges``/``bugs`` are the
distinct edges and ground-truth bugs reached by inputs and witnesses.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Variables that would silently change what a campaign does or where it
#: reads and writes; the benchmark sets every switch explicitly instead.
PINNED_ENV = (
    "REPRO_BACKEND",
    "REPRO_TAINT",
    "REPRO_CONCOLIC",
    "REPRO_TRACE",
    "REPRO_FAULTS",
    "REPRO_COMPILE_CACHE",
)

#: Set-up samples per run; the median is reported.  A sample is the
#: fastest of a group of cold set-ups, as every other time here is a best
#: of passes: an interpreted workload sets up in about 20 ms, so a single
#: set-up often lands in one of the host's bursts of contention.  Groups
#: hold at most SETUP_GROUP_MAX set-ups and are sized so that a run
#: spends about SETUP_BUDGET_S setting up.
SETUP_SAMPLES = 9
SETUP_GROUP_MAX = 10
SETUP_BUDGET_S = 3.0

#: Seconds the reference kernel takes on the reference host: about what it
#: takes on a 2-vCPU x86-64 VM with Python 3.11 while the host is idle.
REFERENCE_S = 1e-3
REFERENCE_LOOPS = 2000
#: Minimum spacing of kernel samples, which keeps the probe near 2% of a run.
REFERENCE_EVERY_S = 0.05
#: Most stretches a pass is split into by :class:`HostSpeed`.
SPEED_BINS = 16

WORK_DIR = os.path.join(ROOT, ".bench_work")


def reference_kernel():
    """Fixed interpreter work shaped like the fuzzing loop.

    Seeded RNG draws, bytearray edits and dict counts.  It uses nothing
    from ``repro``, so no change to the program can move it.
    """
    rng = random.Random(0)
    data = bytearray(range(256))
    counts = {}
    for i in range(REFERENCE_LOOPS):
        j = rng.randrange(256)
        data[j] = (data[(j * 7) & 255] + i) & 255
        counts[j & 63] = counts.get(j & 63, 0) + 1
    return bytes(data), len(counts)


class HostSpeed:
    """Times of :func:`reference_kernel` taken through a run.

    Between ops the kernel is timed, at most every REFERENCE_EVERY_S, and
    each sample is filed under the stretch of the pass it followed (one
    stretch per op on campaign workloads, SPEED_BINS at most).  The run's
    kernel time is the median over stretches of each stretch's best of
    passes: the same best of passes the op times get, so a run whose ops
    rarely met a fast stretch of the host is scaled by a kernel that
    rarely did either.
    """

    def __init__(self):
        self.best = float("inf")
        self.samples = 0
        self._last = 0.0
        self._stretches = {}

    def sample(self, stretch=None):
        """Time the kernel once; returns the seconds it took."""
        start = time.perf_counter()
        reference_kernel()
        self._last = time.perf_counter()
        elapsed = self._last - start
        self.best = min(self.best, elapsed)
        self.samples += 1
        if stretch is not None:
            self._stretches[stretch] = min(self._stretches.get(stretch, elapsed), elapsed)
        return elapsed

    def maybe_sample(self, stretch):
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample(stretch)

    @property
    def kernel_s(self):
        if not self._stretches:
            return self.best
        return statistics.median(self._stretches.values())

    @property
    def scale(self):
        """Factor from measured seconds to reference-speed seconds."""
        return REFERENCE_S / self.kernel_s


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def source_commit():
    """The checkout's git commit when there is one, else ``"none"``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "none"


class Tally:
    """Ops attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures)

    def op(self, ok, message):
        self.add(1, [] if ok else [message])


def time_setup(wl, speed):
    """Set-up samples: (median scaled total, median raw total, parts, group).

    A sample is the fastest cold set-up of its group, parts included,
    scaled by the fastest reference kernel timed within the same group:
    the host's speed drifts within a run, and set-up takes only one stretch
    of it.  ``parts`` holds the per-subject medians of the raw samples.
    """
    from workloads import cold_setup

    def one():
        rows = {}
        for name, (front, instrument, codegen) in cold_setup(wl).items():
            rows[name] = {
                "front_s": front,
                "instrument_s": instrument,
                "codegen_s": codegen["plain"] + codegen["cmplog"],
                "codegen_plain_s": codegen["plain"],
                "codegen_cmplog_s": codegen["cmplog"],
            }
        total = sum(r["front_s"] + r["instrument_s"] + r["codegen_s"] for r in rows.values())
        return total, rows

    first = one()
    group = int(SETUP_BUDGET_S / (SETUP_SAMPLES * first[0]))
    group = max(1, min(SETUP_GROUP_MAX, group))
    scaled, samples = [], []
    for k in range(SETUP_SAMPLES):
        runs = [first] if k == 0 else []
        kernel = speed.sample()
        while len(runs) < group:
            runs.append(one())
            kernel = min(kernel, speed.sample())
        total, rows = min(runs, key=lambda run: run[0])
        scaled.append(total * REFERENCE_S / kernel)
        samples.append((total, rows))
    medians = {
        name: {
            key: statistics.median(rows[name][key] for _total, rows in samples)
            for key in row
        }
        for name, row in samples[0][1].items()
    }
    raw = statistics.median(total for total, _rows in samples)
    return statistics.median(scaled), raw, medians, group


def run_item(wl, item, contexts, rec=None):
    """Run one campaign or shadow request (``contexts``: per-subject state)."""
    from workloads import ShadowContext, run_campaign, run_request

    if wl.kind == "campaign":
        subject, run_seed = item
        return run_campaign(wl, subject, run_seed, os.path.join(WORK_DIR, wl.name), rec=rec)
    subject, index, data = item
    ctx = contexts.get(subject)
    if ctx is None:
        ctx = contexts[subject] = ShadowContext(subject)
    return run_request(wl, ctx, "%s/%d" % (subject, index), data, rec=rec)


def same_outcome(wl, first, second):
    if wl.kind == "campaign":
        return first.result == second.result and first.digest == second.digest
    return first.digest == second.digest and first.ticks == second.ticks


def check_first(wl, run, contexts, tally):
    """Pass-1 output checks; returns how many outputs were verified."""
    from workloads import check_campaign, check_request

    if wl.kind == "campaign":
        attempted, failures, verified = check_campaign(wl, run)
    else:
        attempted, failures, verified = check_request(contexts[run.subject_name], run)
    tally.add(attempted, failures)
    return verified


def measure(wl, seed, seconds, traced, speed):
    """Run the workload's ops in turn until ``seconds`` elapse.

    Pass 1 always completes.  A traced run ends on a pass boundary, since
    its per-layer figures are per pass; an untraced one stops at the first
    op boundary past ``seconds``, so its length does not depend on how long
    a pass is.  Returns the raw outcome.
    """
    from spans import SpanRecorder, patched_layers

    items = wl.items(seed)
    if wl.kind == "shadow":
        items = [(subject, i, data) for i, (subject, data) in enumerate(items)]
    count = len(items)
    tally = Tally()
    contexts = {}
    runs = {i: [] for i in range(count)}
    traced_runs = {i: [] for i in range(count)}
    first = {}
    verified = 0
    rec = SpanRecorder() if traced else None
    for _ in range(10):
        speed.sample()
    deadline = time.perf_counter() + seconds
    n = 0
    while n < count or (traced and n % count) or time.perf_counter() < deadline:
        i = n % count
        n += 1
        run = run_item(wl, items[i], contexts)
        tally.op(True, "")  # the campaign or request itself
        if n <= count:
            first[i] = run
            verified += check_first(wl, run, contexts, tally)
        else:
            tally.op(
                run.digest == first[i].digest,
                "%s: trajectory digest %s differs from pass 1's %s"
                % (run.label, run.digest, first[i].digest),
            )
        runs[i].append(run)
        if traced:
            with patched_layers(rec):
                traced_run = run_item(wl, items[i], contexts, rec=rec)
            tally.op(
                same_outcome(wl, run, traced_run),
                "%s: traced result differs from the untraced one" % run.label,
            )
            traced_run.slim()
            traced_runs[i].append(traced_run)
        if n > count:
            run.slim()  # keep memory flat: pass 1 holds what checks need
        speed.maybe_sample(i * min(count, SPEED_BINS) // count)
    return {
        "runs": runs,
        "traced_runs": traced_runs,
        "first": first,
        "verified": verified,
        "tally": tally,
        "rec": rec,
        "passes": n // count,
        "ops": n,
        "contexts": contexts,
    }


def checkpoint_windows(wl, run, walls):
    """[(wall, ticks)] per checkpoint window of a campaign.

    ``walls`` holds each slice's wall; a slice belongs to the window
    (budget/CHECKPOINTS ticks) its last tick falls in.
    """
    from workloads import CHECKPOINTS

    span = max(1, wl.budget // CHECKPOINTS)
    windows, ticks = {}, 0
    for wall, (_, delta) in zip(walls, run.slices):
        ticks += delta
        window = windows.setdefault(max(0, ticks - 1) // span, [0.0, 0])
        window[0] += wall
        window[1] += delta
    return [tuple(windows[key]) for key in sorted(windows)]


def end_to_end(wl, outcome, setup, scale):
    """The end-to-end metrics of one untraced measurement."""
    from layers import quantile
    from repro.fuzzer.clock import TICKS_PER_HOUR

    runs, first = outcome["runs"], outcome["first"]
    # Best of passes, per slice for campaigns and per request for shadow:
    # the host time-slices this VM in bursts of a few milliseconds, and a
    # short unit of work measured several times usually has one undisturbed
    # sample.  Every pass repeats the same trajectory, so slice k is the
    # same work in every pass.
    vhours = sum(first[i].vhours for i in runs)
    if wl.kind == "campaign":
        walls, windows = {}, []
        for i, rs in runs.items():
            rs = [r for r in rs if r.digest == first[i].digest]
            count = len(first[i].slices)
            best = [min(r.slices[k][0] for r in rs) for k in range(count)]
            walls[i] = min(r.wall - sum(w for w, _ in r.slices) for r in rs) + sum(best)
            # The percentiles split that wall by each slice's median share
            # of its campaign's wall: the host changes speed over seconds,
            # which slows a whole campaign alike and leaves the shares be,
            # whereas the slowest slices' bests depend on how many passes
            # of them landed in a fast stretch.
            split = [walls[i] * statistics.median(r.slices[k][0] / r.wall for r in rs)
                     for k in range(count)]
            windows.extend(checkpoint_windows(wl, first[i], split))
        slices = [wall / (ticks / TICKS_PER_HOUR) for wall, ticks in windows if ticks]
        requests = [wall for wall, _ticks in windows]
        unit = "checkpoint windows"
        execs = sum(first[i].result.execs for i in runs)
        edges = sum(len(first[i].result.edges) for i in runs)
        bugs = sum(len(first[i].result.bugs) for i in runs)
    else:
        walls = {i: min(r.wall for r in rs) for i, rs in runs.items()}
        execs = sum(first[i].execs for i in runs)
        slices = [walls[i] / first[i].vhours for i in runs]
        requests = list(walls.values())
        unit = "requests"
        by_subject = {}
        for run in first.values():
            by_subject.setdefault(run.subject_name, []).append(run)
        # Distinct edges and ground-truth bugs reached per subject.
        edges = sum(
            len(set().union(*(r.edges for r in rs))) for rs in by_subject.values()
        )
        bugs = sum(
            len(set().union(*(r.bugs for r in rs))) for rs in by_subject.values()
        )
    raw = sum(walls.values())
    wall = raw * scale
    slices = [value * scale for value in slices]
    requests = [value * scale * 1000.0 for value in requests]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s_per_vhour": (wall / vhours, "raw %.6g; n=%d ops, %.2f virtual hours"
                             % (raw / vhours, len(runs), vhours)),
        "vhour_wall_s_p50": (quantile(slices, 0.5), "n=%d %s" % (len(slices), unit)),
        "vhour_wall_s_p90": (quantile(slices, 0.9), "n=%d %s" % (len(slices), unit)),
        "execs_per_s": (execs / wall, "raw %.6g; %d execs per pass" % (execs / raw, execs)),
        "request_ms_p50": (quantile(requests, 0.5), "n=%d %s" % (len(requests), unit)),
        "request_ms_p90": (quantile(requests, 0.9), "n=%d %s" % (len(requests), unit)),
        "edges": (edges, "over %d ops" % len(runs)),
        "bugs": (bugs, "over %d ops" % len(runs)),
        "witnesses": (outcome["verified"], "replay-verified"),
        "setup_s": (setup[0], "raw %.6g; median of %d samples, each the best of %d "
                    "cold set-ups, scaled by the kernel timed next to them"
                    % (setup[1], SETUP_SAMPLES, setup[3])),
        "peak_rss_mb": (rss_mb, "ru_maxrss of this process"),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in PINNED_ENV:
        os.environ.pop(var, None)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    manifest = load_manifest()
    try:
        import repro
    except ImportError:
        raise SystemExit("cannot import repro from %s: run this from a checkout "
                         "of the repository" % src)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("repro imported from %s, not from this checkout's src/"
                         % repro.__file__)
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit("unknown workload %r (expected one of %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    from repro.experiments.runner import source_fingerprint

    print("workload %s seed %d seconds %g trace %d" % (
        wl.name, args.seed, args.seconds, args.trace))
    print("python %s, nproc %d, commit %s, source %s" % (
        platform.python_version(), os.cpu_count() or 0, source_commit(),
        source_fingerprint()))
    speed = HostSpeed()
    setup = time_setup(wl, speed)
    setup_parts = setup[2]
    for name, row in setup_parts.items():
        print("setup %-10s front %.4fs instrument %.4fs codegen plain %.4fs "
              "cmplog %.4fs" % (name, row["front_s"], row["instrument_s"],
                                row["codegen_plain_s"], row["codegen_cmplog_s"]))
    try:
        outcome = measure(wl, args.seed, args.seconds, bool(args.trace), speed)
        report(wl, args, outcome, setup, manifest, speed)
    finally:
        shutil.rmtree(os.path.join(WORK_DIR, wl.name), ignore_errors=True)
    return 0


def report(wl, args, outcome, setup, manifest, speed):
    """Print digests, the metrics table and the closing JSON line."""
    for i, run in sorted(outcome["first"].items()):
        if wl.kind == "campaign":
            result = run.result
            print("digest %s %s ticks %d execs %d queue %d crashes %d hangs %d"
                  % (run.label, run.digest, result.ticks, result.execs,
                     result.queue_size, len(result.crash_records), result.hangs))
        else:
            print("digest %s %s witnesses %d ticks %d"
                  % (run.label, run.digest, len(run.witnesses), run.ticks))
    if args.trace:
        from layers import per_layer

        metrics = per_layer(wl, outcome, setup[2])
        path = os.path.join(WORK_DIR, "spans-%s.json.gz" % wl.name)
        outcome["rec"].write(path)
        print("spans: %d written to %s" % (len(outcome["rec"].start), path))
        wanted = manifest["per_layer"]
    else:
        print("host speed: reference kernel best %.4f ms, median of stretch bests "
              "%.4f ms over %d samples; times below are scaled by %.4f"
              % (speed.best * 1e3, speed.kernel_s * 1e3, speed.samples, speed.scale))
        metrics = end_to_end(wl, outcome, setup, speed.scale)
        wanted = manifest["end_to_end"]
    tally = outcome["tally"]
    print("passes %d (%d ops), ops attempted %d, failed %d, failed_frac %g" % (
        outcome["passes"], outcome["ops"], tally.attempted, tally.failed,
        tally.failed / tally.attempted))
    for message in tally.messages[:20]:
        print("FAILED: " + message)
    out = {}
    for spec in wanted:
        value, note = metrics[spec["name"]]
        print("%-28s %14.6g %-8s %s" % (spec["name"], value, spec["unit"], note))
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    sys.exit(main())
