"""Campaign runner with memoization.

Tables II, III, IV and VI all consume the *same* campaigns (the paper
derives them from one set of 10 x 48 h runs per subject/fuzzer), so the
runner caches results both in-process and on disk.  The disk cache key
includes a fingerprint of the package sources, so code changes invalidate
it automatically.

Scaling knobs (environment):

- ``REPRO_SCALE``    virtual-hours multiplier (default 0.25: one paper hour
  is 100 000 ticks — a few thousand executions);
- ``REPRO_RUNS``     repetitions per (subject, config) pair (default 3;
  the paper used 10);
- ``REPRO_SUBJECTS`` comma-separated subject allowlist (default: all 18);
- ``REPRO_NO_CACHE`` set to disable the on-disk cache;
- ``REPRO_JOBS``     worker processes for :func:`run_matrix` (default 1,
  i.e. the sequential path; any N > 1 fans cells out over N processes
  with identical results — see :mod:`repro.fuzzer.parallel`);
- ``REPRO_CHECKPOINT_DIR``  directory for campaign checkpoints: long cells
  snapshot their engine state there periodically and *resume* instead of
  recomputing from zero after a crash/retry (``repro report --resume``);
- ``REPRO_CELL_RESTARTS``   transient-failure retries per matrix cell
  (default 0; crashed/timed-out cells are restarted with backoff and,
  with checkpointing on, pick up from their last snapshot).
"""

import hashlib
import os
import pickle

from repro.experiments.config import FUZZER_CONFIGS, run_config
from repro.fuzzer.clock import hours_to_ticks
from repro.subjects import get_subject, subject_names

_MEMORY_CACHE = {}
_SOURCE_FINGERPRINT = None


def profile_scale():
    return float(os.environ.get("REPRO_SCALE", "0.25"))


def profile_runs():
    return int(os.environ.get("REPRO_RUNS", "3"))


def profile_subjects():
    names = os.environ.get("REPRO_SUBJECTS")
    if not names:
        return subject_names()
    return [n.strip() for n in names.split(",") if n.strip()]


def profile_jobs():
    return int(os.environ.get("REPRO_JOBS", "1"))


def _cache_dir():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    return os.path.join(root, ".repro_cache")


def _source_fingerprint():
    """Hash of (path, size, mtime) for every package source file."""
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is not None:
        return _SOURCE_FINGERPRINT
    package_root = os.path.dirname(os.path.dirname(__file__))
    hasher = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            stat = os.stat(path)
            hasher.update(
                ("%s|%d|%d" % (path, stat.st_size, int(stat.st_mtime))).encode()
            )
    _SOURCE_FINGERPRINT = hasher.hexdigest()[:16]
    return _SOURCE_FINGERPRINT


def source_fingerprint():
    """Public fingerprint of the package sources.

    Checkpoint files embed it (see :mod:`repro.fuzzer.checkpoint`) so that
    resuming a snapshot across a code change is refused instead of
    silently diverging — the same invalidation rule the result cache uses.
    """
    return _source_fingerprint()


def profile_checkpoint_dir():
    """Directory for durable campaign checkpoints (None: checkpointing off)."""
    return os.environ.get("REPRO_CHECKPOINT_DIR") or None


def _campaign_token(subject_name, config_name, run_seed, hours, scale):
    return "%s-%s-%d-%s-%s-%s" % (
        subject_name,
        config_name,
        run_seed,
        hours,
        scale,
        _source_fingerprint(),
    )


def _campaign_checkpoint_path(subject_name, config_name, run_seed, hours, scale):
    """Per-cell checkpoint file (same identity key as the result cache)."""
    directory = profile_checkpoint_dir()
    if not directory:
        return None
    token = _campaign_token(subject_name, config_name, run_seed, hours, scale)
    digest = hashlib.sha256(token.encode()).hexdigest()[:24]
    return os.path.join(directory, "campaign-%s.ckpt" % digest)


def campaign(subject_name, config_name, run_seed, hours, scale=None):
    """One (possibly cached) campaign; ``hours`` are paper-campaign hours.

    With ``REPRO_CHECKPOINT_DIR`` set, the campaign periodically snapshots
    its engine state and — if a prior attempt died mid-run — resumes from
    the snapshot instead of recomputing from zero, which is what makes
    matrix-cell retries cheap for long campaigns.
    """
    scale = profile_scale() if scale is None else scale
    key = (subject_name, config_name, run_seed, hours, scale)
    if key in _MEMORY_CACHE:
        return _MEMORY_CACHE[key]
    use_disk = not os.environ.get("REPRO_NO_CACHE")
    disk_path = None
    if use_disk:
        token = _campaign_token(subject_name, config_name, run_seed, hours, scale)
        digest = hashlib.sha256(token.encode()).hexdigest()[:24]
        disk_path = os.path.join(_cache_dir(), digest + ".pkl")
        if os.path.exists(disk_path):
            with open(disk_path, "rb") as handle:
                result = pickle.load(handle)
            _MEMORY_CACHE[key] = result
            return result
    subject = get_subject(subject_name)
    budget = hours_to_ticks(hours, scale)
    checkpoint_path = _campaign_checkpoint_path(
        subject_name, config_name, run_seed, hours, scale
    )
    telemetry = None
    if FUZZER_CONFIGS[config_name].kind == "plain":
        # With REPRO_TRACE set, every fresh (uncached) matrix cell traces
        # into its own suffixed JSONL file; cache hits stay silent.
        from repro import telemetry as _telemetry

        telemetry = _telemetry.engine_telemetry(
            label="%s-%s-%d" % (subject_name, config_name, run_seed),
            budget_ticks=budget,
        )
    result = run_config(
        subject, config_name, run_seed, budget, checkpoint_path=checkpoint_path,
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.finish(budget)
    _MEMORY_CACHE[key] = result
    if disk_path is not None:
        os.makedirs(_cache_dir(), exist_ok=True)
        tmp_path = disk_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            pickle.dump(result, handle)
        os.replace(tmp_path, disk_path)
    if checkpoint_path is not None and os.path.exists(checkpoint_path):
        # The campaign completed; its resume point is no longer needed.
        try:
            os.remove(checkpoint_path)
        except OSError:
            pass
    return result


def run_matrix(config_names, hours, subjects=None, runs=None, scale=None, jobs=None):
    """Campaigns for every (subject, config, run-seed) combination.

    Returns {(subject_name, config_name, run_seed): CampaignResult}.

    With ``jobs`` > 1 (default: the ``REPRO_JOBS`` environment knob) cells
    are fanned out over a process pool; per-cell RNGs depend only on the
    cell key, so the result dict is equal to the sequential one.  A cell
    whose worker fails is reported (with every completed cell attached)
    via :class:`~repro.fuzzer.parallel.ParallelMatrixError` only after the
    rest of the matrix has finished.
    """
    subjects = profile_subjects() if subjects is None else subjects
    runs = profile_runs() if runs is None else runs
    jobs = profile_jobs() if jobs is None else int(jobs)
    keys = [
        (subject_name, config_name, run_seed)
        for subject_name in subjects
        for config_name in config_names
        for run_seed in range(runs)
    ]
    if jobs > 1 and len(keys) > 1:
        return _run_matrix_parallel(keys, hours, scale, jobs)
    results = {}
    for key in keys:
        results[key] = campaign(key[0], key[1], key[2], hours, scale)
    return results


def _run_matrix_parallel(keys, hours, scale, jobs):
    """Fan uncached cells out over worker processes (cache-aware)."""
    from repro.fuzzer.parallel import ParallelMatrixError, run_cells

    scale = profile_scale() if scale is None else scale
    results = {}
    tasks = {}
    for key in keys:
        mem_key = key + (hours, scale)
        if mem_key in _MEMORY_CACHE:
            results[key] = _MEMORY_CACHE[mem_key]
        else:
            # Workers re-check the on-disk cache themselves (and write to
            # it), so only the in-process memoization is resolved here.
            tasks[key] = key + (hours, scale)
    if tasks:
        fresh, failures = run_cells(tasks, jobs=jobs)
        for key, result in fresh.items():
            _MEMORY_CACHE[key + (hours, scale)] = result
            results[key] = result
        if failures:
            raise ParallelMatrixError(failures, results)
    return results


def cumulative_bugs(results, subjects, config_names, runs):
    """Per-(subject, config) union of bugs across runs — the paper's
    "cumulatively across the 10 runs" aggregation."""
    out = {}
    for subject_name in subjects:
        for config_name in config_names:
            bugs = set()
            for run_seed in range(runs):
                bugs |= results[(subject_name, config_name, run_seed)].bugs
            out[(subject_name, config_name)] = bugs
    return out


def cumulative_crashes(results, subjects, config_names, runs):
    """Per-(subject, config) union of unique-crash stack hashes across runs."""
    out = {}
    for subject_name in subjects:
        for config_name in config_names:
            hashes = set()
            for run_seed in range(runs):
                hashes |= results[(subject_name, config_name, run_seed)].unique_crash_hashes
            out[(subject_name, config_name)] = hashes
    return out
