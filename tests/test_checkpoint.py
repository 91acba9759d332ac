"""Checkpoint/resume tests: the kill-and-resume determinism contract.

The load-bearing property: an engine killed mid-campaign and resumed from
its last on-disk checkpoint must be *tick-for-tick identical* to one that
was never interrupted — same executions, same queue, same crashes, same
timeline.  The file format's paranoia (magic, version, source fingerprint,
payload digest) is what lets resuming refuse to silently diverge.
"""

import contextlib
import os
import random
import signal

import pytest

import repro.experiments.runner as runner
from repro.experiments.config import build_session, run_config
from repro.experiments.runner import campaign
from repro.coverage.feedback import PathFeedback
from repro.fuzzer import faultinject
from repro.fuzzer.checkpoint import (
    MAGIC,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointStaleError,
    default_fingerprint,
    read_checkpoint,
    write_checkpoint,
)
from repro.fuzzer.engine import FuzzEngine
from repro.fuzzer.parallel import run_instance_campaign
from repro.fuzzer.session import (
    CHECKPOINT,
    FRESH,
    REFUSED,
    STORE,
    CampaignSession,
)
from repro.fuzzer.store import (
    CRASH_DIR,
    QUARANTINE_DIR,
    QUEUE_DIR,
    REPORT_SIDECAR,
    TRIAGE_SIDECAR,
    CampaignStore,
    parse_sealed_name,
    read_sealed,
)
from repro.fuzzer.supervisor import RestartPolicy
from repro.subjects import get_subject

BUDGET = 30_000  # ticks: a tiny but non-degenerate campaign


@pytest.fixture(autouse=True)
def fresh_caches(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    runner._MEMORY_CACHE.clear()
    yield
    runner._MEMORY_CACHE.clear()


def _engine(seed=0):
    subject = get_subject("flvmeta")
    return FuzzEngine(
        subject.program,
        PathFeedback(),
        subject.seeds,
        random.Random(seed),
        tokens=subject.tokens,
    )


def _engine_state(engine):
    """Everything the determinism contract compares."""
    return {
        "execs": engine.execs,
        "hangs": engine.hangs,
        "ticks": engine.clock.ticks,
        "cycle": engine.cycle,
        "queue": [e.data for e in engine.queue.entries],
        "favored": [e.favored for e in engine.queue.entries],
        "crash_count": engine.crash_count,
        "crashes": sorted(
            (h, r.count, r.found_at) for h, r in engine.unique_crashes.items()
        ),
        "virgin": dict(engine.virgin.bits),
        "timeline": list(engine.timeline),
        "rng": engine.rng.getstate(),
    }


# -- file format ---------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, {"x": [1, 2, 3]}, meta={"round": 7})
    state, meta = read_checkpoint(path)
    assert state == {"x": [1, 2, 3]}
    assert meta == {"round": 7}
    # The atomic write left no temp file of any name behind.
    assert [n for n in os.listdir(str(tmp_path)) if ".tmp" in n] == []


def test_checkpoint_bad_magic_is_corrupt(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, "payload")
    with open(path, "r+b") as handle:
        handle.write(b"NOTACKPT!!")
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_checkpoint_truncation_is_corrupt(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, list(range(1000)))
    size = os.path.getsize(path)
    for keep in (size - 5, len(MAGIC) + 30, 3):
        with open(path, "r+b") as handle:
            handle.truncate(keep)
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint(path)
        write_checkpoint(path, list(range(1000)))


def test_checkpoint_version_mismatch_is_stale(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, "payload")
    with open(path, "r+b") as handle:
        handle.seek(len(MAGIC))
        handle.write((99).to_bytes(2, "big"))
    with pytest.raises(CheckpointStaleError):
        read_checkpoint(path)


def test_checkpoint_fingerprint_mismatch_is_stale(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, "payload", fingerprint="a" * 16)
    # Default fingerprint (this source tree) does not match "aaaa...".
    assert default_fingerprint() != "a" * 16
    with pytest.raises(CheckpointStaleError):
        read_checkpoint(path)
    # The matching fingerprint, or opting out of the check, both read fine.
    state, _ = read_checkpoint(path, fingerprint="a" * 16)
    assert state == "payload"
    state, _ = read_checkpoint(path, check_fingerprint=False)
    assert state == "payload"


def test_checkpoint_flipped_payload_byte_is_corrupt(tmp_path):
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, {"k": "v"})
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        last = handle.read(1)
        handle.seek(-1, os.SEEK_END)
        handle.write(bytes([last[0] ^ 0xFF]))
    with pytest.raises(CheckpointCorruptError):
        read_checkpoint(path)


def test_write_checkpoint_rejects_malformed_fingerprint(tmp_path):
    with pytest.raises(ValueError):
        write_checkpoint(str(tmp_path / "x.ckpt"), "s", fingerprint="short")


# -- engine snapshot/restore ---------------------------------------------------


def test_snapshot_restore_continues_identically():
    interrupted = _engine(seed=11)
    interrupted.start(BUDGET)
    interrupted.run_until(BUDGET // 2)
    snap = interrupted.snapshot()

    resumed = _engine(seed=999)  # different RNG seed: state must come from snap
    resumed.restore(snap)
    resumed.run_until(BUDGET)
    resumed.finish()

    whole = _engine(seed=11)
    whole.run(BUDGET)
    assert _engine_state(resumed) == _engine_state(whole)


def test_snapshot_requires_started_engine():
    with pytest.raises(RuntimeError):
        _engine().snapshot()


def test_snapshot_is_frozen_against_further_fuzzing():
    engine = _engine(seed=3)
    engine.start(BUDGET)
    engine.run_until(BUDGET // 2)
    snap = engine.snapshot()
    queue_before = [e.data for e in snap["queue"]["entries"]]
    ticks_before = snap["clock"][0]
    engine.run_until(BUDGET)
    assert [e.data for e in snap["queue"]["entries"]] == queue_before
    assert snap["clock"][0] == ticks_before


def test_kill_and_resume_from_file_is_identical(tmp_path):
    path = str(tmp_path / "engine.ckpt")
    victim = _engine(seed=5)
    victim.start(BUDGET)
    victim.run_until(BUDGET // 3)
    victim.save_checkpoint(path, meta={"ticks": victim.clock.ticks})
    del victim  # the "kill": nothing survives but the file

    resumed = _engine(seed=5)
    meta = resumed.resume(path)
    assert meta["ticks"] == resumed.clock.ticks
    resumed.run_until(BUDGET)
    resumed.finish()

    whole = _engine(seed=5)
    whole.run(BUDGET)
    assert _engine_state(resumed) == _engine_state(whole)


def test_resume_refuses_corrupt_file_and_leaves_engine_untouched(tmp_path):
    path = str(tmp_path / "engine.ckpt")
    donor = _engine(seed=5)
    donor.start(BUDGET)
    donor.run_until(BUDGET // 3)
    donor.save_checkpoint(path)
    with open(path, "r+b") as handle:
        handle.truncate(24)
    engine = _engine(seed=5)
    engine.start(BUDGET)
    before = _engine_state(engine)
    with pytest.raises(CheckpointError):
        engine.resume(path)
    assert _engine_state(engine) == before


# -- campaign-level resume -----------------------------------------------------


def test_run_config_with_checkpoint_equals_plain(tmp_path):
    subject = get_subject("flvmeta")
    plain = run_config(subject, "path", 0, BUDGET)
    checkpointed = run_config(
        subject,
        "path",
        0,
        BUDGET,
        checkpoint_path=str(tmp_path / "cell.ckpt"),
        checkpoint_every=BUDGET // 4,
    )
    assert checkpointed == plain


def test_run_config_resumes_partial_checkpoint(tmp_path, monkeypatch):
    """A cell killed mid-run picks up from its snapshot, not from zero."""
    subject = get_subject("flvmeta")
    path = str(tmp_path / "cell.ckpt")
    partial = build_session(subject, "path", 0, BUDGET, path)
    partial.open(try_checkpoint=False)
    partial.engine.run_until(BUDGET // 2)
    partial.save({"ticks": partial.engine.clock.ticks})

    rungs = []
    real_open = CampaignSession.open

    def spy(self, *args, **kwargs):
        resumed = real_open(self, *args, **kwargs)
        rungs.append(resumed.rung)
        return resumed

    monkeypatch.setattr(CampaignSession, "open", spy)
    resumed = run_config(subject, "path", 0, BUDGET, checkpoint_path=path)
    uninterrupted = run_config(subject, "path", 0, BUDGET)
    assert resumed == uninterrupted
    # It really resumed: the first attempt's executions were not redone.
    assert rungs == [CHECKPOINT, FRESH]


def test_run_config_recovers_from_torn_checkpoint(tmp_path):
    subject = get_subject("flvmeta")
    path = str(tmp_path / "cell.ckpt")
    with open(path, "wb") as handle:
        handle.write(b"garbage that is definitely not a checkpoint")
    result = run_config(subject, "path", 0, BUDGET, checkpoint_path=path)
    assert result == run_config(subject, "path", 0, BUDGET)


def test_campaign_checkpoints_under_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
    result = campaign("flvmeta", "path", 0, hours=1, scale=0.05)
    runner._MEMORY_CACHE.clear()
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR")
    assert result == campaign("flvmeta", "path", 0, hours=1, scale=0.05)
    # A completed campaign cleans up its resume point.
    assert [p for p in os.listdir(str(tmp_path)) if p.endswith(".ckpt")] == []


# -- the resume ladder (repro.fuzzer.session) ----------------------------------

STORE_META = {"subject": "flvmeta", "config": "path", "run_seed": 0}


def _session(path=None, store=None, subject="flvmeta", run_seed=0, budget=BUDGET):
    return build_session(
        get_subject(subject), "path", run_seed, budget, path, store=store
    )


def _half_run(path=None, store=None, **identity):
    """A session that fuzzed half its budget and checkpointed there."""
    session = _session(path, store=store, **identity)
    session.open(try_checkpoint=False)
    session.engine.run_until(BUDGET // 2)
    if path is not None:
        session.save({"ticks": session.engine.clock.ticks})
    return session.engine


def _tear(path):
    with open(path, "wb") as handle:
        handle.write(b"torn")


def _queue_files(root):
    return sorted(os.listdir(os.path.join(str(root), "main", QUEUE_DIR)))


def test_ladder_valid_checkpoint_resumes_tick_identically(tmp_path):
    path = str(tmp_path / "c.ckpt")
    _half_run(path)
    session = _session(path)
    resumed = session.open(try_checkpoint=True)
    assert (resumed.rung, resumed.refusal) == (CHECKPOINT, "")
    assert resumed.meta["ticks"] == session.engine.clock.ticks
    session.engine.run_until(BUDGET)
    session.engine.finish()
    rerun = _session()
    rerun.open(try_checkpoint=False)
    rerun.engine.run_until(BUDGET)
    rerun.engine.finish()
    assert _engine_state(session.engine) == _engine_state(rerun.engine)


def test_ladder_torn_checkpoint_replays_nonempty_store(tmp_path):
    path, root = str(tmp_path / "c.ckpt"), tmp_path / "out"
    with CampaignStore(str(root), meta=STORE_META) as store:
        lost = _half_run(store=store)
    _tear(path)
    with CampaignStore(str(root), meta=STORE_META) as store:
        session = _session(path, store=store)
        resumed = session.open(try_checkpoint=True, replay_store=True)
    assert resumed.rung == STORE
    assert "CheckpointCorruptError" in resumed.refusal
    survivors = {entry.data for entry in session.engine.queue.entries}
    assert {entry.data for entry in lost.queue.entries} <= survivors


def test_ladder_torn_checkpoint_with_empty_store_starts_fresh(tmp_path):
    path = str(tmp_path / "c.ckpt")
    _tear(path)
    with CampaignStore(str(tmp_path / "out"), meta=STORE_META) as store:
        session = _session(path, store=store)
        resumed = session.open(try_checkpoint=True, replay_store=True)
    assert resumed.rung == FRESH
    assert "CheckpointCorruptError" in resumed.refusal
    assert session.engine.clock.ticks > 0  # started: the seeds were dry-run


def test_ladder_require_checkpoint_refuses_before_start(tmp_path):
    path, root = str(tmp_path / "c.ckpt"), tmp_path / "out"
    _tear(path)
    with CampaignStore(str(root), meta=STORE_META) as store:
        session = _session(path, store=store)
        resumed = session.open(
            try_checkpoint=True, replay_store=True, require_checkpoint=True
        )
        assert resumed.rung == REFUSED
        assert "CheckpointCorruptError" in resumed.refusal
        assert session.engine.clock is None  # never started
        assert not store.has_artifacts()
    assert _queue_files(root) == []


def _slice_contents(directory):
    """``{digest: (artifact, report, triage)}`` bytes of one artifact directory
    (``None`` for an absent sidecar)."""
    contents = {}
    for name in os.listdir(directory):
        parsed = parse_sealed_name(name, "id")
        if parsed is None:
            continue
        bodies = []
        for suffix in ("", REPORT_SIDECAR, TRIAGE_SIDECAR):
            try:
                with open(os.path.join(directory, name + suffix), "rb") as handle:
                    bodies.append(handle.read())
            except FileNotFoundError:
                bodies.append(None)
        contents[parsed[2]] = tuple(bodies)
    return contents


def test_ladder_checkpoint_rung_repairs_torn_artifacts(tmp_path):
    """A power loss can tear store artifacts written since the last sync
    point, behind a checkpoint.  The checkpoint rung quarantines each torn
    artifact with its sidecars (and a crash whose sidecar is empty or
    lost), and the snapshot's backfill writes each back whole."""
    path, root = str(tmp_path / "c.ckpt"), str(tmp_path / "out")
    meta = dict(STORE_META, subject="jhead")
    with CampaignStore(root, meta=meta) as store:
        _half_run(path, store=store, subject="jhead")
    queue_dir = os.path.join(root, "main", QUEUE_DIR)
    crash_dir = os.path.join(root, "main", CRASH_DIR)
    before = {d: _slice_contents(d) for d in (queue_dir, crash_dir)}
    crashes = sorted(name for name in os.listdir(crash_dir) if "." not in name)
    assert len(crashes) >= 3
    torn = [
        os.path.join(queue_dir, _queue_files(root)[-1]),
        os.path.join(crash_dir, crashes[0]),
        os.path.join(crash_dir, crashes[1] + TRIAGE_SIDECAR),
    ]
    for target in torn:
        open(target, "wb").close()  # what a power loss leaves
    os.unlink(os.path.join(crash_dir, crashes[2] + REPORT_SIDECAR))
    with CampaignStore(root, meta=meta) as store:
        session = _session(path, store=store, subject="jhead")
        assert session.open(try_checkpoint=True).rung == CHECKPOINT
    quarantined = sorted(os.listdir(os.path.join(root, "main", QUARANTINE_DIR)))
    assert quarantined == sorted(
        [os.path.basename(torn[0])]
        + [crashes[0] + sfx for sfx in ("", REPORT_SIDECAR, TRIAGE_SIDECAR)]
        + [crashes[1] + sfx for sfx in ("", REPORT_SIDECAR, TRIAGE_SIDECAR)]
        + [crashes[2], crashes[2] + TRIAGE_SIDECAR]
    )
    assert {d: _slice_contents(d) for d in before} == before
    for name in _queue_files(root):
        digest = parse_sealed_name(name, "id")[2]
        assert read_sealed(os.path.join(queue_dir, name), digest)[1] is None


@pytest.mark.parametrize(
    "donor",
    [{"subject": "gdk"}, {"run_seed": 1}, {"budget": BUDGET * 2}],
    ids=["subject", "run_seed", "budget"],
)
def test_ladder_refuses_another_campaigns_checkpoint(tmp_path, donor):
    path = str(tmp_path / "c.ckpt")
    _half_run(path, **donor)
    session = _session(path)
    resumed = session.open(try_checkpoint=True, require_checkpoint=True)
    assert resumed.rung == REFUSED
    assert "CheckpointStaleError" in resumed.refusal
    assert "another campaign" in resumed.refusal
    assert session.engine.clock is None


def test_ladder_refuses_checkpoint_without_identity(tmp_path):
    path = str(tmp_path / "c.ckpt")
    _session(path).engine.run(BUDGET // 2).save_checkpoint(path)
    resumed = _session(path).open(try_checkpoint=True)
    assert resumed.rung == FRESH
    assert "CheckpointStaleError" in resumed.refusal


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging when a campaign never reaches its budget."""

    def expire(signum, frame):
        raise TimeoutError("campaign still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "donor",
    [("gdk", 0, BUDGET), ("flvmeta", 1, BUDGET), ("flvmeta", 0, BUDGET // 2)],
    ids=["subject", "run_seed", "budget"],
)
def test_run_config_refuses_foreign_checkpoint(tmp_path, donor):
    subject_name, run_seed, budget = donor
    path = str(tmp_path / "cell.ckpt")
    run_config(
        get_subject(subject_name), "path", run_seed, budget, checkpoint_path=path
    )
    subject = get_subject("flvmeta")
    with _deadline(60):
        result = run_config(subject, "path", 0, BUDGET, checkpoint_path=path)
    assert result == run_config(subject, "path", 0, BUDGET)


def test_instance_campaign_refuses_foreign_checkpoint_dir(tmp_path):
    """A restarted worker must not adopt another subject's worker0.ckpt."""
    checkpoint_dir = str(tmp_path)
    run_instance_campaign(
        "gdk", "path", 0, BUDGET, workers=2, checkpoint_dir=checkpoint_dir
    )
    assert os.path.exists(os.path.join(checkpoint_dir, "worker0.ckpt"))
    clean, _, _ = run_instance_campaign("flvmeta", "path", 0, BUDGET, workers=2)
    with faultinject.injected("kill@0.1"):
        merged, _, _ = run_instance_campaign(
            "flvmeta",
            "path",
            0,
            BUDGET,
            workers=2,
            checkpoint_dir=checkpoint_dir,
            restart_policy=RestartPolicy(max_restarts=3, backoff_base=0.01),
            worker_timeout=10.0,
        )
    assert merged.worker_restarts == (1, 0)
    assert merged == clean


# -- typed, actionable error detail --------------------------------------------


def test_truncated_checkpoint_error_carries_path_and_lengths(tmp_path):
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, {"x": 1}, fingerprint="f" * 16)
    with open(path, "r+b") as handle:
        handle.truncate(10)
    with pytest.raises(CheckpointCorruptError) as excinfo:
        read_checkpoint(path, fingerprint="f" * 16)
    err = excinfo.value
    assert err.path == path
    assert err.field == "length"
    assert (err.expected, err.found) == (len(MAGIC) + 2 + 16 + 32, 10)
    assert path in str(err) and "10 bytes" in str(err)


def test_digest_mismatch_error_carries_both_digests(tmp_path):
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, {"x": 1}, fingerprint="f" * 16)
    with open(path, "r+b") as handle:
        handle.seek(-1, os.SEEK_END)
        handle.write(b"\x00")
    with pytest.raises(CheckpointCorruptError) as excinfo:
        read_checkpoint(path, fingerprint="f" * 16)
    err = excinfo.value
    assert err.field == "sha256"
    assert err.expected != err.found
    assert len(err.expected) == 64 and len(err.found) == 64


def test_fingerprint_mismatch_error_carries_expected_vs_found(tmp_path):
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, {"x": 1}, fingerprint="a" * 16)
    with pytest.raises(CheckpointStaleError) as excinfo:
        read_checkpoint(path, fingerprint="b" * 16)
    err = excinfo.value
    assert err.field == "fingerprint"
    assert (err.expected, err.found) == ("b" * 16, "a" * 16)


def test_undecodable_payload_is_typed_never_raw(tmp_path):
    import hashlib as _hashlib

    path = str(tmp_path / "c.ckpt")
    # Hand-craft a checkpoint whose digest is valid but whose payload is
    # not a pickle: the loader must raise a typed error, not UnpicklingError.
    payload = b"this is not a pickle"
    blob = (
        MAGIC
        + (1).to_bytes(2, "big")
        + b"f" * 16
        + _hashlib.sha256(payload).digest()
        + payload
    )
    with open(path, "wb") as handle:
        handle.write(blob)
    with pytest.raises(CheckpointCorruptError) as excinfo:
        read_checkpoint(path, fingerprint="f" * 16)
    err = excinfo.value
    assert err.field == "payload"
    assert "UnpicklingError" in err.found
