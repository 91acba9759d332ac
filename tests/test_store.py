"""Durable campaign workspace tests: atomicity, locking, tolerant recovery.

The store's contract is AFL's: the filesystem is the source of truth, every
write is atomic, artifact names are self-verifying (content-addressed), and
recovery never dies on damage — torn, misnamed, empty, or bit-rotted files
move to ``quarantine/`` and the scan continues.  These tests prove each leg
of that contract directly on :mod:`repro.fuzzer.store`, plus the end-to-end
observer property: a campaign with a store attached is field-for-field
equal to one without.
"""

import json
import os
import random
import subprocess
import sys

import pytest

from repro.experiments.config import build_session, run_config, run_session
from repro.fuzzer import store as store_mod
from repro.fuzzer.engine import EngineConfig, FuzzEngine
from repro.fuzzer.store import (
    CRASH_DIR,
    HANG_DIR,
    LOCK_NAME,
    MAIN_WORKER,
    QUEUE_DIR,
    CampaignStore,
    StoreLockError,
    StoreMismatchError,
    atomic_write_bytes,
    attach_store,
    campaign_queue_hashes,
    content_hash,
    parse_sealed_name,
    quarantine,
    sealed_name,
    worker_name,
)
from repro.lang import compile_source
from repro.coverage.feedback import EdgeFeedback
from repro.subjects import get_subject

META = {"subject": "flvmeta", "config": "pcguard", "run_seed": 0}


def make_store(root, **kwargs):
    kwargs.setdefault("meta", dict(META))
    return CampaignStore(str(root), **kwargs)


class FakeEntry:
    def __init__(self, data):
        self.data = bytes(data)


# -- primitives ----------------------------------------------------------------


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = os.path.join(str(tmp_path), "blob")
    atomic_write_bytes(path, b"payload")
    with open(path, "rb") as handle:
        assert handle.read() == b"payload"
    assert os.listdir(str(tmp_path)) == ["blob"]


def test_artifact_name_roundtrip():
    digest = content_hash(b"data")
    name = sealed_name("id", 7, digest)
    assert parse_sealed_name(name, "id") == (7, None, digest)
    signed = sealed_name("id", 3, digest, sig="abcd1234")
    assert parse_sealed_name(signed, "id") == (3, "abcd1234", digest)


@pytest.mark.parametrize("name", ["README", "id:x,hash:y", "hash:y,id:000001"])
def test_parse_artifact_name_rejects_garbage(name):
    assert parse_sealed_name(name, "id") is None


# The sealed-name grammar, once for every head (DESIGN.md §8).
DIGEST = "ab" * 20


@pytest.mark.parametrize(
    "head, key, sig, name",
    [
        ("id", 7, None, "id:000007,hash:" + DIGEST),
        ("id", 3, "0123456789abcdef", "id:000003,sig:0123456789abcdef,hash:" + DIGEST),
        ("id", 1234567, None, "id:1234567,hash:" + DIGEST),
        ("rec", 12, None, "rec:00000012,hash:" + DIGEST),
        ("snap", 0, None, "snap:00000000,hash:" + DIGEST),
        ("req", "req-00aa11bb22cc", None, "req:req-00aa11bb22cc,hash:" + DIGEST),
    ],
)
def test_sealed_names_round_trip(head, key, sig, name):
    assert sealed_name(head, key, DIGEST, sig=sig) == name
    assert parse_sealed_name(name, head) == (key, sig, DIGEST)


@pytest.mark.parametrize(
    "head, name",
    [
        ("rec", "id:00000001,hash:" + DIGEST),  # wrong head
        ("id", "rec:000001,hash:" + DIGEST),  # wrong head
        ("id", "id:000001"),  # missing hash
        ("req", "req:req-1,sig:ab"),  # missing hash
        ("id", "id:000001,hash:"),  # empty hash
        ("req", "req:,hash:" + DIGEST),  # empty key
        ("id", "id:00x001,hash:" + DIGEST),  # non-integer sequence
        ("rec", "rec:-0000001,hash:" + DIGEST),  # non-integer sequence
        ("snap", "snap: 0000001,hash:" + DIGEST),  # non-integer sequence
        ("id", "hash:%s,id:000001" % DIGEST),  # fields out of order
        ("id", "id:000001,hash:%s,sig:ab" % DIGEST),  # fields out of order
        ("id", "id:000001,hash:%s,src:000002" % DIGEST),  # extra field
        ("rec", "rec:00000001,sig:ab,hash:" + DIGEST),  # sig off a crash
        ("id", "id:000001,hash:%s.triage.json" % DIGEST),  # sidecar
        ("rec", "rec:00000001,hash:%s.tmp.77" % DIGEST),  # temp file
    ],
)
def test_sealed_names_reject_malformed(head, name):
    assert parse_sealed_name(name, head) is None


def test_quarantine_never_overwrites(tmp_path):
    qdir = os.path.join(str(tmp_path), "quarantine")
    for body in (b"first", b"second"):
        path = os.path.join(str(tmp_path), "rec:00000001,hash:x")
        atomic_write_bytes(path, body)
        assert quarantine(path, qdir, "test")
    assert sorted(os.listdir(qdir)) == ["rec:00000001,hash:x", "rec:00000001,hash:x.1"]


# -- locking / manifest --------------------------------------------------------


def test_lock_held_by_live_process_refused(tmp_path):
    store = make_store(tmp_path)
    store.close()
    # PID 1 is always alive (and never ours): a live foreign campaign.
    with open(os.path.join(store.worker_dir, LOCK_NAME), "w") as handle:
        handle.write("1\n")
    with pytest.raises(StoreLockError) as excinfo:
        make_store(tmp_path)
    assert excinfo.value.owner_pid == 1


def test_stale_lock_of_dead_process_is_stolen(tmp_path):
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    store = make_store(tmp_path)
    store.close()
    with open(os.path.join(store.worker_dir, LOCK_NAME), "w") as handle:
        handle.write("%d\n" % proc.pid)
    reopened = make_store(tmp_path)  # steals; no exception
    assert reopened._locked
    reopened.close()


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_slow_stealer_leaves_fresh_live_lock_intact(tmp_path):
    # Regression: opener B reads a stale owner, then loses the steal race —
    # A unlinks the stale lock and takes a fresh one.  B's deferred steal
    # must re-check under the marker and leave A's live lock alone.
    from repro.fuzzer.store import _steal_stale_lock, read_pidfile_owner

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    with open(lock_path, "w") as handle:
        handle.write("%d\n" % os.getpid())  # the winner's fresh, live lock
    _steal_stale_lock(str(tmp_path), lock_path)
    assert os.path.exists(lock_path)
    assert read_pidfile_owner(lock_path) == os.getpid()
    assert not os.path.exists(lock_path + ".steal")


def test_live_steal_marker_means_contention(tmp_path):
    from repro.fuzzer.store import acquire_pidfile_lock

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    with open(lock_path, "w") as handle:
        handle.write("%d\n" % _dead_pid())  # stale lock, dead owner
    with open(lock_path + ".steal", "w") as handle:
        handle.write("1\n")  # a live rival is mid-steal
    with pytest.raises(StoreLockError) as excinfo:
        acquire_pidfile_lock(str(tmp_path))
    assert excinfo.value.owner_pid == 1


def test_dead_steal_marker_is_cleared_and_lock_stolen(tmp_path):
    from repro.fuzzer.store import acquire_pidfile_lock, read_pidfile_owner

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    dead = _dead_pid()
    with open(lock_path, "w") as handle:
        handle.write("%d\n" % dead)
    with open(lock_path + ".steal", "w") as handle:
        handle.write("%d\n" % dead)  # a stealer that died mid-steal
    acquire_pidfile_lock(str(tmp_path))
    assert read_pidfile_owner(lock_path) == os.getpid()
    assert not os.path.exists(lock_path + ".steal")


def test_concurrent_openers_racing_stale_lock_yield_one_winner(tmp_path):
    # Two live processes race to steal the same stale lock.  Exactly one
    # must end up holding it; the loser must get StoreLockError; and the
    # winner's fresh lock must survive the loser's steal attempt.
    from repro.fuzzer.store import read_pidfile_owner

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    with open(lock_path, "w") as handle:
        handle.write("%d\n" % _dead_pid())
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    child_code = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "from repro.fuzzer.store import StoreLockError, acquire_pidfile_lock\n"
        "try:\n"
        "    acquire_pidfile_lock(%r)\n"
        "except StoreLockError:\n"
        "    print('locked', flush=True)\n"
        "else:\n"
        "    print('ok', flush=True)\n"
        "    sys.stdin.readline()\n"  # hold the lock until the parent says so
    ) % (os.path.abspath(src), str(tmp_path))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", child_code],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outcomes = {}
    try:
        for child in children:
            outcomes[child.pid] = child.stdout.readline().strip()
        assert sorted(outcomes.values()) == ["locked", "ok"]
        winner = next(pid for pid, out in outcomes.items() if out == "ok")
        assert read_pidfile_owner(lock_path) == winner
    finally:
        for child in children:
            try:
                child.stdin.write("\n")
                child.stdin.flush()
            except OSError:
                pass
            child.wait()


def test_lock_is_never_visible_without_its_payload(tmp_path, monkeypatch):
    # The first opener is held at its payload write.  A second opener that
    # runs meanwhile must not find an empty LOCK and steal it as stale:
    # exactly one of the two may come out holding the lock, and the lock
    # must name that one.
    import threading

    from repro.fuzzer import store as store_mod
    from repro.fuzzer.store import acquire_pidfile_lock, read_lock_record

    directory = str(tmp_path)
    real_write = os.write
    entered = threading.Event()
    release = threading.Event()
    outcomes = {}

    def held_write(fd, data):
        if threading.current_thread() is first and not entered.is_set():
            entered.set()
            release.wait(10)
        return real_write(fd, data)

    def open_lock(epoch):
        try:
            acquire_pidfile_lock(directory, fsync=False, epoch=epoch)
        except StoreLockError:
            outcomes[epoch] = "locked"
        else:
            outcomes[epoch] = "ok"

    monkeypatch.setattr(store_mod.os, "write", held_write)
    first = threading.Thread(target=open_lock, args=(1,))
    first.start()
    try:
        assert entered.wait(10)
        open_lock(2)
    finally:
        release.set()
        first.join(10)
    assert not first.is_alive()
    assert sorted(outcomes.values()) == ["locked", "ok"]
    winner = next(epoch for epoch, out in outcomes.items() if out == "ok")
    assert read_lock_record(os.path.join(directory, LOCK_NAME)).epoch == winner
    assert sorted(os.listdir(directory)) == [LOCK_NAME]


# -- lease locks / fencing -----------------------------------------------------


def test_read_pidfile_owner_tolerates_mixed_format_roots(tmp_path):
    # A rolling upgrade leaves legacy bare-pid locks next to host-qualified
    # lease locks; both must parse, on the same root, with one reader.
    from repro.fuzzer.store import format_lock_payload, read_pidfile_owner

    legacy = os.path.join(str(tmp_path), "legacy.lock")
    with open(legacy, "w") as handle:
        handle.write("4242\n")
    lease = os.path.join(str(tmp_path), "lease.lock")
    with open(lease, "w") as handle:
        handle.write(format_lock_payload("hostA", 777, 3, 1e12))
    no_lease = os.path.join(str(tmp_path), "nolease.lock")
    with open(no_lease, "w") as handle:
        handle.write(format_lock_payload("hostB", 888, 0, None))
    assert read_pidfile_owner(legacy) == 4242
    assert read_pidfile_owner(lease) == 777
    assert read_pidfile_owner(no_lease) == 888
    assert read_pidfile_owner(os.path.join(str(tmp_path), "absent")) is None


def test_release_refuses_to_unlink_a_successors_lock(tmp_path):
    # Satellite regression: release used to unlink unconditionally, so a
    # fenced process could delete the *new* owner's lock on its way out.
    from repro.fuzzer.store import (
        acquire_pidfile_lock,
        format_lock_payload,
        release_pidfile_lock,
    )

    lock_path = acquire_pidfile_lock(str(tmp_path))
    with open(lock_path, "w") as handle:  # a successor re-took the lock
        handle.write(format_lock_payload("otherhost", 31337, 9, 1e12))
    release_pidfile_lock(str(tmp_path))
    assert os.path.exists(lock_path)  # not ours: left intact
    release_pidfile_lock(str(tmp_path), force=True)
    assert not os.path.exists(lock_path)  # administrative cleanup


def test_foreign_lease_steal_requires_expiry(tmp_path, monkeypatch):
    # A live, unexpired lease from another host is never stealable — but
    # once it expires, a second host takes the root without any pid probe.
    import time as _time

    from repro.fuzzer.store import (
        acquire_pidfile_lock,
        format_lock_payload,
        read_lock_record,
    )

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    with open(lock_path, "w") as handle:  # hostA holds an unexpired lease
        handle.write(format_lock_payload("hostA", 1, 1, _time.time() + 3600))
    monkeypatch.setenv("REPRO_HOST", "hostB")
    with pytest.raises(StoreLockError) as excinfo:
        acquire_pidfile_lock(str(tmp_path), ttl=1.0, epoch=2)
    assert excinfo.value.owner_host == "hostA"
    with open(lock_path, "w") as handle:  # ...the lease lapses
        handle.write(format_lock_payload("hostA", 1, 1, _time.time() - 5))
    acquire_pidfile_lock(str(tmp_path), ttl=60.0, epoch=2)
    record = read_lock_record(lock_path)
    assert (record.host, record.pid, record.epoch) == (
        "hostB", os.getpid(), 2,
    )


def test_foreign_no_lease_lock_is_never_stolen(tmp_path, monkeypatch):
    # Liveness of a foreign pid is unknowable and there is no lease to run
    # out: refusal beats corruption, even when the pid is locally dead.
    from repro.fuzzer.store import acquire_pidfile_lock, format_lock_payload

    lock_path = os.path.join(str(tmp_path), LOCK_NAME)
    with open(lock_path, "w") as handle:
        handle.write(format_lock_payload("hostA", _dead_pid(), 1, None))
    monkeypatch.setenv("REPRO_HOST", "hostB")
    with pytest.raises(StoreLockError):
        acquire_pidfile_lock(str(tmp_path))


def test_renew_extends_the_lease_and_detects_fencing(tmp_path):
    from repro.fuzzer.store import (
        StoreFencedError,
        acquire_pidfile_lock,
        format_lock_payload,
        read_lock_record,
        renew_pidfile_lock,
    )

    lock_path = acquire_pidfile_lock(str(tmp_path), ttl=10.0, epoch=4)
    before = read_lock_record(lock_path).expiry
    renew_pidfile_lock(str(tmp_path), ttl=1000.0, epoch=4)
    assert read_lock_record(lock_path).expiry > before
    # A successor steals the lease: the old holder's next renewal must
    # fail typed, naming the new owner, and must not rewrite the lock.
    successor = format_lock_payload("otherhost", 999, 5, 1e12)
    with open(lock_path, "w") as handle:
        handle.write(successor)
    with pytest.raises(StoreFencedError) as excinfo:
        renew_pidfile_lock(str(tmp_path), ttl=1000.0, epoch=4)
    assert excinfo.value.owner.epoch == 5
    with open(lock_path) as handle:
        assert handle.read() == successor


def test_manifest_mismatch_refuses_foreign_campaign(tmp_path):
    store = make_store(tmp_path)
    store.close()
    with pytest.raises(StoreMismatchError) as excinfo:
        make_store(tmp_path, meta={"subject": "gdk", "config": "pcguard",
                                   "run_seed": 0})
    assert excinfo.value.field == "subject"
    assert excinfo.value.expected == "gdk"
    assert excinfo.value.found == "flvmeta"


def test_round_watermark_survives_reopen(tmp_path):
    store = make_store(tmp_path)
    store.record_round(5)
    store.close()
    reopened = make_store(tmp_path)
    assert reopened.rounds() == 5
    reopened.close()


def test_fuzzer_stats_roundtrip(tmp_path):
    store = make_store(tmp_path)
    store.write_stats({"execs_done": 42, "worker": "main"})
    assert store.read_stats() == {"execs_done": "42", "worker": "main"}
    store.close()


# -- artifact writes -----------------------------------------------------------


def test_commit_dedupes_by_content_and_numbers_sequentially(tmp_path):
    store = make_store(tmp_path)
    first = store.save_queue_entry(FakeEntry(b"aaa"))
    dup = store.save_queue_entry(FakeEntry(b"aaa"))
    second = store.save_queue_entry(FakeEntry(b"bbb"))
    assert first is not None and second is not None and dup is None
    names = sorted(os.listdir(os.path.join(store.worker_dir, QUEUE_DIR)))
    assert [parse_sealed_name(n, "id")[0] for n in names] == [0, 1]
    store.close()


def test_reopen_continues_id_sequence_without_rewrites(tmp_path):
    store = make_store(tmp_path)
    store.save_queue_entry(FakeEntry(b"aaa"))
    store.close()
    reopened = make_store(tmp_path)
    assert reopened.has_artifacts()
    assert reopened.save_queue_entry(FakeEntry(b"aaa")) is None  # already there
    path = reopened.save_queue_entry(FakeEntry(b"bbb"))
    assert parse_sealed_name(os.path.basename(path), "id")[0] == 1
    reopened.close()


def test_queue_hashes_and_campaign_union(tmp_path):
    a = make_store(tmp_path, worker=worker_name(0), worker_index=0)
    b = make_store(tmp_path, worker=worker_name(1), worker_index=1)
    a.save_queue_entry(FakeEntry(b"shared"))
    b.save_queue_entry(FakeEntry(b"shared"))
    b.save_queue_entry(FakeEntry(b"only-b"))
    assert a.queue_hashes() == {content_hash(b"shared")}
    assert campaign_queue_hashes(str(tmp_path)) == {
        content_hash(b"shared"),
        content_hash(b"only-b"),
    }
    a.close()
    b.close()


def test_foreign_entries_skip_seen_and_damaged(tmp_path):
    a = make_store(tmp_path, worker=worker_name(0), worker_index=0)
    b = make_store(tmp_path, worker=worker_name(1), worker_index=1)
    b.save_queue_entry(FakeEntry(b"fresh"))
    b.save_queue_entry(FakeEntry(b"known"))
    damaged = b.save_queue_entry(FakeEntry(b"torn"))
    with open(damaged, "wb") as handle:
        handle.write(b"to")  # torn: content no longer matches embedded hash
    got = list(a.foreign_entries({content_hash(b"known")}))
    assert got == [(content_hash(b"fresh"), b"fresh")]
    a.close()
    b.close()


# -- tolerant scanning ---------------------------------------------------------


def test_scan_of_empty_directory_is_clean(tmp_path):
    store = make_store(tmp_path)
    report = store.scan(QUEUE_DIR)
    assert report.survivors == [] and report.quarantined == []
    assert store.quarantine_count == 0
    store.close()


def test_scan_quarantines_torn_temp_file(tmp_path):
    store = make_store(tmp_path)
    qdir = os.path.join(store.worker_dir, QUEUE_DIR)
    torn = os.path.join(qdir, "id:000009,hash:feed.tmp.123")
    with open(torn, "wb") as handle:
        handle.write(b"half")
    report = store.scan(QUEUE_DIR)
    assert [reason for _, reason in report.quarantined] == ["torn-write"]
    assert not os.path.exists(torn)
    assert store.quarantine_count == 1
    store.close()


def test_scan_quarantines_empty_and_bad_hash_keeps_good(tmp_path):
    store = make_store(tmp_path)
    good = store.save_queue_entry(FakeEntry(b"good"))
    qdir = os.path.join(store.worker_dir, QUEUE_DIR)
    empty = os.path.join(qdir, sealed_name("id", 1, content_hash(b"gone")))
    with open(empty, "wb"):
        pass
    rotted = os.path.join(qdir, sealed_name("id", 2, content_hash(b"original")))
    with open(rotted, "wb") as handle:
        handle.write(b"flipped!")
    misnamed = os.path.join(qdir, "notes.txt")
    with open(misnamed, "wb") as handle:
        handle.write(b"hello")
    report = store.scan(QUEUE_DIR)
    assert [(s[0], s[3]) for s in report.survivors] == [(0, b"good")]
    assert sorted(reason for _, reason in report.quarantined) == [
        "bad-hash",
        "bad-name",
        "empty",
    ]
    assert os.path.exists(good)
    quarantine = os.listdir(os.path.join(store.worker_dir, "quarantine"))
    assert len(quarantine) == 3
    store.close()


def test_scan_skips_crash_sidecars(tmp_path):
    store = make_store(tmp_path)
    cdir = os.path.join(store.worker_dir, CRASH_DIR)
    name = sealed_name("id", 0, content_hash(b"boom"), sig="cafe")
    with open(os.path.join(cdir, name), "wb") as handle:
        handle.write(b"boom")
    for suffix in (".report.txt", ".triage.json"):
        with open(os.path.join(cdir, name + suffix), "w") as handle:
            handle.write("sidecar")
    report = store.scan(CRASH_DIR)
    assert len(report.survivors) == 1
    assert report.survivors[0][1] == "cafe"
    assert report.quarantined == []
    store.close()


def test_scan_publishes_store_event(tmp_path):
    from repro.telemetry.bus import TelemetryBus

    bus = TelemetryBus()
    store = make_store(tmp_path, bus=bus)
    store.save_queue_entry(FakeEntry(b"data"))
    store.scan(QUEUE_DIR)
    (event,) = bus.recent("store")
    assert (event.action, event.artifact) == ("scan", QUEUE_DIR)
    assert (event.entries, event.quarantined) == (1, 0)
    store.close()


def test_torn_manifest_is_quarantined_not_fatal(tmp_path):
    store = make_store(tmp_path)
    store.close()
    with open(store._manifest_path(), "w") as handle:
        handle.write('{"version": 1, "sub')  # torn mid-write
    reopened = make_store(tmp_path)
    assert reopened.meta["subject"] == "flvmeta"  # identity re-seeded
    assert reopened.quarantine_count == 1
    reopened.close()


# -- engine integration --------------------------------------------------------

HANG_TARGET = """
fn main(input) {
    if (len(input) > 3) {
        if (input[0] == 'L') { while (1) { } }
    }
    return 0;
}
"""


def _hang_engine(store=None):
    engine = FuzzEngine(
        compile_source(HANG_TARGET),
        EdgeFeedback(),
        [b"LOOPxx", b"ok"],
        random.Random(0),
        EngineConfig(max_input_len=16, exec_instr_budget=2_000),
    )
    engine.store = store
    return engine


def test_hanging_inputs_are_recorded_and_stored(tmp_path):
    store = make_store(tmp_path, meta={})
    engine = _hang_engine(store).run(100_000)
    assert engine.hangs >= 1
    assert len(engine.unique_hangs) >= 1
    record = next(iter(engine.unique_hangs.values()))
    assert record.input_hash == content_hash(record.data)
    hang_files = os.listdir(os.path.join(store.worker_dir, HANG_DIR))
    assert len(hang_files) == len(engine.unique_hangs)
    store.close()


def test_hangs_survive_snapshot_restore():
    engine = _hang_engine().run(100_000)
    restored = _hang_engine()
    restored.restore(engine.snapshot())
    assert set(restored.unique_hangs) == set(engine.unique_hangs)
    digest = next(iter(engine.unique_hangs))
    assert restored.unique_hangs[digest].count == engine.unique_hangs[digest].count


def test_hang_records_reach_campaign_result(tmp_path):
    subject = get_subject("flvmeta")
    result = run_config(subject, "pcguard", 0, 20_000)
    assert result.hangs == sum(r.count for r in result.hang_records)


def test_crash_sidecars_are_actionable(tmp_path):
    store = make_store(tmp_path, meta={"subject": "gdk"})
    subject = get_subject("gdk")
    result = run_config(subject, "path", 0, 120_000, store=store)
    assert result.crash_count > 0
    cdir = os.path.join(store.worker_dir, CRASH_DIR)
    artifacts = [n for n in os.listdir(cdir) if "." not in n]
    assert len(artifacts) == len(result.crash_records)
    for name in artifacts:
        seq, sig, digest = parse_sealed_name(name, "id")
        with open(os.path.join(cdir, name + ".triage.json")) as handle:
            triage = json.load(handle)
        assert triage["stack_hash"] == sig
        assert triage["stack"]
        with open(os.path.join(cdir, name + ".report.txt")) as handle:
            assert "ERROR" in handle.read()
    store.close()


def test_store_is_a_pure_observer(tmp_path):
    subject = get_subject("flvmeta")
    with make_store(tmp_path) as store:
        stored = run_config(subject, "pcguard", 0, 20_000, store=store)
    plain = run_config(subject, "pcguard", 0, 20_000)
    assert stored == plain  # field-for-field, the determinism contract


def test_replay_into_recovers_corpus_and_crashes(tmp_path):
    subject = get_subject("gdk")
    with make_store(tmp_path, meta={"subject": "gdk"}) as store:
        first = run_config(subject, "path", 0, 120_000, store=store)
    with make_store(tmp_path, meta={"subject": "gdk"}) as store:
        resumed = run_config(
            subject, "path", 0, 240_000, store=store, resume_store=True
        )
    assert first.bugs <= resumed.bugs
    assert {r.hash5 for r in first.crash_records} <= {
        r.hash5 for r in resumed.crash_records
    }
    assert resumed.queue_size >= first.queue_size


def test_attach_store_backfills_existing_state(tmp_path):
    subject = get_subject("gdk")
    engine = FuzzEngine(
        subject.program,
        EdgeFeedback(),
        subject.seeds,
        random.Random(0),
        tokens=subject.tokens,
    ).run(120_000)
    store = make_store(tmp_path, meta={"subject": "gdk"})
    attach_store(engine, store)
    queue_files = os.listdir(os.path.join(store.worker_dir, QUEUE_DIR))
    assert len(queue_files) == len(engine.queue.entries)
    store.close()


# -- durability at sync points -------------------------------------------------

ARTIFACT_DIRS = (QUEUE_DIR, CRASH_DIR, HANG_DIR)


@pytest.fixture
def fsyncs(monkeypatch):
    """Every ``os.fsync`` the process makes, in order."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


@pytest.fixture
def synced(monkeypatch):
    """Every path the store fsyncs by name (files, then directories)."""
    calls = []
    real = store_mod.fsync_path
    monkeypatch.setattr(
        store_mod, "fsync_path", lambda path: calls.append(path) or real(path)
    )
    return calls


def _artifact_files(store):
    """Every artifact and sidecar in the slice."""
    return {
        os.path.join(store.worker_dir, kind, name)
        for kind in ARTIFACT_DIRS
        for name in os.listdir(os.path.join(store.worker_dir, kind))
    }


def _checkpointed_run(root, fsyncs, synced, budget, every):
    """One store-backed ``run_session`` checkpointing every ``every`` ticks:
    ``(fsyncs before finalize, checkpoints, artifact files, paths finalize
    fsynced by name)``."""
    del fsyncs[:]
    with make_store(root, meta=dict(META, subject="jhead")) as store:
        session = build_session(
            get_subject("jhead"), "pcguard", 0, budget,
            os.path.join(str(root), "c.ckpt"), store=store,
        )
        saves, before = [], []
        save, finalize = session.save, store.finalize
        session.save = lambda meta=None: saves.append(meta) or save(meta)

        def counted_finalize(engine, extra=None):
            before.append(len(fsyncs))
            del synced[:]
            return finalize(engine, extra)

        store.finalize = counted_finalize
        session.open(try_checkpoint=False)
        run_session(session, checkpoint_every=every)
        files = _artifact_files(store)
    return before[0], len(saves), files, list(synced)


def test_checkpointed_campaign_fsyncs_artifacts_once_at_finalize(
    tmp_path, fsyncs, synced
):
    plans = ((40_000, 10_000), (160_000, 40_000), (160_000, 10_000))
    runs = [
        _checkpointed_run(tmp_path / str(n), fsyncs, synced, budget, every)
        for n, (budget, every) in enumerate(plans)
    ]
    (_, _, small, _), (_, large_k, large, _), (_, more_k, _, _) = runs
    assert len(small) < len(large)  # crash sidecars among them
    assert large_k < more_k
    # Until finalize, each checkpoint is one file fsync and one directory
    # fsync; the rest (lock, manifest) is the same for every run, however
    # many artifacts it wrote.
    assert len({before - 2 * k for before, k, _, _ in runs}) == 1
    # finalize, after the last checkpoint, fsyncs every artifact and
    # sidecar once, then the slice directories, then the worker directory.
    for run_no, (_, _, files, at_finalize) in enumerate(runs):
        worker_dir = os.path.join(str(tmp_path / str(run_no)), MAIN_WORKER)
        dirs = [os.path.join(worker_dir, kind) for kind in ARTIFACT_DIRS]
        assert sorted(at_finalize[: len(files)]) == sorted(files)
        assert at_finalize[len(files) :] == dirs + [worker_dir]


def test_store_only_campaign_is_durable_at_each_round(tmp_path, fsyncs, synced):
    budget = 120_000
    with make_store(tmp_path, meta=dict(META, subject="jhead")) as store:
        session = build_session(
            get_subject("jhead"), "pcguard", 0, budget, None, store=store
        )
        session.open(try_checkpoint=False)
        dirs = {os.path.join(store.worker_dir, kind) for kind in ARTIFACT_DIRS}
        durable = set()
        for round_no in (1, 2, 3):
            session.engine.run_until(budget * round_no // 3)
            on_disk = _artifact_files(store)
            del synced[:]
            store.record_round(round_no)
            # This round's files, each once, then the slice directories
            # (none of them when the round wrote nothing).
            fresh = on_disk - durable
            assert sorted(synced[: len(fresh)]) == sorted(fresh)
            assert set(synced[len(fresh) :]) == (dirs if fresh else set())
            durable = on_disk
        assert durable  # the seeds, at least
        del fsyncs[:]
        store.record_round(4)  # nothing new: the manifest keeps its fsync
        assert len(fsyncs) == 1


def test_reopened_store_syncs_what_it_adopted(tmp_path, synced):
    """A killed writer may have left its artifacts in the page cache only,
    so a store reopened over them makes them durable at its first sync
    point."""
    meta = dict(META, subject="gdk", config="path")
    with make_store(tmp_path, meta=meta) as store:
        run_config(get_subject("gdk"), "path", 0, 120_000, store=store)
        written = _artifact_files(store)
    assert any(path.endswith(".triage.json") for path in written)
    with make_store(tmp_path, meta=meta) as store:
        del synced[:]
        store.record_round(1)
    assert sorted(synced[: len(written)]) == sorted(written)


def test_store_without_fsync_never_fsyncs(tmp_path, fsyncs):
    with make_store(tmp_path, fsync=False, meta=dict(META, subject="jhead")) as store:
        session = build_session(
            get_subject("jhead"), "pcguard", 0, 60_000, None, store=store
        )
        session.open(try_checkpoint=False)
        session.engine.run_until(30_000)
        store.record_round(1)
        run_session(session)
        assert _artifact_files(store)
    assert fsyncs == []
