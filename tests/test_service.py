"""Campaign-service units: journal, fold, dedupe, admission, job API, CLI.

The fault-injected recovery proofs (kill-and-restart determinism, torn
journals, heartbeat stalls) live in ``test_service_recovery.py``; this file
covers the deterministic building blocks and one clean end-to-end serve.
"""

import asyncio
import json
import os

import pytest

from repro.cli import main as cli_main
from repro.fuzzer.store import (
    atomic_write_bytes,
    parse_sealed_name,
    sealed_name,
    write_sealed_json,
)
from repro.fuzzer.supervisor import failure_category
from repro.service import (
    AdmissionError,
    CampaignService,
    CrashDedupe,
    DegradeReason,
    HeartbeatTimeoutError,
    JobSpec,
    JobTimeoutError,
    OverloadError,
    TenantPolicy,
    WallBudgetError,
    list_job_crashes,
    load_job_table,
    load_service_state,
    submit_offline,
)
from repro.service import intake
from repro.service.journal import JobJournal
from repro.service.jobs import (
    CANCELLED,
    PENDING,
    RUNNING,
    SUCCEEDED,
    JobRecord,
    WorkerStallError,
    apply_event,
    fold_records,
)

BUDGET = 60_000


# -- journal -------------------------------------------------------------------


def test_record_name_roundtrip():
    name = sealed_name("rec", 7, "ab" * 20)
    assert parse_sealed_name(name, "rec") == (7, None, "ab" * 20)
    assert parse_sealed_name("rec:zz,hash:x", "rec") is None
    assert parse_sealed_name("id:000001,hash:x", "rec") is None
    assert parse_sealed_name("garbage", "rec") is None


def test_journal_append_scan_roundtrip(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append("j0", "submit", {"subject": "gdk"})
    journal.append("j0", "start", {"attempt": 0})
    journal.append(None, "epoch", {"epoch": 0})
    fresh = JobJournal(str(tmp_path), fsync=False)
    records, quarantined = fresh.scan()
    assert not quarantined
    assert [(r.seq, r.job, r.event) for r in records] == [
        (0, "j0", "submit"),
        (1, "j0", "start"),
        (2, None, "epoch"),
    ]
    assert records[0].payload == {"subject": "gdk"}
    # The scan adopts the surviving sequence: appends continue it.
    assert fresh.append("j0", "done", {}) == 3


def test_journal_scan_quarantines_torn_record(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append("j0", "submit", {})
    seq = journal.append("j0", "start", {})
    journal.append("j0", "done", {})
    # Tear the middle record the way a lost write does.
    (name,) = [
        n for n in os.listdir(journal.dir)
        if n.startswith("rec:%08d" % seq)
    ]
    with open(os.path.join(journal.dir, name), "r+b") as handle:
        handle.truncate(6)
    records, quarantined = JobJournal(str(tmp_path), fsync=False).scan()
    assert [r.seq for r in records] == [0, 2]
    assert quarantined == [(name, "hash mismatch (torn?)")]
    assert os.path.exists(os.path.join(journal.quarantine_dir, name))


def test_journal_scan_quarantines_a_verified_record_with_a_null_fence(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append("j0", "submit", {})
    forged = {"version": 1, "seq": 1, "job": "j0", "event": "start",
              "payload": {}, "fence": None}
    path = write_sealed_json(journal.dir, "rec", 1, forged, fsync=False)
    records, quarantined = JobJournal(str(tmp_path), fsync=False).scan()
    assert [r.seq for r in records] == [0]
    assert quarantined == [(os.path.basename(path), "fence is not an integer")]


def test_journal_readonly_scan_leaves_damage_in_place(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append("j0", "submit", {})
    bogus = os.path.join(journal.dir, "rec:00000009,hash:deadbeef")
    atomic_write_bytes(bogus, b"not the right bytes", fsync=False)
    records, quarantined = JobJournal(str(tmp_path), fsync=False).scan(
        quarantine=False
    )
    assert len(records) == 1 and len(quarantined) == 1
    assert os.path.exists(bogus)  # read-only mode never mutates


def test_journal_scan_ignores_tmp_stragglers(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append("j0", "submit", {})
    straggler = "rec:00000001,hash:%s.tmp.123" % ("0" * 40)
    with open(os.path.join(journal.dir, straggler), "wb") as fh:
        fh.write(b"half-written")
    records, quarantined = JobJournal(str(tmp_path), fsync=False).scan()
    assert len(records) == 1 and not quarantined


# -- the fold ------------------------------------------------------------------


def _spec(job_id="j0", **kwargs):
    kwargs.setdefault("subject", "gdk")
    return JobSpec(job_id, **kwargs)


def test_apply_event_healthy_lifecycle():
    jobs = {}
    assert apply_event(jobs, "j0", "submit", _spec().to_dict()) == 0
    assert jobs["j0"].state == PENDING
    assert apply_event(jobs, "j0", "start", {"attempt": 0, "pid": 42}) == 0
    assert jobs["j0"].state == RUNNING and jobs["j0"].pid == 42
    assert apply_event(jobs, "j0", "done", {"summary": {"execs": 1}}) == 0
    assert jobs["j0"].state == SUCCEEDED
    assert jobs["j0"].summary == {"execs": 1}
    assert jobs["j0"].terminal()


def test_apply_event_conflicts_never_mutate_terminal_jobs():
    jobs = {}
    apply_event(jobs, "j0", "submit", _spec().to_dict())
    apply_event(jobs, "j0", "start", {})
    apply_event(jobs, "j0", "done", {"summary": None})
    # Duplicate terminal transition: counted, ignored.
    assert apply_event(jobs, "j0", "done", {"summary": None}) == 1
    assert apply_event(jobs, "j0", "degrade", {"category": "x"}) == 1
    assert jobs["j0"].state == SUCCEEDED
    # Events that do not type-check against the current state.
    assert apply_event(jobs, "j1", "done", {}) == 1  # never submitted
    assert apply_event(jobs, "j0", "submit", _spec().to_dict()) == 1
    assert apply_event(jobs, "j0", "nonsense", {}) == 1


def test_apply_event_recover_requeues_without_retry_charge():
    jobs = {}
    apply_event(jobs, "j0", "submit", _spec().to_dict())
    apply_event(jobs, "j0", "start", {})
    apply_event(jobs, "j0", "retry", {"retries_used": 1, "reason": "stall"})
    assert jobs["j0"].state == PENDING and jobs["j0"].retries_used == 1
    apply_event(jobs, "j0", "start", {})
    assert apply_event(jobs, "j0", "recover", {"note": "restart"}) == 0
    record = jobs["j0"]
    assert record.state == PENDING
    assert record.retries_used == 1  # recovery is free; retries are not
    assert record.attempts == 2


def test_fold_records_counts_epochs_and_conflicts(tmp_path):
    journal = JobJournal(str(tmp_path), fsync=False)
    journal.append(None, "epoch", {})
    journal.append("j0", "submit", _spec().to_dict())
    journal.append("j0", "start", {})
    journal.append("j0", "cancel", {})
    journal.append("j0", "done", {})  # after cancel: conflict
    journal.append(None, "epoch", {})
    records, _ = JobJournal(str(tmp_path), fsync=False).scan()
    jobs, epochs, conflicts = fold_records(records)
    assert epochs == 2 and conflicts == 1
    assert jobs["j0"].state == CANCELLED


def test_degrade_reason_and_spec_roundtrip():
    reason = DegradeReason("retry-budget", "3 strikes")
    assert DegradeReason.from_dict(reason.to_dict()).detail == "3 strikes"
    spec = _spec("j9", run_seed=3, tenant="sec", priority=2, index=9)
    clone = JobSpec.from_dict(spec.to_dict())
    assert clone.to_dict() == spec.to_dict()
    record = JobRecord(spec)
    snap = record.snapshot()
    assert snap["job"] == "j9" and snap["state"] == PENDING


def test_timeout_errors_classify_as_deadline():
    assert issubclass(HeartbeatTimeoutError, JobTimeoutError)
    assert issubclass(WallBudgetError, WorkerStallError)
    assert failure_category(HeartbeatTimeoutError(0, "quiet")) == "deadline"
    assert failure_category(WallBudgetError(0, "slow")) == "deadline"


# -- dedupe --------------------------------------------------------------------


def _fake_crash(jobs_root, job, seq, sig):
    crash_dir = os.path.join(jobs_root, job, "store", "main", "crashes")
    os.makedirs(crash_dir, exist_ok=True)
    name = "id:%06d,sig:%s,hash:%s" % (seq, sig, "0" * 40)
    with open(os.path.join(crash_dir, name), "wb") as handle:
        handle.write(b"boom")


def test_dedupe_counts_and_job_attribution(tmp_path):
    root = str(tmp_path)
    _fake_crash(root, "j0", 0, "aaaa")
    _fake_crash(root, "j0", 1, "bbbb")
    _fake_crash(root, "j1", 0, "aaaa")
    dedupe = CrashDedupe().rebuild(root)
    assert dedupe.unique_signatures() == ["aaaa", "bbbb"]
    assert dedupe.counts() == {"aaaa": 2, "bbbb": 1}
    assert dedupe.jobs_for("aaaa") == ["j0", "j1"]
    assert dedupe.summary() == {"unique": 2, "total": 3}


def test_dedupe_rescan_is_idempotent(tmp_path):
    root = str(tmp_path)
    _fake_crash(root, "j0", 0, "aaaa")
    dedupe = CrashDedupe().rebuild(root)
    dedupe.rescan_job(root, "j0")
    dedupe.rescan_job(root, "j0")  # recounting must not inflate
    assert dedupe.counts() == {"aaaa": 1}
    _fake_crash(root, "j0", 1, "aaaa")
    assert dedupe.rescan_job(root, "j0").counts() == {"aaaa": 2}
    assert CrashDedupe().rebuild(root).counts() == dedupe.counts()


# -- admission & load shedding -------------------------------------------------


def test_tenant_pending_quota_refuses_admission(tmp_path):
    with CampaignService(
        str(tmp_path),
        fsync=False,
        policies=(TenantPolicy("default", max_pending=1),),
    ) as service:
        service.submit("gdk", budget_ticks=BUDGET)
        with pytest.raises(AdmissionError):
            service.submit("gdk", run_seed=1, budget_ticks=BUDGET)
        # Another tenant's quota is its own.
        service.submit("gdk", run_seed=2, tenant="sec", budget_ticks=BUDGET)


def test_overload_breaker_sheds_low_priority_only(tmp_path):
    with CampaignService(
        str(tmp_path), fsync=False, shed_high=2, shed_low=0
    ) as service:
        service.submit("gdk", budget_ticks=BUDGET)
        service.submit("gdk", run_seed=1, budget_ticks=BUDGET)
        assert service.breaker_open
        with pytest.raises(OverloadError):
            service.submit("gdk", run_seed=2, budget_ticks=BUDGET)
        # High-priority traffic rides through an open breaker.
        job_id = service.submit(
            "gdk", run_seed=3, priority=1, budget_ticks=BUDGET
        )
        assert service.status(job_id)["state"] == PENDING
        # Hysteresis: the breaker closes only once the backlog drains.
        for record in list(service.jobs.values()):
            service.cancel(record.spec.job_id)
        service._update_breaker()
        assert not service.breaker_open


@pytest.mark.parametrize(
    "subject, config",
    [("no-such-subject", "path"), ("gdk", "no-such-config"), ("gdk", "cull")],
)
def test_unrunnable_jobs_are_refused_at_admission(tmp_path, subject, config):
    root = str(tmp_path)
    with pytest.raises(AdmissionError):
        submit_offline(root, subject=subject, config=config)
    with CampaignService(root, fsync=False) as service:
        with pytest.raises(AdmissionError):
            service.submit(subject, config=config, budget_ticks=BUDGET)
        # Against the live root, submit_offline refuses before it writes a
        # request file; one written past it fails the daemon's re-check.
        with pytest.raises(AdmissionError):
            submit_offline(root, subject=subject, config=config)
        assert intake.scan_requests(root) == ([], [])
        nonce = intake.submit_request(root, {"subject": subject, "config": config})
        service._pump_intake()
        assert service.handled_requests[nonce] is None
        assert service.jobs == {}
    state, _, pending = load_service_state(root)
    assert (state.jobs, pending) == ({}, [])
    assert state.handled == {nonce: None}


def test_cancel_is_terminal_and_idempotent(tmp_path):
    with CampaignService(str(tmp_path), fsync=False) as service:
        job_id = service.submit("gdk", budget_ticks=BUDGET)
        assert service.cancel(job_id) is True
        assert service.cancel(job_id) is False
        assert service.status(job_id)["state"] == CANCELLED
        summary = asyncio.run(service.run_until_idle())
        assert summary["states"] == {CANCELLED: 1}
    # The cancellation survives the fold.
    jobs, _, conflicts, _ = load_job_table(str(tmp_path))
    assert jobs[job_id].state == CANCELLED and conflicts == 0


def test_submit_offline_feeds_the_next_service(tmp_path):
    root = str(tmp_path)
    job_id = submit_offline(root, subject="gdk", budget_ticks=BUDGET)
    assert job_id == "j000000"
    assert submit_offline(root, subject="gdk", run_seed=1) == "j000001"
    jobs, epochs, conflicts, quarantined = load_job_table(root)
    assert sorted(jobs) == ["j000000", "j000001"]
    assert jobs[job_id].state == PENDING
    assert (epochs, conflicts, quarantined) == (0, 0, [])


def test_submit_offline_against_a_live_root_becomes_an_intake_request(tmp_path):
    root = str(tmp_path)
    with CampaignService(root, fsync=False) as service:
        # The live daemon owns the lock, so the submission travels as a
        # request file; the service's intake pump admits it.
        nonce = submit_offline(root, subject="gdk")
        assert nonce.startswith("req-")
        service._pump_intake()
        assert service.handled_requests[nonce] == "j000000"
        assert "j000000" in service.jobs
    # Lock released: the offline path journals directly again.
    assert submit_offline(root, subject="gdk") == "j000001"


# -- one clean end-to-end serve ------------------------------------------------


def test_service_runs_jobs_to_success_and_dedupes_crashes(tmp_path):
    root = str(tmp_path)
    with CampaignService(root, max_workers=2, fsync=False) as service:
        first = service.submit("gdk", budget_ticks=BUDGET)
        second = service.submit("mp3gain", budget_ticks=BUDGET)
        summary = asyncio.run(service.run_until_idle())
        assert summary["states"] == {SUCCEEDED: 2}
        assert service.fold_conflicts == 0
        snap = service.status(first)
        assert snap["attempts"] == 1 and snap["retries_used"] == 0
        assert snap["summary"]["crash_sigs"]
        crashes = service.fetch_crashes(first)
        assert crashes and all(c["sig"] for c in crashes)
        assert crashes[0]["triage"] is not None
        # The live dedupe index equals a cold rebuild from disk.
        disk = CrashDedupe().rebuild(service.jobs_dir).counts()
        assert service.crash_signatures() == disk
        assert set(service.dedupe.jobs_for(crashes[0]["sig"])) >= {first}
    # The journal fold reconstructs the same terminal table.
    jobs, epochs, conflicts, _ = load_job_table(root)
    assert epochs == 1 and conflicts == 0
    assert {j: r.state for j, r in jobs.items()} == {
        first: SUCCEEDED, second: SUCCEEDED,
    }
    offline = list_job_crashes(os.path.join(root, "jobs"), first)
    assert [c["sig"] for c in offline] == [c["sig"] for c in crashes]


# -- CLI -----------------------------------------------------------------------


def test_cli_serve_and_job_roundtrip(tmp_path, capsys):
    root = str(tmp_path / "svc")
    status = cli_main([
        "serve", root, "--submit", "gdk", "--no-fsync",
        "--budget-ticks", str(BUDGET),
    ])
    out = capsys.readouterr().out
    assert status == 0
    assert "submitted j000000" in out
    assert "1 succeeded" in out
    assert "deduped crash signatures" in out

    status = cli_main(["job", root, "status", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["conflicts"] == 0 and payload["epochs"] == 1
    assert payload["jobs"][0]["state"] == SUCCEEDED

    status = cli_main(["job", root, "crashes", "j000000"])
    out = capsys.readouterr().out
    assert status == 0 and "sig:" in out

    status = cli_main([
        "job", root, "submit", "mp3gain", "--tenant", "sec",
        "--budget-ticks", str(BUDGET),
    ])
    out = capsys.readouterr().out
    assert status == 0 and "journaled j000001" in out
    # The next serve picks the offline submission up and runs it.
    status = cli_main(["serve", root, "--no-fsync"])
    out = capsys.readouterr().out
    assert status == 0 and "2 succeeded" in out


def test_cli_serve_rejects_bad_specs(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["serve", str(tmp_path), "--submit", "nosuchsubject"])
    with pytest.raises(SystemExit):
        cli_main(["serve", str(tmp_path), "--submit", "gdk:nosuchconfig"])
    with pytest.raises(SystemExit):
        cli_main(["serve", str(tmp_path), "--tenant", "broken"])


def test_cli_job_status_unknown_job(tmp_path):
    submit_offline(str(tmp_path), subject="gdk")
    with pytest.raises(SystemExit):
        cli_main(["job", str(tmp_path), "status", "j999999"])
    with pytest.raises(SystemExit):
        cli_main(["job", str(tmp_path), "crashes", "j999999"])
