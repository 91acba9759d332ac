"""Two hosts, one root: lease steals, fencing, live intake — the ISSUE, proven.

``REPRO_HOST`` makes two processes on one filesystem look like distinct
hosts, so every cross-host behavior is testable locally: a standby must
not steal an unexpired lease, must steal an expired one, and the fenced
predecessor's late journal writes must be quarantined — never applied.

The acceptance matrix at the bottom kills actor A (host A) at injected
journal-commit points and lets actor B (host B) take over through lease
expiry.  Exactly-once is asserted structurally: every submitted job
reaches a terminal state with zero fold conflicts (no duplicate terminal
transitions), service epochs count both lives, and the dedupe index
matches a cold disk rebuild.
"""

import asyncio
import hashlib
import json
import logging
import os
import re
import subprocess
import sys

import pytest

from repro.fuzzer import faultinject
from repro.fuzzer.store import sealed_name
from repro.fuzzer.supervisor import RestartPolicy
from repro.service import CampaignService, CrashDedupe
from repro.service.jobs import CANCELLED, SUCCEEDED
from repro.service.journal import JobJournal
from repro.service.lease import LeaseLostError, read_fence
from repro.service import intake
from repro.service.orchestrator import load_service_state
from repro.telemetry.bus import TelemetryBus

pytestmark = pytest.mark.faultinject

BUDGET = 20_000
TTL = 1.0
RETRIES = RestartPolicy(max_restarts=4, backoff_base=0.05, backoff_max=0.5)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Child actor: one service life on ROOT under REPRO_HOST, with a lease.
# Submits the two-job scenario only when the journal holds nothing yet.
# Exits 75 when fenced (mirroring the serve CLI), the fault plan's kill
# exit code when killed, 0 when it drained the backlog.
CHILD = """
import asyncio, sys
root, spec, standby = sys.argv[1], sys.argv[2], float(sys.argv[3])
from repro.fuzzer import faultinject
if spec != "-":
    faultinject.install(spec)
from repro.fuzzer.supervisor import RestartPolicy
from repro.service import CampaignService
from repro.service.lease import LeaseLostError
svc = CampaignService(
    root, max_workers=2, fsync=False,
    restart_policy=RestartPolicy(
        max_restarts=4, backoff_base=0.05, backoff_max=0.5
    ),
    lease_ttl=%(ttl)r, standby_wait=standby,
)
try:
    if not svc.jobs:
        svc.submit("gdk", budget_ticks=%(budget)d)
        svc.submit("mp3gain", budget_ticks=%(budget)d)
    asyncio.run(svc.run_until_idle())
    print("COMMITS=%%d" %% svc.journal._commits)
except LeaseLostError:
    print("FENCED")
    sys.exit(75)
finally:
    svc.close()
""" % {"ttl": TTL, "budget": BUDGET}


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faultinject.clear()
    yield
    faultinject.clear()


def _run_actor(root, host, spec, standby=0.0):
    env = dict(os.environ)
    env.pop(faultinject.ENV_VAR, None)
    env["REPRO_HOST"] = host
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, "-c", CHILD, root, spec or "-", str(standby)],
        capture_output=True,
        text=True,
        env=env,
        timeout=240,
    )


# -- lease steals and fencing, in-process --------------------------------------


def test_standby_steals_only_after_expiry_and_fences_the_holder(
    tmp_path, monkeypatch
):
    root = str(tmp_path)
    monkeypatch.setenv("REPRO_HOST", "hostA")
    first = CampaignService(root, fsync=False, lease_ttl=30.0)
    try:
        first.submit("gdk", budget_ticks=BUDGET)
        assert first.lease.epoch == 1 and read_fence(root) == 1

        monkeypatch.setenv("REPRO_HOST", "hostB")
        from repro.fuzzer.store import StoreLockError

        with pytest.raises(StoreLockError):  # unexpired foreign lease
            CampaignService(root, fsync=False, lease_ttl=30.0)

        # The holder (still hostA from its own point of view) goes silent.
        monkeypatch.setenv("REPRO_HOST", "hostA")
        first.lease.force_expire()
        monkeypatch.setenv("REPRO_HOST", "hostB")
        second = CampaignService(root, fsync=False, lease_ttl=30.0)
        try:
            assert second.lease.epoch == 2 and read_fence(root) == 2
            # The displaced holder's next journal write dies typed at the
            # lease check — nothing of it reaches disk.
            with pytest.raises(LeaseLostError):
                first.submit("mp3gain", budget_ticks=BUDGET)
            # The successor recovered the predecessor's submission intact.
            assert sorted(second.jobs) == ["j000000"]
        finally:
            second.close()
    finally:
        first.close()


def test_predecessors_late_write_is_quarantined_not_applied(
    tmp_path, monkeypatch
):
    root = str(tmp_path)
    monkeypatch.setenv("REPRO_HOST", "hostA")
    first = CampaignService(root, fsync=False, lease_ttl=30.0)
    first.submit("gdk", budget_ticks=BUDGET)
    first.lease.force_expire()
    first.close()

    monkeypatch.setenv("REPRO_HOST", "hostB")
    service = CampaignService(root, fsync=False, lease_ttl=30.0)
    try:
        # A fenced predecessor that bypassed its lease check (the residual
        # verify-then-write window) lands a stale-fence record directly.
        JobJournal(root, fsync=False, fence=1).append("j000000", "cancel", {})
        service._pump_intake()
        assert service.jobs["j000000"].state != CANCELLED
        quarantine = os.listdir(service.journal.quarantine_dir)
        assert any(name.startswith("rec:") for name in quarantine)
        # ...and a restart folds the same view: the quarantined record
        # stays quarantined, the job table is unchanged.
        state, _, _ = load_service_state(root)
        assert state.jobs["j000000"].state != CANCELLED
    finally:
        service.close()


def test_a_successors_record_tells_the_holder_it_was_fenced(
    tmp_path, monkeypatch
):
    root = str(tmp_path)
    monkeypatch.setenv("REPRO_HOST", "hostA")
    service = CampaignService(root, fsync=False, lease_ttl=30.0)
    try:
        service.submit("gdk", budget_ticks=BUDGET)
        # A higher-fence record appears: someone stole the root from under
        # us (clock skew, paused VM...).  The pump must raise, not write.
        JobJournal(root, fsync=False, fence=9).append(None, "epoch", {})
        with pytest.raises(LeaseLostError):
            service._pump_intake()
    finally:
        service.close()


def _forge_foreign_record(journal_dir, fence, digest=None):
    """Drop a ``rec:`` file at seq 90 whose body claims ``fence``.

    ``digest=None`` names it by its real hash; any other digest makes the
    name disagree with the body, the shape of a torn or rotted file.
    """
    body = json.dumps(
        {"version": 1, "seq": 90, "job": None, "event": "epoch",
         "payload": {}, "fence": fence},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    name = "rec:%08d,hash:%s" % (90, digest or hashlib.sha1(body).hexdigest())
    with open(os.path.join(journal_dir, name), "wb") as handle:
        handle.write(body)
    return name


@pytest.mark.parametrize(
    "fence, digest, reason",
    [
        (9, "0" * 40, "hash mismatch (torn?)"),
        (None, None, "fence is not an integer"),
    ],
    ids=["torn-high-fence", "null-fence"],
)
def test_an_unverified_foreign_record_is_quarantined_not_obeyed(
    tmp_path, monkeypatch, caplog, fence, digest, reason
):
    root = str(tmp_path)
    monkeypatch.setenv("REPRO_HOST", "hostA")
    bus = TelemetryBus()
    service = CampaignService(root, fsync=False, lease_ttl=30.0, bus=bus)
    try:
        service.submit("gdk", budget_ticks=BUDGET)
        name = _forge_foreign_record(service.journal.dir, fence, digest)
        with caplog.at_level(logging.WARNING):
            service._pump_intake()  # neither LeaseLostError nor TypeError
        assert os.listdir(service.journal.quarantine_dir) == [name]
        assert "quarantined (%s)" % reason in caplog.text
        assert not [
            event for event in bus.recent("service")
            if event.action == "fenced"
        ]
        # The daemon keeps its root and keeps serving.
        assert service.lease.held
        assert service.submit("mp3gain", budget_ticks=BUDGET) == "j000001"
    finally:
        service.close()


# -- live daemon intake --------------------------------------------------------


def _spec_kwargs(subject, **extra):
    kwargs = {"subject": subject, "budget_ticks": BUDGET}
    kwargs.update(extra)
    return kwargs


def test_daemon_admits_cancels_and_drains_live_requests(tmp_path):
    root = str(tmp_path)

    async def scenario():
        service = CampaignService(
            root, max_workers=1, fsync=False, restart_policy=RETRIES,
            poll_interval=0.05,
        )
        try:
            server = asyncio.ensure_future(service.serve_forever())

            async def settled(nonce):
                for _ in range(600):
                    if nonce in service.handled_requests:
                        return service.handled_requests[nonce]
                    await asyncio.sleep(0.05)
                raise AssertionError("request %s never settled" % nonce)

            submit = intake.submit_request(root, _spec_kwargs("gdk"))
            # Big enough that it cannot finish before the cancel lands.
            victim = intake.submit_request(
                root, _spec_kwargs("mp3gain", budget_ticks=100 * BUDGET)
            )
            job_id = await settled(submit)
            victim_id = await settled(victim)
            # One pump tick settles both; the ids land in nonce order,
            # which is random — only the set is deterministic.
            assert {job_id, victim_id} == {"j000000", "j000001"}

            bogus = intake.submit_request(root, {"no_such_option": True})
            assert await settled(bogus) is None  # refused, durably

            cancel = intake.cancel_request(root, victim_id)
            assert await settled(cancel) == victim_id

            intake.drain_request(root)
            summary = await asyncio.wait_for(server, timeout=120)
            return service, summary, job_id, victim_id
        finally:
            service.close()

    service, summary, job_id, victim_id = asyncio.run(scenario())
    assert service.jobs[job_id].state == SUCCEEDED
    assert service.jobs[victim_id].state == CANCELLED
    assert summary["states"].get("succeeded") == 1
    # Every request file was consumed, and the settlements are durable:
    # a cold fold sees the same request ledger the daemon held in memory.
    state, quarantined, pending = load_service_state(root)
    assert pending == []
    assert state.handled == service.handled_requests
    assert [q for q in quarantined if q[0].startswith("rec:")] == []


def test_replayed_request_file_is_not_settled_twice(tmp_path):
    root = str(tmp_path)
    service = CampaignService(root, max_workers=1, fsync=False)
    try:
        nonce = intake.submit_request(root, _spec_kwargs("gdk"))
        service._pump_intake()
        assert service.handled_requests[nonce] == "j000000"
        # The daemon crashed after journaling the settle but before the
        # file delete: the same request file reappears on disk.
        requests, _ = intake.scan_requests(root)
        assert requests == []  # it was deleted...
        intake.write_request(root, "submit-request", {"spec": {}})  # noise
        path = os.path.join(root, "journal")
        # Re-drop the *same* nonce by hand: byte-identical replay.
        import hashlib as _hashlib
        import json as _json

        body = _json.dumps(
            {
                "version": intake.REQUEST_VERSION,
                "nonce": nonce,
                "kind": "submit-request",
                "payload": {"spec": _spec_kwargs("gdk")},
            },
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        digest = _hashlib.sha1(body).hexdigest()
        with open(
            os.path.join(path, sealed_name("req", nonce, digest)), "wb"
        ) as handle:
            handle.write(body)
        service._pump_intake()
        # Settled exactly once: the replay was recognized and discarded.
        assert service.handled_requests[nonce] == "j000000"
        assert sorted(service.jobs) == ["j000000"]
        assert not any(
            name.startswith("req:%s" % nonce)
            for name in os.listdir(path)
        )
    finally:
        service.close()


# -- the acceptance matrix -----------------------------------------------------


def test_two_host_failover_matrix_is_exactly_once(tmp_path):
    clean = _run_actor(str(tmp_path / "clean"), "hostA", None)
    assert clean.returncode == 0, clean.stderr
    commits = int(re.search(r"COMMITS=(\d+)", clean.stdout).group(1))
    assert commits >= 7  # epoch + 2 submits + 2 starts + 2 dones

    for commit in range(1, commits + 1):
        root = str(tmp_path / ("kill%02d" % commit))
        actor_a = _run_actor(root, "hostA", "orch-kill@0.%d" % commit)
        assert actor_a.returncode == faultinject.KILLED_EXIT_CODE, (
            commit, actor_a.stdout, actor_a.stderr,
        )
        # Host B steals the root once A's lease lapses (A cannot be
        # pid-probed across hosts) and drives everything to terminal.
        actor_b = _run_actor(root, "hostB", None, standby=60.0)
        assert actor_b.returncode == 0, (
            commit, actor_b.stdout, actor_b.stderr,
        )

        state, quarantined, pending = load_service_state(root)
        assert pending == []
        # Zero lost jobs, exactly-once terminal transitions: every job
        # ends terminal, and the fold saw no conflicting re-transition.
        # (A kill between the two submits legitimately leaves one job:
        # B only submits the scenario when the journal holds nothing.)
        assert len(state.jobs) in (1, 2), commit
        assert all(r.terminal() for r in state.jobs.values()), commit
        assert all(
            r.state == SUCCEEDED for r in state.jobs.values()
        ), commit
        assert state.conflicts == 0, commit
        assert state.epochs == 2, commit  # one epoch per life
        # B's fence supersedes A's.
        assert read_fence(root) == 2, commit
        # The dedupe index is disk-stable: a cold rebuild now equals a
        # cold rebuild after any further restart (pure disk function).
        jobs_dir = os.path.join(root, "jobs")
        disk = CrashDedupe().rebuild(jobs_dir).counts()
        assert disk == CrashDedupe().rebuild(jobs_dir).counts(), commit
