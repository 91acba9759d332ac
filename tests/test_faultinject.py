"""Fault-injection tests: every supervisor recovery path, proven.

Each test injects a deterministic fault (worker death, sync stall, dropped
pipe message, torn checkpoint) into an instance campaign and asserts the
supervised recovery reproduces the *undisturbed* campaign exactly — the
determinism contract extended across process death.  All tests carry the
``faultinject`` marker so CI can run the resilience suite on its own.
"""

import multiprocessing
import os
import time

import pytest

from repro.fuzzer import faultinject
from repro.fuzzer.faultinject import (
    Fault,
    FaultPlan,
    FaultSpecError,
    injected,
    parse_faults,
)
from repro.fuzzer.parallel import (
    run_cells,
    run_instance_campaign,
)
from repro.fuzzer.stats import MatrixProgress
from repro.fuzzer.supervisor import (
    RestartPolicy,
    WorkerStallError,
    WorkerTaskError,
    recv_with_deadline,
)

pytestmark = pytest.mark.faultinject

BUDGET = 40_000  # 8 sync rounds at the default cadence
FAST_RESTARTS = RestartPolicy(max_restarts=3, backoff_base=0.01, backoff_max=0.05)


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faultinject.clear()
    yield
    faultinject.clear()


@pytest.fixture(scope="module")
def clean_run():
    """The undisturbed campaign every recovery must reproduce."""
    merged, worker_results, _ = run_instance_campaign(
        "flvmeta", "path", 0, BUDGET, workers=2
    )
    return merged, worker_results


# -- spec parsing --------------------------------------------------------------


def test_parse_faults_basic():
    (fault,) = parse_faults("kill@1.2")
    assert (fault.action, fault.worker, fault.round_no) == ("kill", 1, 2)
    assert fault.incarnation == 0  # first life only, by default
    assert fault.site() == "sync"


def test_parse_faults_params_incarnation_and_lists():
    faults = parse_faults("stall@0.1:secs=30, truncate@1.3.2:keep=32")
    assert faults[0].params == {"secs": "30"}
    assert faults[1].action == "truncate"
    assert faults[1].incarnation == 2
    assert faults[1].site() == "checkpoint"
    assert faults[1].params == {"keep": "32"}


@pytest.mark.parametrize(
    "spec", ["kill", "kill@1", "kill@1.2.3.4", "boom@1.2", "stall@0.1:secs"]
)
def test_parse_faults_rejects_malformed_specs(spec):
    with pytest.raises(FaultSpecError):
        parse_faults(spec)


def test_fault_plan_matches_exact_site_only():
    plan = FaultPlan([Fault("kill", 1, 2)])
    assert plan.match("sync", 1, 2, 0) is not None
    assert plan.match("sync", 1, 2, 1) is None  # replacement runs clean
    assert plan.match("sync", 0, 2, 0) is None
    assert plan.match("checkpoint", 1, 2, 0) is None


def test_parse_faults_lease_actions_round_trip():
    faults = parse_faults("lease-expire@0.2.1, clock-skew@1.0:secs=120")
    assert faults[0].action == "lease-expire"
    assert faults[0].site() == "lease"
    assert (faults[0].worker, faults[0].round_no, faults[0].incarnation) == (
        0, 2, 1,
    )
    assert faults[1].action == "clock-skew"
    assert faults[1].site() == "lease"
    assert faults[1].round_no == 0  # fires at acquisition, not a renewal
    assert faults[1].params == {"secs": "120"}


def test_lease_faults_cross_env(monkeypatch):
    # The serve CLI inherits faults the same way workers do: via the env.
    monkeypatch.setenv(faultinject.ENV_VAR, "lease-expire@0.1")
    plan = faultinject.active_plan()
    assert plan.match("lease", 0, 1, 0) is not None
    assert plan.match("lease", 0, 1, 1) is None  # next epoch runs clean
    assert plan.match("sync", 0, 1, 0) is None


def test_fire_lease_fault_expires_and_skews():
    class FakeLease:
        skew = 0.0
        expired = False

        def force_expire(self):
            self.expired = True

    lease = FakeLease()
    (expire,) = parse_faults("lease-expire@0.1")
    assert faultinject.fire_lease_fault(expire, lease) is True
    assert lease.expired
    (skew,) = parse_faults("clock-skew@0.0:secs=90")
    assert faultinject.fire_lease_fault(skew, lease) is False
    assert lease.skew == 90.0
    (default_skew,) = parse_faults("clock-skew@0.0")
    faultinject.fire_lease_fault(default_skew, lease)
    assert lease.skew == 150.0  # default 60s, cumulative


def test_install_and_active_plan_cross_env(monkeypatch):
    faultinject.install("kill@1.2")
    assert os.environ[faultinject.ENV_VAR] == "kill@1.2"
    assert faultinject.active_plan().match("sync", 1, 2, 0) is not None
    faultinject.clear()
    assert not faultinject.active_plan()
    # A spawned worker sees only the environment variable.
    monkeypatch.setenv(faultinject.ENV_VAR, "drop@0.3")
    assert faultinject.active_plan().match("sync", 0, 3, 0) is not None


# -- typed pipe errors (recv_with_deadline) ------------------------------------


def test_recv_with_deadline_raises_typed_stall_on_silent_pipe():
    recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
    start = time.monotonic()
    with pytest.raises(WorkerStallError) as excinfo:
        recv_with_deadline(recv_conn, 0.2, 3, expected="synced")
    assert time.monotonic() - start < 5  # bounded, never blocks forever
    assert excinfo.value.worker_index == 3
    send_conn.close()
    recv_conn.close()


def test_recv_with_deadline_surfaces_worker_errors():
    recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
    send_conn.send(("error", "task-error", "ValueError: boom"))
    with pytest.raises(WorkerTaskError, match="boom"):
        recv_with_deadline(recv_conn, 1.0, 0, expected="synced")
    send_conn.close()
    recv_conn.close()


# -- instance-campaign recovery paths ------------------------------------------


def _supervised(checkpoint_dir=None, **kwargs):
    kwargs.setdefault("restart_policy", FAST_RESTARTS)
    kwargs.setdefault("worker_timeout", 10.0)
    return run_instance_campaign(
        "flvmeta",
        "path",
        0,
        BUDGET,
        workers=2,
        checkpoint_dir=checkpoint_dir,
        **kwargs,
    )


def test_killed_worker_recovers_identically(clean_run):
    with injected("kill@1.2"):
        merged, worker_results, stats = _supervised()
    clean_merged, clean_workers = clean_run
    assert merged == clean_merged
    assert [r.execs for r in worker_results] == [r.execs for r in clean_workers]
    assert not merged.degraded
    assert merged.worker_restarts == (0, 1)
    assert [e.worker for e in stats.restarts] == [1]
    assert "Dead" in stats.restarts[0].reason


def test_killed_worker_resumes_from_checkpoint(tmp_path, clean_run):
    """With a checkpoint dir the replacement resumes instead of replaying."""
    with injected("kill@1.3"):
        merged, _, stats = _supervised(checkpoint_dir=str(tmp_path))
    assert merged == clean_run[0]
    assert merged.worker_restarts == (0, 1)
    assert os.path.exists(str(tmp_path / "worker1.ckpt"))
    assert [e.worker for e in stats.restarts] == [1]


def test_stalled_worker_recovers_identically(clean_run):
    with injected("stall@0.2:secs=600"):
        merged, _, stats = _supervised(worker_timeout=1.0)
    assert merged == clean_run[0]
    assert merged.worker_restarts == (1, 0)
    assert "Stall" in stats.restarts[0].reason


def test_dropped_sync_reply_recovers_identically(clean_run):
    with injected("drop@1.1"):
        merged, _, stats = _supervised(worker_timeout=1.0)
    assert merged == clean_run[0]
    assert merged.worker_restarts == (0, 1)


def test_torn_checkpoint_falls_back_to_full_replay(tmp_path, clean_run):
    """truncate@1.1 tears worker 1's only checkpoint; kill@1.2 then forces
    a restart that must *refuse* the torn file and replay from round 0."""
    with injected("truncate@1.1,kill@1.2"):
        merged, _, stats = _supervised(checkpoint_dir=str(tmp_path))
    assert merged == clean_run[0]
    assert merged.worker_restarts == (0, 1)
    assert not merged.degraded


def test_restart_budget_exhaustion_degrades_not_fails():
    """A worker killed in every life is dropped; the campaign survives."""
    policy = RestartPolicy(max_restarts=1, backoff_base=0.01)
    with injected("kill@1.1.0,kill@1.1.1"):
        merged, worker_results, stats = _supervised(restart_policy=policy)
    assert merged.degraded
    assert merged.worker_restarts == (0, 1)
    assert len(worker_results) == 1  # only worker 0 reached the finish line
    assert [e.worker for e in stats.degraded_workers] == [1]
    assert any("degraded" in line for line in stats.summary_lines())
    # Worker 1 died before contributing anything, so the survivor saw no
    # imports: its campaign is exactly the deterministic solo instance.
    _, solo_workers, _ = run_instance_campaign(
        "flvmeta", "path", 0, BUDGET, workers=1
    )
    assert worker_results[0] == solo_workers[0]


def test_zero_restart_budget_drops_the_worker_at_once():
    """``--max-restarts 0``: the first death drops the worker and degrades."""
    with injected("kill@1.2"):
        merged, worker_results, stats = _supervised(
            restart_policy=RestartPolicy(max_restarts=0)
        )
    assert merged.degraded
    assert merged.worker_restarts == (0, 0)
    assert len(worker_results) == 1
    assert stats.restarts == []
    assert [(e.worker, e.cause, e.detail) for e in stats.degraded_workers] == [
        (1, "restart-budget", "worker-death")
    ]


# -- matrix-cell retries -------------------------------------------------------


def _flaky_cell(task):
    """Dies on the first attempt, succeeds once its sentinel file exists."""
    kind, sentinel = task
    if kind == "flaky":
        if not os.path.exists(sentinel):
            with open(sentinel, "w") as handle:
                handle.write("attempted")
            os._exit(3)
        return "recovered"
    if kind == "boom":
        raise RuntimeError("deterministic bug")
    return "ok"


def test_transient_cell_failures_retry_with_backoff(tmp_path):
    sentinel = str(tmp_path / "attempted")
    progress = MatrixProgress(total=1)
    results, failures = run_cells(
        {"cell": ("flaky", sentinel)},
        jobs=1,
        cell_fn=_flaky_cell,
        restart_policy=RestartPolicy(max_restarts=2, backoff_base=0.01),
        progress=progress,
    )
    assert results == {"cell": "recovered"}
    assert failures == []
    assert progress.cells[-1].restarts == 1  # one retry was consumed


def test_deterministic_cell_errors_are_never_retried(tmp_path):
    results, failures = run_cells(
        {"cell": ("boom", "")},
        jobs=1,
        cell_fn=_flaky_cell,
        restart_policy=RestartPolicy(max_restarts=5, backoff_base=0.01),
    )
    assert results == {}
    assert len(failures) == 1
    assert failures[0].kind == "error"
    assert failures[0].restarts == 0  # no retry budget was spent on it


def _always_dies(task):
    os._exit(3)


def test_cell_restart_budget_exhaustion_reports_restarts():
    results, failures = run_cells(
        {"cell": ("x",)},
        jobs=1,
        cell_fn=_always_dies,
        restart_policy=RestartPolicy(max_restarts=2, backoff_base=0.01),
    )
    assert results == {}
    assert failures[0].kind == "crashed"
    assert failures[0].restarts == 2


def test_cell_restarts_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CELL_RESTARTS", "1")
    sentinel = str(tmp_path / "attempted")
    results, failures = run_cells(
        {"cell": ("flaky", sentinel)}, jobs=1, cell_fn=_flaky_cell
    )
    assert results == {"cell": "recovered"}
    assert failures == []
