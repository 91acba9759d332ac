"""Store-backed campaign recovery: the ISSUE's acceptance criteria, proven.

Two load-bearing properties of the durable workspace
(:mod:`repro.fuzzer.store`), driven by deterministic fault injection:

1. **Kill-and-resume is lossless.**  A campaign killed mid-run and resumed
   with ``resume_store`` reports a corpus/crash set that is a *superset* of
   what was durably on disk at kill time, with zero unquarantined parse
   failures.
2. **Damage degrades, never kills.**  Injected ``torn-write`` /
   ``corrupt-file`` faults land the damaged entries in ``quarantine/`` and
   the campaign still completes.
"""

import os

import pytest

from repro.fuzzer import faultinject
from repro.fuzzer.faultinject import injected
from repro.fuzzer.parallel import run_instance_campaign
from repro.fuzzer.store import (
    CRASH_DIR,
    CRASH_SIDECARS,
    CampaignStore,
    campaign_queue_hashes,
    parse_sealed_name,
    worker_name,
)
from repro.fuzzer.supervisor import RestartPolicy

pytestmark = pytest.mark.faultinject

BUDGET = 60_000
FAST_RESTARTS = RestartPolicy(max_restarts=3, backoff_base=0.01, backoff_max=0.05)
NO_RESTARTS = RestartPolicy(max_restarts=0)


@pytest.fixture(autouse=True)
def no_leftover_faults():
    faultinject.clear()
    yield
    faultinject.clear()


def _on_disk_state(root, workers=2):
    """(queue hashes, crash signatures, unparseable artifact names)."""
    crash_sigs = set()
    unparseable = []
    for index in range(workers):
        directory = os.path.join(root, worker_name(index), CRASH_DIR)
        if not os.path.isdir(directory):
            continue
        for name in os.listdir(directory):
            if "." in name:
                continue  # .report.txt / .triage.json sidecars
            parsed = parse_sealed_name(name, "id")
            if parsed is None:
                unparseable.append(name)
            else:
                crash_sigs.add(parsed[1])
    return campaign_queue_hashes(root), crash_sigs, unparseable


def test_killed_campaign_resumes_lossless_from_store(tmp_path):
    root = str(tmp_path)
    # Kill both workers in different rounds with no restart budget: the
    # campaign dies outright, leaving only the workspace behind.
    with injected("kill@0.2,kill@1.3"):
        with pytest.raises(RuntimeError):
            run_instance_campaign(
                "gdk", "path", 0, BUDGET, workers=2,
                output_dir=root, restart_policy=NO_RESTARTS,
            )
    pre_queue, pre_crashes, pre_bad = _on_disk_state(root)
    assert pre_queue  # the kill happened after durable progress existed
    assert pre_bad == []  # zero unquarantined parse failures
    merged, _, _ = run_instance_campaign(
        "gdk", "path", 0, BUDGET, workers=2, output_dir=root, resume_store=True
    )
    post_queue, post_crashes, post_bad = _on_disk_state(root)
    assert pre_queue <= post_queue  # every retained input survived
    assert pre_crashes <= post_crashes  # every durable crash survived
    assert post_bad == []
    assert merged.queue_size == len(post_queue)
    assert {r.hash5 for r in merged.crash_records} >= pre_crashes


def test_worker_restart_recovers_from_store_slice(tmp_path):
    """A supervised restart with no checkpoint falls back to the store."""
    root = str(tmp_path)
    with injected("kill@0.2"):
        merged, _, _ = run_instance_campaign(
            "gdk", "path", 0, BUDGET, workers=2,
            output_dir=root, restart_policy=FAST_RESTARTS,
        )
    assert not merged.degraded
    assert merged.worker_restarts[0] >= 1
    _, _, bad = _on_disk_state(root)
    assert bad == []


def test_injected_store_damage_is_quarantined_not_fatal(tmp_path):
    root = str(tmp_path)
    # Damage worker 0's 3rd and 5th artifact writes, then kill it so the
    # restarted incarnation's recovery scan must face the damage.
    with injected("torn-write@0.3,corrupt-file@0.5,kill@0.2"):
        merged, _, _ = run_instance_campaign(
            "gdk", "path", 0, BUDGET, workers=2,
            output_dir=root, restart_policy=FAST_RESTARTS,
        )
    assert not merged.degraded  # degraded at worst — here fully recovered
    quarantine = os.listdir(os.path.join(root, worker_name(0), "quarantine"))
    evicted = [name for name in quarantine if not name.endswith(CRASH_SIDECARS)]
    assert len(evicted) == 2  # both damaged artifacts evicted
    # A damaged crash takes its sidecars along.
    assert sorted(quarantine) == sorted(
        evicted
        + [name + sfx for name in evicted if ",sig:" in name for sfx in CRASH_SIDECARS]
    )
    _, _, bad = _on_disk_state(root)
    assert bad == []


def test_torn_write_keep_param_controls_truncation(tmp_path):
    path = os.path.join(str(tmp_path), "artifact")
    with open(path, "wb") as handle:
        handle.write(b"x" * 100)
    (fault,) = faultinject.parse_faults("torn-write@0.1:keep=4")
    assert fault.site() == "store"
    faultinject.fire_store_fault(fault, path)
    assert os.path.getsize(path) == 4


def test_corrupt_file_flips_bytes_preserving_length(tmp_path):
    path = os.path.join(str(tmp_path), "artifact")
    with open(path, "wb") as handle:
        handle.write(b"\x00\xff\x10")
    (fault,) = faultinject.parse_faults("corrupt-file@0.1")
    faultinject.fire_store_fault(fault, path)
    with open(path, "rb") as handle:
        assert handle.read() == b"\xff\x00\xef"


def test_install_preserves_fault_params_across_env():
    faults = faultinject.parse_faults("torn-write@0.3:keep=4")
    faultinject.install(faults)
    try:
        plan = faultinject.FaultPlan(
            faultinject.parse_faults(os.environ[faultinject.ENV_VAR])
        )
        fault = plan.match("store", 0, 3, 0)
        assert fault is not None and fault.params == {"keep": "4"}
    finally:
        faultinject.clear()


def test_dir_sync_campaign_matches_across_runs(tmp_path):
    """Directory-synced campaigns are deterministic for a fixed worker set."""
    a, _, _ = run_instance_campaign(
        "flvmeta", "path", 0, 40_000, workers=2,
        output_dir=os.path.join(str(tmp_path), "a"),
    )
    b, _, _ = run_instance_campaign(
        "flvmeta", "path", 0, 40_000, workers=2,
        output_dir=os.path.join(str(tmp_path), "b"),
    )
    assert a == b


def test_two_campaigns_cannot_share_a_workspace(tmp_path):
    from repro.fuzzer.store import StoreLockError

    root = str(tmp_path)
    holder = CampaignStore(root, worker=worker_name(0))
    try:
        with pytest.raises(StoreLockError):
            CampaignStore(root, worker=worker_name(0))
    finally:
        holder.close()
