"""Cross-campaign crash dedupe keyed on triage stack signatures.

Crash identity inside one campaign is the triage stack hash (``hash5``),
embedded in every crash artifact's file name (``id:N,sig:<hash5>,hash:…``).
The service-level dedupe folds those signatures across *all* jobs: a crash
signature seen by five campaigns is one bug with five witnesses, and the
per-signature job sets tell operators which workloads reach it.

The index is **derived state**: every count is the number of crash
artifacts on disk carrying that signature, reconstructed by scanning
artifact file names alone.  :meth:`CrashDedupe.rebuild` scans everything
(service restart); :meth:`CrashDedupe.rescan_job` reconciles one job
(after it completes).  Because both derive from the same disk state, the
counts are stable across a kill-and-restart by construction — the CI
resilience job asserts exactly that.
"""

import os

from repro.fuzzer.store import CRASH_DIR, walk_artifacts


def _job_crash_sigs(jobs_root, job_id):
    """Signatures of every crash artifact under one job's store slices."""
    store_root = os.path.join(jobs_root, job_id, "store")
    return [
        sig
        for _path, _seq, sig, _digest in walk_artifacts(store_root, CRASH_DIR)
        if sig is not None
    ]


class CrashDedupe:
    """Signature -> per-job artifact counts across every job's crash store."""

    def __init__(self):
        self._sigs = {}  # sig -> {job_id: artifact count}

    def add(self, sig, job):
        """Record one crash artifact of ``job``; True if the sig is new."""
        entry = self._sigs.get(sig)
        if entry is None:
            self._sigs[sig] = {job: 1}
            return True
        entry[job] = entry.get(job, 0) + 1
        return False

    def unique_signatures(self):
        return sorted(self._sigs)

    def counts(self):
        """{signature: total artifacts} (deterministic iteration order)."""
        return {
            sig: sum(self._sigs[sig].values()) for sig in sorted(self._sigs)
        }

    def jobs_for(self, sig):
        entry = self._sigs.get(sig)
        return sorted(entry) if entry else []

    def summary(self):
        return {
            "unique": len(self._sigs),
            "total": sum(sum(entry.values()) for entry in self._sigs.values()),
        }

    def rescan_job(self, jobs_root, job_id):
        """Reconcile one job's contribution with what is actually on disk.

        Drops the job's previous counts, then re-derives them from its
        crash directories — idempotent, so recounting a requeued job whose
        artifacts were already indexed at recovery time cannot inflate
        totals.
        """
        for sig in list(self._sigs):
            entry = self._sigs[sig]
            entry.pop(job_id, None)
            if not entry:
                del self._sigs[sig]
        for sig in _job_crash_sigs(jobs_root, job_id):
            self.add(sig, job_id)
        return self

    def rebuild(self, jobs_root):
        """Reconstruct the whole index by scanning every job's crash dirs.

        Deterministic (sorted walk) and read-only, so two scans of the
        same disk state — e.g. before a kill and after the restart —
        agree exactly.
        """
        self._sigs = {}
        try:
            job_ids = sorted(os.listdir(jobs_root))
        except OSError:
            return self
        for job_id in job_ids:
            for sig in _job_crash_sigs(jobs_root, job_id):
                self.add(sig, job_id)
        return self
