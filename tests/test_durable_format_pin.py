"""Pin the bytes and names of every durable file the workspace writes.

A campaign workspace and a service journal are resumed from disk, so
their on-disk format is an interface: a resume trusts only files whose
names and bodies it can verify.  This file runs one fixed scenario with
``REPRO_HOST`` set and ``fsync=False``:

- a store slice with queue, crash (plus its ``.report.txt`` and
  ``.triage.json`` sidecars) and hang artifacts, its manifest and its
  ``fuzzer_stats``;
- a journal with records, two compaction snapshots (the second prunes
  what the first covers) and one request file of each kind.

It pins the sorted relative paths and a sha256 over (path, bytes).
Request nonces are random, so each request's nonce is masked in its name
and body, and the name's hash is checked against the body before it is
masked.  The scenario writes no pid, lease expiry or wall-clock field:
the slice LOCK is released at close and every journal payload is fixed.

Any diff here changes what an older workspace or journal can resume
from; if it is deliberate, bump the format version and re-bless.
"""

import hashlib
import os
import re

from repro.fuzzer.engine import CrashRecord
from repro.fuzzer.store import CampaignStore
from repro.runtime.traps import Frame, Trap
from repro.service import intake
from repro.service.journal import JobJournal

REQUEST = re.compile(r"req:(req-[0-9a-f]{12}),hash:([0-9a-f]{40})$")

SPEC = {
    "job_id": "j000000",
    "index": 0,
    "subject": "gdk",
    "config": "path",
    "run_seed": 0,
    "tenant": "default",
    "priority": 0,
    "budget_ticks": 1000,
    "max_retries": 2,
    "require_checkpoint": False,
}


class _Entry:
    def __init__(self, data):
        self.data = data


def _write_store(root):
    store = CampaignStore(
        os.path.join(root, "out"),
        meta={"subject": "gdk", "config": "path", "run_seed": 3},
        fsync=False,
    )
    store.save_queue_entry(_Entry(b"seed-one"))
    store.save_queue_entry(_Entry(b"\x00\xffseed-two"))
    store.save_queue_entry(_Entry(b"seed-one"))  # deduped: no file
    trap = Trap(
        "heap-buffer-overflow",
        "parse_header",
        42,
        "index 9 of size 8",
        [Frame("parse_header", 42), Frame("main", 7)],
    )
    store.save_crash(CrashRecord(b"CRASH!", trap, 1234, True, "0123456789abcdef"))
    store.save_hang(b"spin forever")
    store.record_round(2)
    store.write_stats({"execs_done": 77, "paths_total": 2, "worker": "main"})
    store.close()


def _write_journal(root):
    journal = JobJournal(root, fsync=False, fence=1)
    journal.append(None, "epoch", {"epoch": 0})
    journal.append("j000000", "submit", SPEC)
    journal.append("j000000", "start", {"attempt": 1, "pid": 4242})
    journal.append("j000000", "done", {"summary": {"execs": 7}})
    journal.compact()
    journal.append(None, "epoch", {"epoch": 1})
    journal.compact()
    journal.append(None, "epoch", {"epoch": 2})
    intake.submit_request(root, {"subject": "jq", "budget_ticks": 500}, fsync=False)
    intake.cancel_request(root, "j000000", fsync=False)
    intake.drain_request(root, fsync=False)


def _masked_files(root):
    files = []
    for top, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(top, name)
            with open(path, "rb") as handle:
                body = handle.read()
            match = REQUEST.match(name)
            if match is not None:
                nonce, digest = match.groups()
                assert hashlib.sha1(body).hexdigest() == digest
                name = "req:<nonce>,hash:<masked>"
                body = body.replace(nonce.encode("ascii"), b"<nonce>")
            rel = os.path.relpath(os.path.join(top, name), root)
            files.append((rel.replace(os.sep, "/"), body))
    return sorted(files)


def test_durable_files_keep_their_names_and_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_HOST", "pinhost")
    root = str(tmp_path)
    _write_store(root)
    _write_journal(root)
    files = _masked_files(root)
    digest = hashlib.sha256()
    for rel, body in files:
        digest.update(b"%s\0%d\0" % (rel.encode("utf-8"), len(body)))
        digest.update(body)
    assert [rel for rel, _ in files] == NAMES
    assert digest.hexdigest() == DIGEST


NAMES = [
    "journal/rec:00000004,hash:831ad2daab9bd518a9076c759c3000377244e779",
    "journal/rec:00000005,hash:6d57e78daa8c9d0496962ad1c48a97be318f390c",
    "journal/rec:00000006,hash:fac7d5b54b15e81c04bbf5f341a9402d3b4ce6c1",
    "journal/rec:00000007,hash:0a07f21b9d0626dee63dac23b90fbb4f299cc7b6",
    "journal/req:<nonce>,hash:<masked>",
    "journal/req:<nonce>,hash:<masked>",
    "journal/req:<nonce>,hash:<masked>",
    "journal/seq/00000004",
    "journal/seq/00000005",
    "journal/seq/00000006",
    "journal/seq/00000007",
    "journal/snap:00000003,hash:50161dfc1eaa1d4dc86b5711d3660631ea2b0155",
    "journal/snap:00000005,hash:400b4699bd01e018544c85a7b2973529311f20aa",
    "out/main/crashes/id:000000,sig:0123456789abcdef,"
    "hash:3471b2b82e33ae5f6c34c9c1ad23555d869a3e54",
    "out/main/crashes/id:000000,sig:0123456789abcdef,"
    "hash:3471b2b82e33ae5f6c34c9c1ad23555d869a3e54.report.txt",
    "out/main/crashes/id:000000,sig:0123456789abcdef,"
    "hash:3471b2b82e33ae5f6c34c9c1ad23555d869a3e54.triage.json",
    "out/main/fuzzer_stats",
    "out/main/hangs/id:000000,hash:915918ac8be3108140be9aec4d11f8a74790dfb7",
    "out/main/manifest.json",
    "out/main/queue/id:000000,hash:035807771e42856c283c034f59b37669fd667dd3",
    "out/main/queue/id:000001,hash:df394606ec56642b9ed59c5cfcf332eaddef7bf7",
]

DIGEST = "e1c4237825286cd7772159819e44112411626c1754d6279da194aa52d02696a6"
