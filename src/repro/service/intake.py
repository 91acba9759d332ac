"""Live intake: request files any process may drop for a running daemon.

A stopped service root accepts submissions directly — ``repro job
submit`` takes the root lock and journals the ``submit`` record itself.
Against a *live* root that path is closed (the daemon owns the lock), so
live submissions travel as **request files** instead: sealed
``journal/req:<nonce>,hash:<sha1>`` files (DESIGN.md §8) that need no
lock at all.  The daemon's journal-tail watcher picks them up,
re-checks admission (quotas, overload breaker — the client's view may be
stale), and settles each request exactly once by journaling a real
``submit`` / ``cancel`` (with ``payload["request"] = nonce``), a
``refuse``, or an ``ack`` — then deletes the file.

Exactly-once hinges on the nonce: the settling journal record names it,
the fold tracks every settled nonce (see
:class:`repro.service.jobs.FoldState`), and a request file that survives
a daemon crash after its settling record committed is recognized as
settled and discarded on recovery, never converted twice.

The files are deliberately *not* journal records: journal sequence
numbers belong to the root's (single, fenced) lock holder, so granting
them to arbitrary submitters would reopen the multi-writer races the
lease protocol just closed.  Requests are unordered by design — the
daemon admits them in nonce order within one pump — and carry no
authority until the daemon converts them.
"""

import binascii
import os

from repro.fuzzer.store import list_sealed, read_sealed_json, write_sealed_json
from repro.service.journal import JOURNAL_DIR

REQUEST_VERSION = 1

#: Request kinds a daemon understands.
REQUEST_KINDS = ("submit-request", "cancel-request", "drain-request")


def new_nonce():
    """A fresh client-side request id (``req-<12 hex>``)."""
    return "req-%s" % binascii.hexlify(os.urandom(6)).decode("ascii")


def write_request(root, kind, payload=None, fsync=True):
    """Atomically drop one request file for the daemon; returns its nonce.

    Safe against any number of concurrent writers and against the daemon
    reading mid-drop: a sealed file is either absent or complete, and
    its name's hash proves completeness.
    """
    if kind not in REQUEST_KINDS:
        raise ValueError("unknown request kind %r" % (kind,))
    journal_dir = os.path.join(os.path.abspath(root), JOURNAL_DIR)
    os.makedirs(journal_dir, exist_ok=True)
    nonce = new_nonce()
    request = {
        "version": REQUEST_VERSION,
        "nonce": nonce,
        "kind": kind,
        "payload": payload or {},
    }
    write_sealed_json(journal_dir, "req", nonce, request, fsync=fsync)
    return nonce


def scan_requests(root):
    """Verified pending requests: ``(requests, damaged)``.

    ``requests`` is a list of ``{"nonce", "kind", "payload", "path"}``
    dicts sorted by nonce (admission order within one pump); ``damaged``
    lists ``(name, reason)`` for files that failed verification — the
    caller decides whether to quarantine them.  Never raises on damage.
    """
    journal_dir = os.path.join(os.path.abspath(root), JOURNAL_DIR)
    requests = []
    damaged = []
    for nonce, _sig, digest, name in list_sealed(journal_dir, "req"):
        path = os.path.join(journal_dir, name)
        data, reason = read_sealed_json(path, digest)
        if data is not None and data.get("nonce") != nonce:
            data, reason = None, "nonce mismatch"
        if data is None:
            damaged.append((name, reason))
            continue
        requests.append(
            {
                "nonce": nonce,
                "kind": data.get("kind", "?"),
                "payload": data.get("payload") or {},
                "path": path,
            }
        )
    return requests, damaged


def discard_request(path):
    """Remove a settled (or hopeless) request file, best-effort."""
    try:
        os.unlink(path)
    except OSError:
        pass


def submit_request(root, spec_kwargs, fsync=True):
    """Ask the live daemon to admit one campaign; returns the nonce."""
    return write_request(
        root, "submit-request", {"spec": dict(spec_kwargs)}, fsync=fsync
    )


def cancel_request(root, job_id, fsync=True):
    """Ask the live daemon to cancel one job; returns the nonce."""
    return write_request(
        root, "cancel-request", {"job": str(job_id)}, fsync=fsync
    )


def drain_request(root, fsync=True):
    """Ask the live daemon to finish its backlog and exit; returns the nonce."""
    return write_request(root, "drain-request", {}, fsync=fsync)
