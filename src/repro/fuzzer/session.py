"""The resume ladder: checkpoint, else store replay, else a fresh start.

Every durable campaign opens its engine through a :class:`CampaignSession`
(DESIGN §6).  A checkpoint is resumed only if its meta carries the
session's campaign identity, which :meth:`CampaignSession.save` stamps.
"""

import collections
import os

from repro.fuzzer.checkpoint import CheckpointError, CheckpointStaleError, read_checkpoint
from repro.fuzzer.store import attach_store

CHECKPOINT = "checkpoint"
STORE = "store"
FRESH = "fresh"
REFUSED = "refused"

#: The rung :meth:`CampaignSession.open` took, the checkpoint meta, and
#: why a checkpoint was refused ("" when none was).
Resume = collections.namedtuple("Resume", "rung meta refusal")


class CampaignSession:
    """An engine (store attached) bound to its campaign identity: subject,
    config, run seed, instance index (``None``: the campaign's own RNG
    stream) and budget."""

    def __init__(self, engine, identity, budget_ticks, checkpoint_path=None):
        self.engine = engine
        self.identity = dict(identity)
        self.budget_ticks = budget_ticks
        self.checkpoint_path = checkpoint_path

    def open(self, try_checkpoint, replay_store=False, require_checkpoint=False):
        """Climb the resume ladder; returns a :data:`Resume`.

        ``replay_store`` lets the store stand in for a missing or refused
        checkpoint.  With ``require_checkpoint`` a refused file ends the
        ladder at ``refused`` before the engine starts, so not even the
        seeds stream into the store.
        """
        engine, store = self.engine, self.engine.store
        refusal = ""
        path = self.checkpoint_path
        if try_checkpoint and path and os.path.exists(path):
            try:
                state, meta = read_checkpoint(path)
                if meta.get("campaign") != self.identity:
                    raise CheckpointStaleError(
                        "%s: checkpoint of campaign %r, not %r; refusing to "
                        "resume another campaign"
                        % (path, meta.get("campaign"), self.identity),
                        path=path,
                        field="campaign",
                        expected=self.identity,
                        found=meta.get("campaign"),
                    )
                engine.restore(state)
            except (CheckpointError, OSError) as exc:
                refusal = "%s: %s" % (type(exc).__name__, exc)
                if require_checkpoint:
                    return Resume(REFUSED, {}, refusal)
            else:
                if store is not None:
                    # A power loss can tear what the store wrote since its
                    # last sync point: quarantine that, then backfill what
                    # the snapshot holds (content-deduped, so normally a
                    # no-op).
                    store.scan_all()
                    attach_store(engine, store)
                return Resume(CHECKPOINT, meta, "")
        # Survivors of an earlier run, not the seeds the dry run streams.
        replay = replay_store and store is not None and store.has_artifacts()
        engine.start(self.budget_ticks)
        if replay:
            store.replay_into(engine)
            return Resume(STORE, {}, refusal)
        return Resume(FRESH, {}, refusal)

    def save(self, meta=None):
        """Checkpoint the engine, stamped with this campaign's identity."""
        meta = dict(meta or {}, campaign=self.identity)
        return self.engine.save_checkpoint(self.checkpoint_path, meta=meta)
