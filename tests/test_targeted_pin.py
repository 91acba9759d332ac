"""Pinned trajectories of campaigns that run the targeted stages.

Each pinned campaign is a 6-virtual-hour ``taint`` or ``concolic`` campaign
on gdk, jq or lame.  Both rare-branch stages fire on them: taint runs,
masked I2S, the byte sweep and masked havoc, path-condition extraction,
and on gdk a solved guard whose witness flips the branch.  One digest per
(subject, config) covers the queue (bytes, found_at, depth, taint focus),
the crash and hang buckets, the counters, the timeline, the RNG state and
every TaintState/ConcolicState counter, visit map and detector state.  The
interpreter and the compiled backend must both reach the pinned digest, and
so must a traced campaign (telemetry is pure observation).

Any change to what these campaigns do changes a digest.  A deliberate
change re-blesses the table: ``PYTHONPATH=src python tests/test_targeted_pin.py``
prints the current digests.
"""

import hashlib

import pytest

from repro.experiments.config import FUZZER_CONFIGS, campaign_rng
from repro.fuzzer.clock import hours_to_ticks
from repro.fuzzer.engine import FuzzEngine
from repro.subjects import get_subject
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.trace import EngineTelemetry

VHOURS = 6
RUN_SEED = 1

PINNED = {
    ("gdk", "taint"): "331ab89aa4d70da454ba6ea0",
    ("gdk", "concolic"): "1b9c6e072c2a4b62ee2f13d6",
    ("jq", "taint"): "6472655a7e7531e4394e5222",
    ("jq", "concolic"): "bdc2236f6a24e98d15996618",
    ("lame", "taint"): "dab2f92d7c430c72e8c4f56c",
    ("lame", "concolic"): "b181f55133d9e7ddb808d2c5",
}


def run_campaign(subject_name, config_name, backend="interp", telemetry=None):
    """One fixed-seed campaign with every switch set explicitly."""
    subject = get_subject(subject_name)
    spec = FUZZER_CONFIGS[config_name]
    config = spec.engine_config(subject)
    config.backend = backend
    config.use_taint = True
    config.use_concolic = config_name == "concolic"
    engine = FuzzEngine(
        subject.program,
        spec.feedback_factory(),
        subject.seeds,
        campaign_rng(subject_name, config_name, RUN_SEED),
        config,
        subject.tokens,
        telemetry=telemetry,
    )
    return engine.run(hours_to_ticks(VHOURS))


def campaign_key(engine):
    """Everything the pin compares, as one repr-able tuple."""
    taint = engine.taint.snapshot()
    taint["maps"] = list(taint["maps"])  # cached entry ids, LRU order
    concolic = engine.concolic.snapshot() if engine.concolic is not None else None
    return (
        [
            (
                e.data,
                e.found_at,
                e.depth,
                sorted(e.taint_focus) if e.taint_focus is not None else None,
            )
            for e in engine.queue.entries
        ],
        [
            (h, r.trap.bug_id(), r.found_at, r.afl_unique, r.count)
            for h, r in engine.unique_crashes.items()
        ],
        [(h, r.found_at, r.count) for h, r in engine.unique_hangs.items()],
        (
            engine.execs,
            engine.hangs,
            engine.crash_count,
            engine.afl_unique_crash_count,
            engine.cycle,
            engine.clock.ticks,
        ),
        engine.timeline,
        engine.rng.getstate(),
        taint,
        concolic,
    )


def campaign_digest(engine):
    return hashlib.sha256(repr(campaign_key(engine)).encode()).hexdigest()[:24]


@pytest.mark.parametrize("backend", ["interp", "compile"])
@pytest.mark.parametrize("subject_name, config_name", sorted(PINNED))
def test_targeted_campaign_pinned(subject_name, config_name, backend):
    engine = run_campaign(subject_name, config_name, backend)
    digest = campaign_digest(engine)
    assert digest == PINNED[subject_name, config_name], (
        "new digest for %s/%s (%s): %r" % (subject_name, config_name, backend, digest)
    )


def test_traced_gdk_campaign_matches_pin_and_flips():
    telemetry = EngineTelemetry(bus=TelemetryBus(), label="pin")
    engine = run_campaign("gdk", "concolic", telemetry=telemetry)
    assert campaign_digest(engine) == PINNED["gdk", "concolic"]
    # The pin is only worth its keep while both stages do real work.
    assert engine.taint.masked_hits and engine.concolic.flips
    assert any(e.taint_focus for e in engine.queue.entries)


if __name__ == "__main__":
    for subject_name, config_name in sorted(PINNED):
        digest = campaign_digest(run_campaign(subject_name, config_name))
        print('    ("%s", "%s"): "%s",' % (subject_name, config_name, digest))
