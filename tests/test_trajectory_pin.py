"""Pinned trajectories of plain havoc campaigns and of whole-config results.

Each engine-level pin (``PINNED``) is a 2-virtual-hour single-engine
campaign on nm_new, flvmeta, jhead or imginfo, with the taint and concolic
stages off: ``path``, ``pcguard`` and ``afl`` (the legacy havoc
repertoire) on all four, and ``pathafl``, ``ngram4``, ``block`` and
``path2gram`` on nm_new and jhead.  One digest per (subject, config) covers
the queue (bytes, found_at, depth), the crash and hang buckets, the
counters, the timeline and the RNG state.  The interpreter and the
compiled backend must both reach the pinned digest, and so must a traced
campaign (telemetry is pure observation).

Each result-level pin (``PINNED_RESULTS``) is a 2-virtual-hour campaign
built through :func:`run_config`, so it covers the multi-engine drivers
(``cull``, ``cull_r``, ``cull_paths`` and ``opp``) and the final edge
replay.  One digest covers the result's edge set, bugs, crash and hang
records, execs, ticks, queue size and timeline, under both backends.

The digests pin the mutators' random stream draw for draw: any change to
which words of the RNG a havoc, splice or fallback draw consumes changes
them, as does any other change to what these campaigns do.  A deliberate
change re-blesses the table: ``PYTHONPATH=src python tests/test_trajectory_pin.py``
prints the current digests.
"""

import hashlib

import pytest

from repro.experiments.config import FUZZER_CONFIGS, campaign_rng, run_config
from repro.fuzzer.clock import hours_to_ticks
from repro.fuzzer.engine import FuzzEngine
from repro.subjects import get_subject
from repro.telemetry.bus import TelemetryBus
from repro.telemetry.trace import EngineTelemetry

VHOURS = 2
RUN_SEED = 1

PINNED = {
    ("flvmeta", "afl"): "cc5ec738bc5189752207b9b0",
    ("flvmeta", "path"): "5a63f4961294dfc67922f4f1",
    ("flvmeta", "pcguard"): "e828717aa9f50878f37cd70a",
    ("imginfo", "afl"): "c5e27fc0a62325e9dc16ec1b",
    ("imginfo", "path"): "59f6fa82716f3532aa8e2ea8",
    ("imginfo", "pcguard"): "9a4a60d9b1122f0d0059511a",
    ("jhead", "afl"): "241c29989b7fd6ff2fe312fe",
    ("jhead", "block"): "7022f7583dc60864c969c25a",
    ("jhead", "ngram4"): "ca6d7170b9795d9da6d05fbe",
    ("jhead", "path"): "51f6a46671d608743f82fe62",
    ("jhead", "path2gram"): "e8abbfc306b6a6efc0c3ac1f",
    ("jhead", "pathafl"): "9f396341c31cddd7157452f6",
    ("jhead", "pcguard"): "7da2f80899b9208a3e314310",
    ("nm_new", "afl"): "5a5ed6716bd87e87fd8e6363",
    ("nm_new", "block"): "f23467f45f728caa559a7430",
    ("nm_new", "ngram4"): "e62f1dd1f073765e8f273926",
    ("nm_new", "path"): "e481b2fed4ec1eb4002ae20d",
    ("nm_new", "path2gram"): "99791112bce90518052d7307",
    ("nm_new", "pathafl"): "25c5d170b792e5067c0a0f4b",
    ("nm_new", "pcguard"): "ba82291fc7e3d23f8000c42b",
}

PINNED_RESULTS = {
    ("jhead", "cull"): "839ff4817134b57a59b2cef8",
    ("jhead", "cull_paths"): "dd01ed43e87f269521396fb9",
    ("jhead", "cull_r"): "4191af2662c340e09ca34240",
    ("jhead", "opp"): "81ba6039cf388843211cb6d2",
    ("nm_new", "cull"): "382f7df153fba16456a9d269",
    ("nm_new", "cull_paths"): "5bcec3dc3abc99d3aa2377b3",
    ("nm_new", "cull_r"): "16082101533d6fdba1bd5261",
    ("nm_new", "opp"): "2e29ce80493f434b7f330c8a",
}


def run_campaign(subject_name, config_name, backend="interp", telemetry=None):
    """One fixed-seed campaign with every switch set explicitly."""
    subject = get_subject(subject_name)
    spec = FUZZER_CONFIGS[config_name]
    config = spec.engine_config(subject)
    config.backend = backend
    config.use_taint = False
    config.use_concolic = False
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
    return (
        [(e.data, e.found_at, e.depth) for e in engine.queue.entries],
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
    )


def campaign_digest(engine):
    return hashlib.sha256(repr(campaign_key(engine)).encode()).hexdigest()[:24]


def run_result(subject_name, config_name):
    """One fixed-seed campaign through the experiment runner.

    The backend comes from ``REPRO_BACKEND``, the one knob ``run_config``
    honours for every engine it builds.
    """
    subject = get_subject(subject_name)
    return run_config(subject, config_name, RUN_SEED, hours_to_ticks(VHOURS))


def result_key(result):
    """Everything a result pin compares, as one repr-able tuple."""
    return (
        sorted(result.edges),
        sorted(result.bugs),
        [
            (r.hash5, r.bug, r.kind, r.count, r.afl_unique, r.found_at, r.stack)
            for r in sorted(result.crash_records, key=lambda r: r.hash5)
        ],
        [(h.input_hash, h.data, h.count, h.found_at) for h in result.hang_records],
        (result.execs, result.ticks, result.queue_size),
        result.timeline,
    )


def result_digest(result):
    return hashlib.sha256(repr(result_key(result)).encode()).hexdigest()[:24]


@pytest.mark.parametrize("backend", ["interp", "compile"])
@pytest.mark.parametrize("subject_name, config_name", sorted(PINNED))
def test_plain_campaign_pinned(subject_name, config_name, backend):
    engine = run_campaign(subject_name, config_name, backend)
    digest = campaign_digest(engine)
    assert digest == PINNED[subject_name, config_name], (
        "new digest for %s/%s (%s): %r" % (subject_name, config_name, backend, digest)
    )


@pytest.mark.parametrize("backend", ["interp", "compile"])
@pytest.mark.parametrize("subject_name, config_name", sorted(PINNED_RESULTS))
def test_config_result_pinned(subject_name, config_name, backend, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    digest = result_digest(run_result(subject_name, config_name))
    assert digest == PINNED_RESULTS[subject_name, config_name], (
        "new digest for %s/%s (%s): %r" % (subject_name, config_name, backend, digest)
    )


def test_traced_campaign_matches_pin():
    telemetry = EngineTelemetry(bus=TelemetryBus(), label="pin")
    engine = run_campaign("flvmeta", "path", backend="compile", telemetry=telemetry)
    assert campaign_digest(engine) == PINNED["flvmeta", "path"]
    # The pin is only worth its keep while havoc grows the queue.
    assert len(engine.queue.entries) > len(get_subject("flvmeta").seeds)


if __name__ == "__main__":
    for subject_name, config_name in sorted(PINNED):
        digest = campaign_digest(run_campaign(subject_name, config_name))
        print('    ("%s", "%s"): "%s",' % (subject_name, config_name, digest))
    print()
    for subject_name, config_name in sorted(PINNED_RESULTS):
        digest = result_digest(run_result(subject_name, config_name))
        print('    ("%s", "%s"): "%s",' % (subject_name, config_name, digest))
