"""Fuzzer configurations and the single-campaign entry point.

``FUZZER_CONFIGS`` names every configuration evaluated in the paper plus
the extensions:

==============  ============================================================
``pcguard``     AFL++-like engine, edge-coverage feedback (the baseline)
``path``        same engine, Ball-Larus path-aware feedback (Sec. III-A)
``cull``        path + round-based edge-preserving culling (Sec. III-B1)
``cull_r``      path + random culling (Appendix D ablation)
``cull_paths``  path + path-identity culling (the footnote's inferior pick)
``opp``         edge phase then path phase, 50/50 split (Sec. III-B2)
``pathafl``     AFL-like engine + PathAFL-style h-path feedback (App. C)
``afl``         AFL-like engine + edge feedback (App. C baseline)
``ngram4``      AFL++-like engine + 4-gram feedback (related work)
``block``       AFL++-like engine + block coverage (weakest feedback)
``path2gram``   path + 2-grams of consecutive acyclic paths (Sec. VII)
``taint``       pcguard + taint-guided rare-branch targeting (DESIGN §12)
``concolic``    taint + plateau-triggered concolic solving (DESIGN §14)
==============  ============================================================

The paper's timing ratios are preserved: 48-hour campaigns, 6-hour culling
rounds, a 24 h/24 h opportunistic split.
"""

import hashlib
import random

from repro.coverage.feedback import (
    BlockFeedback,
    EdgeFeedback,
    NGramFeedback,
    PathAFLFeedback,
    PathFeedback,
    PathPairFeedback,
)
from repro.fuzzer.campaign import result_from_engines
from repro.fuzzer.engine import EngineConfig, FuzzEngine, afl_engine_config
from repro.fuzzer.session import CampaignSession
from repro.strategies.culling import run_culling_campaign
from repro.strategies.opportunistic import run_opportunistic_campaign

# Paper timing: 48 h campaigns, 6 h culling rounds -> 8 rounds.
CULL_ROUND_FRACTION = 6.0 / 48.0
OPP_SWITCH_FRACTION = 0.5


class ConfigSpec:
    """How to build and drive one fuzzer configuration."""

    def __init__(self, name, kind, feedback_factory=None, engine_style="aflpp",
                 criterion=None, engine_overrides=None):
        self.name = name
        self.kind = kind  # "plain" | "cull" | "opp"
        self.feedback_factory = feedback_factory
        self.engine_style = engine_style  # "aflpp" | "afl"
        self.criterion = criterion
        # Extra EngineConfig keyword arguments layered over the subject's
        # execution limits (e.g. {"use_taint": True} for the taint config).
        self.engine_overrides = engine_overrides or {}

    def engine_config(self, subject):
        kwargs = dict(
            max_input_len=subject.max_input_len,
            exec_instr_budget=subject.exec_instr_budget,
            call_depth_limit=subject.call_depth_limit,
        )
        kwargs.update(self.engine_overrides)
        if self.engine_style == "afl":
            return afl_engine_config(**kwargs)
        return EngineConfig(**kwargs)


FUZZER_CONFIGS = {
    "pcguard": ConfigSpec("pcguard", "plain", EdgeFeedback),
    "path": ConfigSpec("path", "plain", PathFeedback),
    "cull": ConfigSpec("cull", "cull", PathFeedback, criterion="edges"),
    "cull_r": ConfigSpec("cull_r", "cull", PathFeedback, criterion="random"),
    "cull_paths": ConfigSpec("cull_paths", "cull", PathFeedback, criterion="paths"),
    "opp": ConfigSpec("opp", "opp"),
    "pathafl": ConfigSpec("pathafl", "plain", PathAFLFeedback, engine_style="afl"),
    "afl": ConfigSpec("afl", "plain", EdgeFeedback, engine_style="afl"),
    "ngram4": ConfigSpec("ngram4", "plain", lambda: NGramFeedback(4)),
    "block": ConfigSpec("block", "plain", BlockFeedback),
    "path2gram": ConfigSpec("path2gram", "plain", PathPairFeedback),
    "taint": ConfigSpec(
        "taint", "plain", EdgeFeedback, engine_overrides={"use_taint": True}
    ),
    "concolic": ConfigSpec(
        "concolic",
        "plain",
        EdgeFeedback,
        engine_overrides={"use_taint": True, "use_concolic": True},
    ),
}


def campaign_rng(subject_name, config_name, run_seed):
    """A deterministic RNG unique to (subject, config, run)."""
    digest = hashlib.sha256(
        ("%s|%s|%d" % (subject_name, config_name, run_seed)).encode("utf-8")
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def build_session(
    subject, config_name, run_seed, budget_ticks, checkpoint_path=None,
    instance=None, telemetry=None, store=None,
):
    """A plain campaign's engine (``store`` attached) in a :class:`CampaignSession`.

    ``instance=None`` draws :func:`campaign_rng`; an index draws that
    instance's stream (:func:`~repro.fuzzer.parallel.instance_rng_seed`).
    """
    spec = FUZZER_CONFIGS[config_name]
    if spec.kind != "plain":
        raise ValueError(
            "config %r (%s) runs no single engine" % (config_name, spec.kind)
        )
    if instance is None:
        rng = campaign_rng(subject.name, config_name, run_seed)
    else:
        from repro.fuzzer.parallel import instance_rng_seed

        rng = random.Random(
            instance_rng_seed(subject.name, config_name, run_seed, instance)
        )
    engine = FuzzEngine(
        subject.program,
        spec.feedback_factory(),
        subject.seeds,
        rng,
        spec.engine_config(subject),
        subject.tokens,
        telemetry=telemetry,
    )
    engine.store = store
    identity = dict(subject=subject.name, config=config_name, run_seed=run_seed,
                    instance=instance, budget=budget_ticks)
    return CampaignSession(engine, identity, budget_ticks, checkpoint_path)


def run_session(session, checkpoint_every=None):
    """Drive an opened plain session to its budget; returns the engine.

    With a checkpoint path the engine checkpoints every ``checkpoint_every``
    ticks (default budget / 8); slicing at ``run_until`` barriers is
    trajectory-neutral.
    """
    engine, budget_ticks = session.engine, session.budget_ticks
    every = budget_ticks
    if session.checkpoint_path:
        every = checkpoint_every or max(1, budget_ticks // 8)
    while True:
        engine.run_until(min(budget_ticks, (engine.clock.ticks // every + 1) * every))
        if session.checkpoint_path:
            session.save({"ticks": engine.clock.ticks})
        if engine.clock.ticks >= budget_ticks:
            break
    engine.finish()
    if engine.store is not None:
        engine.store.finalize(engine)
    return engine


def run_config(
    subject, config_name, run_seed, budget_ticks, checkpoint_path=None,
    checkpoint_every=None, telemetry=None, store=None, resume_store=False,
):
    """Run one campaign and return its CampaignResult.

    ``checkpoint_path`` (plain configs only) makes the campaign durable:
    the engine snapshots there periodically (every ``checkpoint_every``
    ticks, default budget / 8) and resumes from a valid snapshot of this
    campaign instead of recomputing from zero (:mod:`repro.fuzzer.session`).

    ``store`` (plain configs only) attaches a
    :class:`~repro.fuzzer.store.CampaignStore`: every retained input,
    crash, and hang streams to the workspace as found, and
    ``fuzzer_stats`` is finalized at campaign end.  ``resume_store=True``
    additionally rebuilds the engine from the store's surviving artifacts
    before fuzzing (the ``--resume-dir`` path; lossless but not
    tick-identical).  The store is an observer: the campaign result is
    field-for-field equal to a store-less run.

    ``telemetry`` (plain configs only) is an
    :class:`~repro.telemetry.trace.EngineTelemetry` for the engine: spans,
    metric snapshots, and live plateau events, with zero effect on the
    campaign result (the determinism contract CI asserts).
    """
    spec = FUZZER_CONFIGS[config_name]
    if store is not None and spec.kind != "plain":
        raise ValueError(
            "config %r (%s) cannot stream to a campaign store; "
            "only plain single-engine configs can" % (config_name, spec.kind)
        )
    if spec.kind == "plain":
        session = build_session(
            subject, config_name, run_seed, budget_ticks, checkpoint_path,
            telemetry=telemetry, store=store,
        )
        session.open(try_checkpoint=bool(checkpoint_path), replay_store=resume_store)
        engine = run_session(session, checkpoint_every)
        return result_from_engines(subject, config_name, run_seed, [engine], engine)
    rng = campaign_rng(subject.name, config_name, run_seed)
    engine_config = spec.engine_config(subject)
    if spec.kind == "cull":
        engines, final = run_culling_campaign(
            subject,
            spec.feedback_factory,
            budget_ticks,
            max(1, int(budget_ticks * CULL_ROUND_FRACTION)),
            rng,
            engine_config,
            criterion=spec.criterion,
        )
    elif spec.kind == "opp":
        engines, final, _ = run_opportunistic_campaign(
            subject, budget_ticks, rng, engine_config, OPP_SWITCH_FRACTION
        )
    else:  # pragma: no cover
        raise ValueError("unknown config kind %r" % spec.kind)
    return result_from_engines(subject, config_name, run_seed, engines, final)
