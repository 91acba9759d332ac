"""End-to-end tests for the plateau-triggered concolic stage.

The acceptance property (ISSUE 10): on rare-guard subjects whose trap
condition couples multiple input bytes through an arithmetic transform,
a plateau-triggered concolic campaign reaches the trap within a fixed
tick budget where blind pcguard *and* taint-masked-only campaigns do
not.  The subjects below are built so the taint sweep is structurally
blind to them: ``sweep_candidates`` enumerates focus bytes one at a
time (never the 2-byte cross product a ``read16`` needs), and the
cmplog constants do not fit the focus runs, so I2S patching cannot
invert the transform either.  Only the solver can.
"""

import random

import pytest

from repro.coverage.feedback import EdgeFeedback
from repro.fuzzer import engine as engine_mod
from repro.fuzzer.concolic import CONCOLIC_ENV, ConcolicState, concolic_enabled
from repro.fuzzer.engine import EngineConfig, FuzzEngine
from repro.lang import compile_source

BUDGET = 400_000

# trap guard: v = read16be(input, 4); v*3+7 == 182632  <=>  v == 0xEDCB.
# The comparison constant (182632) needs 3 bytes, so masked I2S patching
# into the 2-byte focus run can never encode it.
MULREAD = """
fn main(input) {
    if (len(input) < 7) { return 0; }
    if (read32(input, 0) != 0x4D414743) { return 1; }
    var v = read16(input, 4);
    if (v * 3 + 7 == 182632) { trap(1); }
    return 2;
}
"""

# trap guard: v = read16le(input, 4); (v>>2)+(v<<1) == 109977  <=>
# v == 0xBEEF (the transform is strictly increasing, so the witness is
# unique).  Little-endian read: input bytes 4..5 must be EF BE.
SHIFTSUM = """
fn main(input) {
    if (len(input) < 7) { return 0; }
    if (read32(input, 0) != 0x4D414743) { return 1; }
    var v = read16le(input, 4);
    if ((v >> 2) + (v << 1) == 109977) { trap(2); }
    return 2;
}
"""

SEEDS = [b"MAGC\x00\x00\x00", b"nope"]


def _config(use_taint, use_concolic):
    return EngineConfig(
        max_input_len=16,
        exec_instr_budget=10_000,
        timeline_interval=64,
        use_taint=use_taint,
        taint_targets=8,
        use_concolic=use_concolic,
        concolic_targets=8,
    )


def _engine(source, use_taint, use_concolic, seed=0):
    return FuzzEngine(
        compile_source(source),
        EdgeFeedback(),
        list(SEEDS),
        random.Random(seed),
        _config(use_taint, use_concolic),
    )


def _run(source, use_taint, use_concolic, seed=0):
    return _engine(source, use_taint, use_concolic, seed).run(BUDGET)


def _bugs(engine):
    return {record.bug_id() for record in engine.unique_crashes.values()}


def _state(engine):
    """Everything the determinism contract compares."""
    return {
        "execs": engine.execs,
        "hangs": engine.hangs,
        "ticks": engine.clock.ticks,
        "cycle": engine.cycle,
        "queue": [e.data for e in engine.queue.entries],
        "crash_count": engine.crash_count,
        "crashes": sorted(
            (h, r.count, r.found_at) for h, r in engine.unique_crashes.items()
        ),
        "virgin": dict(engine.virgin.bits),
        "timeline": list(engine.timeline),
        "rng": engine.rng.getstate(),
    }


# -- the acceptance criterion --------------------------------------------------


@pytest.mark.parametrize(
    "name, source", [("mulread", MULREAD), ("shiftsum", SHIFTSUM)]
)
def test_concolic_cracks_coupled_guards_that_taint_cannot(name, source):
    blind = _run(source, use_taint=False, use_concolic=False)
    taint = _run(source, use_taint=True, use_concolic=False)
    concolic = _run(source, use_taint=True, use_concolic=True)

    trap_bugs = {bug for bug in _bugs(concolic) if bug[2] == "assertion-failure"}
    assert trap_bugs, "%s: concolic campaign never reached the trap" % name
    assert not _bugs(blind), "%s: blind campaign found the trap too" % name
    assert not _bugs(taint), "%s: taint-only campaign found the trap too" % name

    state = concolic.concolic
    assert state.extract_runs > 0
    assert state.solve_attempts > 0
    assert state.solved > 0
    assert state.flips > 0
    assert 0.0 < state.solve_rate() <= 1.0


def test_escalation_only_fires_on_plateau():
    # The stage runs at cycle boundaries only while the detector reports an
    # open plateau, so extraction work is bounded by stall time — a cracked
    # campaign has orders of magnitude fewer extract runs than executions.
    engine = _run(MULREAD, use_taint=True, use_concolic=True)
    assert engine.concolic.extract_runs < engine.execs // 10


def test_both_stages_share_one_branch_index(monkeypatch):
    calls = []
    real = engine_mod.build_branch_index

    def spy(program, instrumentation):
        calls.append(program)
        return real(program, instrumentation)

    monkeypatch.setattr(engine_mod, "build_branch_index", spy)
    engine = _run(MULREAD, use_taint=True, use_concolic=True)
    assert engine.taint.targets_selected > 0
    assert engine.concolic.targets_selected > 0
    assert len(calls) == 1


# -- off-switch identity -------------------------------------------------------


def test_concolic_off_leaves_engine_without_state(monkeypatch):
    monkeypatch.delenv(CONCOLIC_ENV, raising=False)
    assert _engine(MULREAD, True, False).concolic is None
    assert _engine(MULREAD, True, None).concolic is None
    assert _engine(MULREAD, True, True).concolic is not None


def test_concolic_off_is_campaign_identical_to_default(monkeypatch):
    # use_concolic=False and use_concolic=None (env unset) must produce
    # tick-for-tick identical campaigns: the stage is gated on a single
    # `self.concolic is None` check, so "off" has zero behavioral surface.
    monkeypatch.delenv(CONCOLIC_ENV, raising=False)
    explicit = _run(MULREAD, use_taint=True, use_concolic=False)
    default = _run(MULREAD, use_taint=True, use_concolic=None)
    assert _state(explicit) == _state(default)


def test_concolic_enabled_env_resolution(monkeypatch):
    monkeypatch.delenv(CONCOLIC_ENV, raising=False)
    assert concolic_enabled() is False
    assert concolic_enabled(True) is True
    assert concolic_enabled(False) is False
    for value in ("1", "true", "ON", "Yes"):
        monkeypatch.setenv(CONCOLIC_ENV, value)
        assert concolic_enabled() is True
        assert concolic_enabled(False) is False  # explicit flag wins
    monkeypatch.setenv(CONCOLIC_ENV, "0")
    assert concolic_enabled() is False


# -- snapshot / restore --------------------------------------------------------


def test_snapshot_restore_mid_campaign_continues_identically():
    interrupted = _engine(MULREAD, True, True, seed=0)
    interrupted.start(BUDGET)
    interrupted.run_until(BUDGET // 2)
    snap = interrupted.snapshot()

    resumed = _engine(MULREAD, True, True, seed=999)  # state must come from snap
    resumed.restore(snap)
    resumed.run_until(BUDGET)
    resumed.finish()

    whole = _engine(MULREAD, True, True, seed=0)
    whole.run(BUDGET)
    assert _state(resumed) == _state(whole)
    assert resumed.concolic.solve_attempts == whole.concolic.solve_attempts
    assert resumed.concolic.solved == whole.concolic.solved
    assert resumed.concolic.flips == whole.concolic.flips
    assert _bugs(resumed) == _bugs(whole)


def test_concolic_state_snapshot_round_trip():
    state = ConcolicState()
    state.visits[("main", 3)] = 2
    state.targets_selected = 4
    state.extract_runs = 5
    state.solve_attempts = 6
    state.solved = 3
    state.flips = 2
    state.witness_execs = 7
    state.observe(100, 1, budget_ticks=80_000)
    state.observe(90_000, 1, budget_ticks=80_000)  # opens a plateau

    clone = ConcolicState()
    clone.restore(state.snapshot())
    assert clone.visits == state.visits
    assert clone.targets_selected == state.targets_selected
    assert clone.extract_runs == state.extract_runs
    assert clone.solve_attempts == state.solve_attempts
    assert (clone.solved, clone.flips) == (state.solved, state.flips)
    assert clone.witness_execs == state.witness_execs
    assert clone.stalled() == state.stalled() is True
