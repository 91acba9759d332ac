"""Cross-backend differential suite: interp and compile must agree.

Drives both backends with real subject seeds *and* fuzz-generated inputs
(mutants harvested from a short campaign), asserting identical coverage
maps, Ball-Larus path ids, trap identities, and — at the campaign level —
identical queue/crash/clock evolution.  This is the test the CI
``backend-equivalence`` job runs; it is the ground for trusting the
compiled backend's throughput numbers.
"""

import random
from types import SimpleNamespace

import pytest

from repro.coverage.feedback import feedback_by_name
from repro.fuzzer.engine import EngineConfig, FuzzEngine
from repro.fuzzer.mutators import havoc
from repro.lang import compile_source
from repro.runtime.backend import make_backend
from repro.subjects import get_subject

SUBJECTS = ("flvmeta", "nm_new", "mp42aac")
FEEDBACKS = ("edge", "path")


def _trap_key(trap):
    if trap is None:
        return None
    frames = tuple((fr.function, fr.line) for fr in trap.stack)
    return (trap.kind, trap.function, trap.line, trap.detail, frames)


def _result_key(result):
    return (
        result.retval,
        _trap_key(result.trap),
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        dict(result.hits),
        list(result.cmp_log),
    )


def fuzzed_inputs(subject, count=40, seed=1234):
    """Seeds plus deterministic havoc mutants of them."""
    rng = random.Random(seed)
    inputs = [bytes(s) for s in subject.seeds]
    pool = list(inputs) or [b"\x00"]
    while len(inputs) < count + len(pool):
        base = pool[rng.randrange(len(pool))]
        inputs.append(bytes(havoc(rng, bytearray(base), subject.max_input_len)))
    return inputs


@pytest.mark.parametrize("subject_name", SUBJECTS)
@pytest.mark.parametrize("feedback_name", FEEDBACKS)
def test_backends_agree_on_seeds_and_mutants(subject_name, feedback_name):
    subject = get_subject(subject_name)
    instrumentation = feedback_by_name(feedback_name).instrument(subject.program)
    interp = make_backend(subject.program, instrumentation, backend="interp")
    compiled = make_backend(subject.program, instrumentation, backend="compile")
    budget = subject.exec_instr_budget
    for data in fuzzed_inputs(subject):
        ref = interp.execute(data, instr_budget=budget)
        got = compiled.execute(data, instr_budget=budget)
        assert _result_key(got) == _result_key(ref)


def _campaign_fingerprint(
    subject, feedback_name, backend, ticks=2_000_000, **overrides
):
    config = EngineConfig(
        backend=backend, max_input_len=subject.max_input_len, **overrides
    )
    engine = FuzzEngine(
        subject.program,
        feedback_by_name(feedback_name),
        subject.seeds,
        random.Random(99),
        config,
        subject.tokens,
    )
    engine.run(ticks)
    return {
        "execs": engine.execs,
        "ticks": engine.clock.ticks,
        "cycle": engine.cycle,
        "queue": [
            (entry.data, entry.exec_cost, entry.found_at)
            for entry in engine.queue.entries
        ],
        "virgin": dict(engine.virgin.bits),
        "crashes": {
            hash5: (record.data, record.count, _trap_key(record.trap))
            for hash5, record in engine.unique_crashes.items()
        },
        "hangs": sorted(engine.unique_hangs),
        "timeline": engine.timeline,
    }


@pytest.mark.parametrize("feedback_name", FEEDBACKS)
def test_campaigns_are_tick_identical_across_backends(feedback_name):
    subject = get_subject("flvmeta")
    ref = _campaign_fingerprint(subject, feedback_name, "interp")
    got = _campaign_fingerprint(subject, feedback_name, "compile")
    assert got == ref


# Spins forever once the first byte is 'H': every such run times out.
SPINNER = """
fn main(input) {
    var acc = 0;
    for (var i = 0; i < len(input); i = i + 1) {
        acc = acc + input[i];
        if (input[0] == 'H') {
            while (acc > 0) { acc = acc + 1; }
        }
    }
    return acc;
}
"""


def test_campaign_with_hangs_is_tick_identical_across_backends():
    """Timed-out runs are replayed on the interpreter, so a campaign that
    keeps hanging charges the same ticks on both backends."""
    spinner = SimpleNamespace(
        program=compile_source(SPINNER), seeds=[b"AB"], tokens=(), max_input_len=16
    )
    ref = _campaign_fingerprint(
        spinner, "edge", "interp", ticks=400_000, exec_instr_budget=1_000
    )
    got = _campaign_fingerprint(
        spinner, "edge", "compile", ticks=400_000, exec_instr_budget=1_000
    )
    assert ref["hangs"]
    assert got == ref


def test_campaign_equivalent_with_cmplog_stage():
    subject = get_subject("nm_new")

    def fingerprint(backend):
        config = EngineConfig(
            backend=backend, use_cmplog=True, max_input_len=subject.max_input_len
        )
        engine = FuzzEngine(
            subject.program,
            feedback_by_name("edge"),
            subject.seeds,
            random.Random(5),
            config,
            subject.tokens,
        )
        engine.run(1_500_000)
        return (
            engine.execs,
            engine.clock.ticks,
            len(engine.queue.entries),
            engine.virgin.coverage_count(),
            sorted(engine.unique_crashes),
        )

    assert fingerprint("compile") == fingerprint("interp")


def test_checkpoint_meta_records_backend(tmp_path):
    subject = get_subject("flvmeta")
    config = EngineConfig(backend="compile", max_input_len=subject.max_input_len)
    engine = FuzzEngine(
        subject.program,
        feedback_by_name("edge"),
        subject.seeds,
        random.Random(0),
        config,
    )
    engine.start(100_000)
    engine.run_until(100_000)
    path = tmp_path / "ckpt.bin"
    engine.save_checkpoint(str(path))
    resumed = FuzzEngine(
        subject.program,
        feedback_by_name("edge"),
        subject.seeds,
        random.Random(0),
        config,
    )
    meta = resumed.resume(str(path))
    assert meta["backend"] == "compile"
    assert resumed.execs == engine.execs
