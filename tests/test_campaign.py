"""Campaign-result assembly and coverage-replay tests."""

import pickle
import random

import pytest

import repro.fuzzer.campaign as campaign
from repro.coverage.feedback import EdgeFeedback, PathFeedback
from repro.experiments.bench import grow_inputs
from repro.fuzzer.campaign import replay_edge_coverage, result_from_engines
from repro.fuzzer.engine import EngineConfig, FuzzEngine
from repro.subjects import all_subject_names, get_subject


def run_engine(subject, feedback, seed, budget=200_000, backend=None):
    engine = FuzzEngine(
        subject.program,
        feedback,
        subject.seeds,
        random.Random(seed),
        EngineConfig(
            max_input_len=subject.max_input_len,
            exec_instr_budget=subject.exec_instr_budget,
            backend=backend,
        ),
        subject.tokens,
    )
    engine.run(budget)
    return engine


def test_replay_edge_coverage_superset_of_seed_run():
    subject = get_subject("flvmeta")
    seeds_only = replay_edge_coverage(subject.program, subject.seeds)
    engine = run_engine(subject, EdgeFeedback(), 0)
    grown = replay_edge_coverage(subject.program, engine.corpus_inputs())
    assert seeds_only <= grown


def test_replay_independent_of_campaign_feedback():
    subject = get_subject("flvmeta")
    engine = run_engine(subject, PathFeedback(), 0)
    edges = replay_edge_coverage(subject.program, engine.corpus_inputs())
    assert edges  # path campaign still yields an edge-coverage measurement


@pytest.mark.parametrize("name", all_subject_names())
def test_replay_identical_across_backends(name):
    """The final edge replay measures the same edges on either backend."""
    subject = get_subject(name)
    witnesses = [bug.witness for bug in subject.bugs]
    for inputs in (subject.seeds, grow_inputs(subject), witnesses):
        compiled = replay_edge_coverage(subject.program, inputs, backend="compile")
        assert compiled == replay_edge_coverage(
            subject.program, inputs, backend="interp"
        )
        assert compiled or not inputs


@pytest.mark.parametrize("backend", ["interp", "compile"])
def test_result_replays_on_campaign_backend(backend, monkeypatch):
    subject = get_subject("flvmeta")
    engine = run_engine(subject, PathFeedback(), 0, budget=50_000, backend=backend)
    expected = replay_edge_coverage(
        subject.program, engine.corpus_inputs(), backend="interp"
    )
    real_make_backend = campaign.make_backend
    used = []

    def recording_make_backend(program, instrumentation=None, backend=None, **kw):
        used.append(backend)
        return real_make_backend(program, instrumentation, backend=backend, **kw)

    monkeypatch.setattr(campaign, "make_backend", recording_make_backend)
    result = result_from_engines(subject, "path", 0, [engine], engine)
    assert used == [backend]
    assert result.edges == expected


def test_result_from_single_engine():
    subject = get_subject("gdk")
    engine = run_engine(subject, EdgeFeedback(), 1, budget=800_000)
    result = result_from_engines(subject, "pcguard", 1, [engine], engine)
    assert result.subject_name == "gdk"
    assert result.queue_size == len(engine.queue.entries)
    assert result.execs == engine.execs
    assert result.crash_count == engine.crash_count
    assert result.bugs == {r.trap.bug_id() for r in engine.unique_crashes.values()}


def test_result_merges_multiple_phases():
    subject = get_subject("gdk")
    a = run_engine(subject, PathFeedback(), 2, budget=400_000)
    b = run_engine(subject, PathFeedback(), 3, budget=400_000)
    merged = result_from_engines(subject, "cull", 0, [a, b], b)
    assert merged.execs == a.execs + b.execs
    assert merged.crash_count == a.crash_count + b.crash_count
    assert merged.bugs >= {r.trap.bug_id() for r in a.unique_crashes.values()}
    # timeline ticks are phase-offset and monotonic
    ticks = [sample[0] for sample in merged.timeline]
    assert ticks == sorted(ticks)


def test_crash_info_is_plain_and_picklable():
    subject = get_subject("gdk")
    engine = run_engine(subject, EdgeFeedback(), 1, budget=800_000)
    result = result_from_engines(subject, "pcguard", 1, [engine], engine)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.bugs == result.bugs
    assert clone.unique_crash_hashes == result.unique_crash_hashes
    for record in clone.crash_records:
        assert isinstance(record.bug, tuple)
        assert isinstance(record.stack, tuple)


def test_unique_crash_hashes_match_records():
    subject = get_subject("gdk")
    engine = run_engine(subject, EdgeFeedback(), 1, budget=800_000)
    result = result_from_engines(subject, "pcguard", 1, [engine], engine)
    assert len(result.unique_crash_hashes) == len(result.crash_records)
