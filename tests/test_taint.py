"""Taint subsystem tests: equivalence, labels, maps, targets, masked stage.

The load-bearing contract is *mirroring*: a taint run's ExecutionResult must
be bit-identical to the plain interpreter's on the same input — same return
value, trap identity, timeout, instruction/probe accounting, coverage map,
and cmplog.  Everything else (TaintMap contents, target ranking, masked
mutation, engine wiring, snapshot/restore) builds on that.
"""

import pickle
import random

import pytest

from repro.coverage.feedback import EdgeFeedback, PathFeedback
from repro.fuzzer.engine import EngineConfig, FuzzEngine
from repro.fuzzer.masked import (
    _focus_runs,
    masked_candidates,
    masked_havoc,
    sweep_candidates,
)
from repro.lang import compile_source
from repro.runtime.backend import make_backend
from repro.runtime.interpreter import execute
from repro.subjects import all_subject_names, get_subject
from repro.taint import (
    TaintMap,
    TaintState,
    build_branch_index,
    select_targets,
    taint_enabled,
    taint_execute,
)
from repro.taint.labels import mask_of, offsets

TARGET = """
fn check(x) {
    if (x > 10) { return x * 2; }
    return x;
}

fn main(input) {
    var n = len(input);
    if (n < 4) { return 0; }
    var magic = read16(input, 0);
    var acc = 0;
    if (magic == 0x4142) {
        acc = check(input[2]);
        if (input[3] / 3 == 7) { acc = acc + 100; }
    }
    var buf = alloc(8);
    fill(buf, 0, 8, input[2]);
    copy(buf, 4, buf, 0, 4);
    acc = acc + buf[7] + read32le(input, 0);
    for (var i = 0; i < n; i = i + 1) { acc = (acc + input[i]) & 0xFFFF; }
    return acc;
}
"""

INPUTS = (
    b"",
    b"\x00",
    b"AB\x20\x15",
    b"AB\x05\x00tail",
    b"XY\xff\xff\xff\xff\xff",
    bytes(range(32)),
)


def _result_key(result):
    trap = result.trap
    trap_key = None
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap_key = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        result.retval,
        trap_key,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        dict(result.hits),
        list(result.cmp_log),
    )


# -- mirroring: taint ExecutionResult == plain interpreter --------------------


@pytest.mark.parametrize("feedback_cls", [EdgeFeedback, PathFeedback])
def test_taint_result_bit_identical(feedback_cls):
    program = compile_source(TARGET)
    instr = feedback_cls().instrument(program)
    for data in INPUTS:
        for cmplog in (False, True):
            ref = execute(program, data, instr, cmplog=cmplog)
            got, tmap = taint_execute(program, data, instr, cmplog=cmplog)
            assert _result_key(got) == _result_key(ref)
            assert tmap.input_len == len(data)


def test_taint_result_identical_under_tiny_budgets():
    program = compile_source(TARGET)
    instr = EdgeFeedback().instrument(program)
    for budget in (1, 17, 211):
        for data in INPUTS:
            ref = execute(program, data, instr, instr_budget=budget)
            got, _ = taint_execute(program, data, instr, instr_budget=budget)
            assert _result_key(got) == _result_key(ref)


def test_taint_result_identical_on_all_subject_seeds():
    for name in all_subject_names():
        subject = get_subject(name)
        instr = EdgeFeedback().instrument(subject.program)
        kwargs = dict(
            instr_budget=subject.exec_instr_budget,
            call_depth_limit=subject.call_depth_limit,
        )
        for seed in subject.seeds:
            ref = execute(subject.program, seed, instr, **kwargs)
            got, tmap = taint_execute(subject.program, seed, instr, **kwargs)
            assert _result_key(got) == _result_key(ref), name
            assert tmap.input_len == len(seed)


def test_taint_map_records_expected_masks():
    program = compile_source(TARGET)
    instr = EdgeFeedback().instrument(program)
    _, tmap = taint_execute(program, b"AB\x20\x15rest", instr)
    # The magic == 0x4142 comparison reads input bytes 0..1.
    magic_sites = [
        s for s, rec in tmap.cmp_sites.items() if rec.mask() == {0, 1}
    ]
    assert magic_sites
    # input[3] / 3 == 7 reads byte 3 (and the divisor flows into control).
    assert any(rec.mask() == {3} for rec in tmap.cmp_sites.values())
    # Control taint saw the branch bytes.
    assert {0, 1, 3} <= tmap.control
    # Bytes only summed into acc never steer control on this path.
    assert 6 not in tmap.control


MEMCMP_REFS = """
fn main(input) {
    var a = alloc(2);
    var b = alloc(2);
    a[0] = b;
    if (memcmp(a, 0, b, 0, 2) == 0) { return 1; }
    return 0;
}
"""

MEMCMP_REFS_TAINTED = """
fn main(input) {
    var a = alloc(2);
    var b = alloc(2);
    a[0] = b;
    if (len(input) > 0) { b[1] = input[0]; }
    if (memcmp(a, 0, b, 0, 2) == 0) { return 1; }
    return 0;
}
"""


@pytest.mark.parametrize(
    "source, data, mask_b",
    [
        (MEMCMP_REFS, b"", set()),
        (MEMCMP_REFS, b"\x01\x02", set()),
        (MEMCMP_REFS_TAINTED, b"", set()),
        (MEMCMP_REFS_TAINTED, b"\x01\x02", {0}),
    ],
    ids=["clean-empty", "clean-input", "tainted-empty", "tainted-input"],
)
def test_memcmp_over_array_refs_matches_plain_run(source, data, mask_b):
    # A window holding an array ref cannot be sampled as bytes: the taint
    # run must still return what the plain run returns, keep the site's
    # masks and take no operand pair from it.
    program = compile_source(source)
    instr = EdgeFeedback().instrument(program)
    ref = execute(program, data, instr)
    got, tmap = taint_execute(program, data, instr)
    assert _result_key(got) == _result_key(ref)
    [rec] = [r for s, r in tmap.cmp_sites.items() if s[2] == "memcmp"]
    assert rec.hits == 1 and rec.pairs == []
    assert (rec.mask_a, rec.mask_b) == (set(), mask_b)


def test_backend_taint_execute_falls_back_under_compile():
    program = compile_source(TARGET)
    instr = EdgeFeedback().instrument(program)
    backend = make_backend(program, instr, backend="compile", probe_prune=True)
    for data in INPUTS:
        pruned = backend.execute(data)
        got, tmap = backend.taint_execute(data)
        # The fallback promises identical observed maps and semantics; the
        # pruned compile run may charge *less* probe_cost (elided probes).
        assert got.retval == pruned.retval
        assert got.timeout == pruned.timeout
        assert got.instr_count == pruned.instr_count
        assert dict(got.hits) == dict(pruned.hits)
        assert got.probe_cost >= pruned.probe_cost
        # And the taint run itself equals the unpruned interpreter exactly.
        ref = execute(program, data, instr)
        assert _result_key(got) == _result_key(ref)
        assert tmap.input_len == len(data)


# -- label lattice ------------------------------------------------------------


def test_label_masks_round_trip():
    # Clean is None both ways.
    assert mask_of(()) is None
    assert offsets(None) == ()
    # Offset 0 is bit 0.
    assert mask_of([0]) == 1
    assert offsets(1) == (0,)
    # Offsets past 64 are big-int bits, ascending whatever the input order.
    wide = [200, 0, 64, 63, 65, 7]
    mask = mask_of(wide)
    assert mask == sum(1 << off for off in wide)
    assert offsets(mask) == (0, 7, 63, 64, 65, 200)
    # Round trip both ways; a join is a bitwise or.
    for offs in ((0,), (1, 2), tuple(range(130)), (5, 4096)):
        assert offsets(mask_of(offs)) == offs
        assert mask_of(offsets(mask_of(offs))) == mask_of(offs)
    assert offsets(mask_of((1, 2)) | mask_of((2, 9))) == (1, 2, 9)


# -- TaintMap queries ---------------------------------------------------------


def test_taint_map_pair_cap_and_comparable_filter():
    tmap = TaintMap(pair_cap=2)
    site = ("f", 1, 18)
    for i in range(5):
        tmap.record_cmp(site, mask_of({i}), None, i, 100)
    rec = tmap.cmp_sites[site]
    assert rec.hits == 5
    assert rec.pairs == [(0, 100), (1, 100)]  # capped
    assert rec.mask() == {0, 1, 2, 3, 4}
    # Non-comparable operands (e.g. array refs) are never sampled.
    tmap.record_cmp(("g", 2, 18), None, None, object(), object())
    assert tmap.cmp_sites[("g", 2, 18)].pairs == []


def test_target_masks_focus_and_frozen():
    tmap = TaintMap()
    tmap.record_branch(("main", 1), 2, mask_of({0, 1}))  # guard on the way in
    tmap.record_branch(("main", 3), 4, mask_of({5}))  # the target
    tmap.record_branch(("main", 6), 7, mask_of({9}))  # after the target
    tmap.finalize(mask_of({0, 1, 5, 9}), 16)
    focus, frozen = tmap.target_masks(("main", 3))
    assert focus == {5}
    assert frozen == {0, 1}  # later branches are not frozen
    # Unknown site falls back to all cmp bytes.
    tmap.record_cmp(("main", 9, 18), mask_of({2}), mask_of({3}), 1, 2)
    focus, frozen = tmap.target_masks(("nope", 0))
    assert focus == {2, 3}
    # Length clamping.
    focus, _ = tmap.target_masks(("main", 3), length=4)
    assert focus == set()  # offset 5 out of range -> fallback also clamped


def test_sound_mask_includes_control():
    tmap = TaintMap()
    site = ("f", 1, 18)
    tmap.record_cmp(site, mask_of({2}), None, 1, 2)
    tmap.finalize(mask_of({0}), 8)
    assert tmap.sound_mask(site) == {0, 2}
    assert tmap.sound_mask(("unknown", 0, 18)) == {0}


# -- branch index + target ranking --------------------------------------------


def _branch_program():
    return compile_source(
        """
fn main(input) {
    if (len(input) > 0) {
        if (input[0] == 65) { return 1; }
        return 2;
    }
    return 0;
}
"""
    )


def test_build_branch_index_sites_and_siblings():
    program = _branch_program()
    instr = EdgeFeedback().instrument(program)
    index = build_branch_index(program, instr)
    assert index  # edge feedback has per-edge ACT_HIT probes
    for info in index.values():
        assert info.site[0] == "main"
        if info.sibling_index is not None:
            sibling = index.get(info.sibling_index)
            # Sibling pairs share the source block.
            if sibling is not None:
                assert sibling.site == info.site
                assert sibling.dst != info.dst


def test_build_branch_index_empty_without_hit_probes():
    program = _branch_program()
    instr = PathFeedback().instrument(program)
    assert build_branch_index(program, instr) == {}
    assert build_branch_index(program, None) == {}


class _FakeEntry:
    def __init__(self, trace):
        self.trace = frozenset(trace)


class _FakeInfo:
    def __init__(self, index):
        self.index = index
        self.site = ("main", index)
        self.dst = index + 1
        self.sibling_index = None


class _FakeQueue:
    def __init__(self, traces):
        self.entries = [_FakeEntry(t) for t in traces]
        self.top_rated = {
            idx: entry for entry in self.entries for idx in entry.trace
        }


def test_select_targets_ranks_by_rarity():
    branch_index = {i: _FakeInfo(i) for i in (1, 2, 3)}
    queue = _FakeQueue([{1, 2}, {1, 2}, {1, 3}])
    targets = select_targets(queue, branch_index, limit=8)
    # idx 3 covered once (rarest), idx 2 twice; idx 1 covered by all -> skipped.
    assert [(t.index, t.rarity) for t in targets] == [(3, 1), (2, 2)]
    assert targets[0].entry is queue.entries[2]


def test_select_targets_respects_visit_budget():
    branch_index = {i: _FakeInfo(i) for i in (1, 2, 3)}
    queue = _FakeQueue([{1, 2}, {1, 2}, {1, 3}])
    visits = {3: 4}
    targets = select_targets(queue, branch_index, limit=8, visits=visits)
    assert [t.index for t in targets] == [2]
    assert select_targets(queue, {}, limit=8) == []


def test_taint_state_snapshot_roundtrip_and_lru():
    state = TaintState()
    state.taint_runs = 3
    state.visits = {7: 2}
    for i in range(TaintState.MAP_CACHE_CAP + 5):
        state.cache_map(i, TaintMap())
    assert len(state.maps) == TaintState.MAP_CACHE_CAP
    assert 0 not in state.maps  # oldest evicted
    snap = pickle.loads(pickle.dumps(state.snapshot()))
    restored = TaintState().restore(snap)
    assert restored.taint_runs == 3
    assert restored.visits == {7: 2}
    assert set(restored.maps) == set(state.maps)
    assert state.hit_rate() == 0.0


# -- masked mutation ----------------------------------------------------------


def test_focus_runs_merges_contiguous_offsets():
    assert _focus_runs({0, 1, 2, 5, 7, 8}, 16) == [(0, 3), (5, 1), (7, 2)]
    assert _focus_runs({-1, 99}, 8) == []


def test_sweep_candidates_complete_and_masked():
    data = b"\x00\x10\x20"
    cands = list(sweep_candidates(data, {1}))
    assert len(cands) == 255
    assert all(len(c) == 3 and c[0] == 0 and c[2] == 0x20 for c in cands)
    assert {c[1] for c in cands} == set(range(256)) - {0x10}


def test_masked_havoc_touches_only_focus():
    rng = random.Random(5)
    data = bytes(range(16))
    for _ in range(50):
        out = masked_havoc(rng, data, {3, 4})
        assert len(out) == len(data)
        for i, byte in enumerate(out):
            if i not in (3, 4):
                assert byte == data[i]
    assert masked_havoc(rng, data, set()) == data


def test_masked_candidates_patch_operand_into_focus_run():
    tmap = TaintMap()
    site = ("main", 4, 18)
    tmap.record_cmp(site, mask_of({0, 1}), None, 0x1111, 0x4142)
    data = b"\x00\x00rest"
    cands = masked_candidates(data, tmap, {0, 1})
    assert b"AB" + data[2:] in cands  # big-endian 0x4142 into bytes 0..1
    assert b"BA" + data[2:] in cands  # little-endian too
    for cand in cands:
        assert len(cand) == len(data)
        assert cand[2:] == data[2:]  # never touches non-focus bytes


def test_masked_candidates_bytes_operand():
    tmap = TaintMap()
    tmap.record_cmp(("m", 1, "memcmp"), mask_of({0, 1, 2}), None, b"xxx", b"GIF")
    cands = masked_candidates(b"xxxtail", tmap, {0, 1, 2})
    assert b"GIFtail" in cands


# -- engine wiring ------------------------------------------------------------

RARE_TARGET = """
fn main(input) {
    if (len(input) < 5) { return 0; }
    if (read32(input, 0) != 0x4D414743) { return 1; }
    var x = input[4];
    if ((x * 3) % 251 == 17) { trap(1); }
    return 2;
}
"""


def _taint_engine(seed=0, use_taint=True, seeds=None, target=RARE_TARGET):
    program = compile_source(target)
    return FuzzEngine(
        program,
        EdgeFeedback(),
        seeds or [b"MAGC\x00\x00", b"zzzzzz"],
        random.Random(seed),
        EngineConfig(max_input_len=16, exec_instr_budget=10_000, use_taint=use_taint),
    )


def test_engine_taint_off_by_default():
    eng = _taint_engine(use_taint=None)
    assert eng.taint is None


def test_taint_enabled_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    assert not taint_enabled()
    assert taint_enabled(True)
    assert not taint_enabled(False)
    monkeypatch.setenv("REPRO_TAINT", "on")
    assert taint_enabled()
    assert not taint_enabled(False)  # explicit argument wins


def test_taint_engine_deterministic():
    a = _taint_engine(seed=3).run(200_000)
    b = _taint_engine(seed=3).run(200_000)
    assert a.execs == b.execs
    assert a.clock.ticks == b.clock.ticks
    assert [e.data for e in a.queue.entries] == [e.data for e in b.queue.entries]
    assert a.crash_count == b.crash_count
    assert a.taint.masked_execs == b.taint.masked_execs


def test_taint_engine_runs_masked_stage():
    eng = _taint_engine(seed=0).run(400_000)
    assert eng.taint.taint_runs > 0
    assert eng.taint.targets_selected > 0
    assert eng.taint.masked_execs > 0


def test_taint_snapshot_restore_trajectory_neutral():
    full = _taint_engine(seed=9)
    full.start(400_000)
    full.run_until(400_000)

    first = _taint_engine(seed=9)
    first.start(400_000)
    first.run_until(150_000)
    snap = pickle.loads(pickle.dumps(first.snapshot()))

    resumed = _taint_engine(seed=9)
    resumed.restore(snap)
    resumed.run_until(400_000)

    assert resumed.execs == full.execs
    assert resumed.clock.ticks == full.clock.ticks
    assert [e.data for e in resumed.queue.entries] == [
        e.data for e in full.queue.entries
    ]
    assert resumed.taint.masked_execs == full.taint.masked_execs
    assert resumed.taint.taint_runs == full.taint.taint_runs


# -- config registration + no-op gate -----------------------------------------


def test_taint_config_registered_with_override():
    from repro.experiments.config import FUZZER_CONFIGS
    from repro.subjects import get_subject as _get

    spec = FUZZER_CONFIGS["taint"]
    assert spec.kind == "plain"
    config = spec.engine_config(_get("gdk"))
    assert config.use_taint is True
    # Other configs stay untouched by the overrides mechanism.
    assert FUZZER_CONFIGS["pcguard"].engine_config(_get("gdk")).use_taint is None


def test_noop_gate_observable_identity():
    from repro.taint.noop_gate import run_gate

    # Identity is the deterministic half of the gate; the wall-clock
    # overhead half is CI-runner-dependent, so don't gate on it here.
    report = run_gate(hours=0.25, scale=0.5, repeats=1, gate_pct=10_000.0)
    assert report.identical
    assert report.passed
    assert "identical" in report.summary()
