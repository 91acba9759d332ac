"""Pinned probe accounting of the pure-HIT feedbacks, per subject.

Under ``edge`` and ``block`` instrumentation every probe adds one to one
map cell.  For each subject the inputs are its seeds, the grown bench
corpus (:func:`~repro.experiments.bench.grow_inputs`) and its census bug
witnesses, plus one run cut at half its instruction count (a timeout) and
one cmplog run.  Each input runs through the interpreter and through
:func:`~repro.taint.track.taint_execute`; one digest per subject covers
``(retval, trap, timeout, instr_count, probe_count, probe_cost,
list(hits.items()))`` of every run, so the insertion order of the map
counts too.  The compiled backend must return the same key on every input.

A deliberate change re-blesses the table:
``PYTHONPATH=src python tests/test_probe_accounting.py`` prints the current
digests.
"""

import hashlib

import pytest

from repro.coverage.feedback import BlockFeedback, EdgeFeedback
from repro.experiments.bench import grow_inputs
from repro.runtime import interpreter
from repro.runtime.compiler import compile_program
from repro.subjects import all_subject_names, get_subject
from repro.taint.track import taint_execute

PINNED = {
    "cflow": "6a9701119952be196bbfac67",
    "exiv2": "7de900abd871481b4acc8e3f",
    "ffmpeg": "5fa08f4ac1163a5364037aad",
    "flvmeta": "774a36fe54f459fc9a8da36e",
    "gdk": "0a3d8cfe68b8f6790e733bad",
    "imginfo": "dcab4633bbbc0753714017f0",
    "infotocap": "39bd75be5e57431a11338e44",
    "jhead": "c142bd13683666081d59b56e",
    "jq": "69b84ea831865a50f28060e9",
    "lame": "21f3e1ec80281b8c70ed4f10",
    "motivating": "25cd2590d9ffd8854e7f8ebd",
    "mp3gain": "cf302d1608f71a10a1a200f3",
    "mp42aac": "82916ccea15e8e93086d6914",
    "mujs": "176449ab30673860de793a1b",
    "nm_new": "006f2d6efbebabfab24a2551",
    "objdump": "f20b6890b09a77a7a41174f3",
    "pdftotext": "38484ca903da18b605750005",
    "sqlite3": "0dcf0fe91686bdc7414c7f74",
    "tiffsplit": "a31b4d848c28d35d35d30bef",
}

FEEDBACKS = (EdgeFeedback, BlockFeedback)


def _result_key(result):
    trap = result.trap
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap = (trap.kind, trap.function, trap.line, trap.detail, frames)
    return (
        result.retval,
        trap,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        list(result.hits.items()),
    )


def pinned_runs(subject):
    """Every pinned ``(data, instr_budget, cmplog)`` of one subject."""
    witnesses = [bug.witness for bug in subject.bugs]
    budget = subject.exec_instr_budget
    runs = [(data, budget, False) for data in subject.seeds]
    runs += [(data, budget, False) for data in grow_inputs(subject) + witnesses]
    longest = max(grow_inputs(subject), key=len)
    full = interpreter.execute(
        subject.program, longest, None, budget, subject.call_depth_limit
    )
    runs.append((longest, max(full.instr_count // 2, 1), False))
    runs.append((longest, budget, True))
    return runs


def accounting_keys(name):
    """``(feedback, run index, interp key, taint key, compiled key)`` rows."""
    subject = get_subject(name)
    program = subject.program
    depth = subject.call_depth_limit
    rows = []
    for feedback in FEEDBACKS:
        instr = feedback().instrument(program)
        compiled = compile_program(program, instr)
        for index, (data, budget, cmplog) in enumerate(pinned_runs(subject)):
            plain = interpreter.execute(program, data, instr, budget, depth, cmplog)
            tainted, _ = taint_execute(program, data, instr, budget, depth, cmplog)
            fast = compiled.execute(
                data, instr_budget=budget, call_depth_limit=depth, cmplog=cmplog
            )
            rows.append(
                (
                    feedback.name,
                    index,
                    _result_key(plain),
                    _result_key(tainted),
                    _result_key(fast),
                )
            )
    return rows


def accounting_digest(rows):
    sha = hashlib.sha256()
    for feedback_name, index, plain, tainted, _fast in rows:
        sha.update(repr((feedback_name, index, plain, tainted)).encode())
    return sha.hexdigest()[:24]


@pytest.mark.parametrize("name", all_subject_names())
def test_probe_accounting_pinned(name):
    rows = accounting_keys(name)
    for feedback_name, index, plain, tainted, fast in rows:
        assert tainted == plain, (feedback_name, index)
        assert fast == plain, (feedback_name, index)
    assert any(plain[2] for _, _, plain, _, _ in rows)  # the timeout run
    digest = accounting_digest(rows)
    assert digest == PINNED.get(name), "new digest for %s: %r" % (name, digest)


if __name__ == "__main__":
    for subject_name in all_subject_names():
        print(
            '    "%s": "%s",'
            % (subject_name, accounting_digest(accounting_keys(subject_name)))
        )
