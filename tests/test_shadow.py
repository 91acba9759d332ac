"""Pinned outputs of the shadow interpreters (taint and concolic).

For every subject, each grown seed and census bug witness runs under edge
instrumentation with cmplog through :func:`repro.taint.track.taint_execute`
and :class:`repro.analysis.symbolic.ConcolicExec`.  One digest per subject
covers both ExecutionResults, the TaintMap (cmp sites, branch trail, branch
masks and control, in insertion order) and the PathCondition (index, site,
direction and rendered expression of each constraint).

Any change to what a shadow run observes changes a digest.  A deliberate
change re-blesses the table: ``PYTHONPATH=src python tests/test_shadow.py``
prints the current digests.
"""

import hashlib

import pytest

from repro.analysis.symbolic import ConcolicExec, format_expr
from repro.coverage.feedback import EdgeFeedback
from repro.experiments.bench import grow_inputs
from repro.subjects import all_subject_names, get_subject
from repro.taint.track import taint_execute

PINNED = {
    "cflow": "ce6be7a89a9e4c861d28766e",
    "exiv2": "b51a256ee3f712dddfd8a714",
    "ffmpeg": "35fe1869617828b826c96019",
    "flvmeta": "c9146ca78f234aebf1ffe0a5",
    "gdk": "fa3c19a2688922cffadf17d6",
    "imginfo": "a53f3e7141190319c3e44be8",
    "infotocap": "555511f42b6a31ff977a8101",
    "jhead": "785c2329a9d2874ea74565b2",
    "jq": "35c25772bd2f97e3beb7ace6",
    "lame": "3250420fdf4d7082c5888bf7",
    "mp3gain": "d5f2a5358c98f8ccd8e638a3",
    "mp42aac": "925dd66260f623d1c6d64e4b",
    "mujs": "c0d526d728b9e08324f5337f",
    "nm_new": "0255576f1f8a58a3a6115f8b",
    "objdump": "96f75d3a6c4de0075ec6df2c",
    "pdftotext": "a5cfab7b21801224588d2aa4",
    "sqlite3": "0a0b8fa6e12f8195bdf89eed",
    "tiffsplit": "e585e36d667d2188e804cba7",
    "motivating": "421371c37e6f679bf10692b5",
}


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
        tuple(result.hits.items()),
        tuple(result.cmp_log),
    )


def _tmap_key(tmap):
    return (
        tuple(
            (site, sorted(rec.mask_a), sorted(rec.mask_b), rec.hits, tuple(rec.pairs))
            for site, rec in tmap.cmp_sites.items()
        ),
        tuple((site, dst, sorted(mask)) for site, dst, mask in tmap.branch_trail),
        tuple((site, sorted(mask)) for site, mask in tmap.branch_masks.items()),
        sorted(tmap.control),
        tmap.input_len,
    )


def _condition_key(condition):
    return (
        tuple(
            (c.index, c.site, c.taken_dst, c.taken_true, format_expr(c.expr))
            for c in condition
        ),
        condition.input_len,
        condition.truncated,
    )


def shadow_digest(name):
    """Digest of every shadow observable of one subject's pinned inputs."""
    subject = get_subject(name)
    program = subject.program
    instr = EdgeFeedback().instrument(program)
    budget, depth = subject.exec_instr_budget, subject.call_depth_limit
    sha = hashlib.sha256()
    for data in grow_inputs(subject) + [bug.witness for bug in subject.bugs]:
        result, tmap = taint_execute(
            program, data, instr, budget, depth, cmplog=True
        )
        sym_result, condition = ConcolicExec(
            program, instr, budget, depth, cmplog=True
        ).run(data)
        key = (
            _result_key(result),
            _tmap_key(tmap),
            _result_key(sym_result),
            _condition_key(condition),
        )
        sha.update(repr(key).encode())
    return sha.hexdigest()[:24]


@pytest.mark.parametrize("name", all_subject_names())
def test_shadow_outputs_pinned(name):
    digest = shadow_digest(name)
    assert digest == PINNED.get(name), "new digest for %s: %r" % (name, digest)


if __name__ == "__main__":
    for subject_name in all_subject_names():
        print('    "%s": "%s",' % (subject_name, shadow_digest(subject_name)))
