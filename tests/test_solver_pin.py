"""Pinned flip-solver results on every subject's grown seeds and bug witnesses.

For each of the 18 subjects the inputs are the grown bench corpus
(:func:`~repro.experiments.bench.grow_inputs`) and the census bug
witnesses.  Each input's path condition is extracted with
:func:`~repro.analysis.symbolic.extract_path_condition`, and up to
``FLIPS`` constraints at distinct sites, deepest first, are handed to
:func:`~repro.analysis.solver.solve_flip` with their recorded prefix.  One
digest per subject covers every assignment and every ``SolveStats`` field
that describes the search (``nodes``, ``evals``, ``solved``, ``gave_up``,
``support_bytes``).

A change to the solver or to constraint bookkeeping that keeps its results
keeps every digest.  A deliberate change re-blesses the table:
``PYTHONPATH=src python tests/test_solver_pin.py`` prints the current
digests.
"""

import hashlib

import pytest

from repro.analysis.solver import solve_flip
from repro.analysis.symbolic import extract_path_condition
from repro.experiments.bench import grow_inputs
from repro.subjects import SUITE_NAMES, get_subject

FLIPS = 4

PINNED = {
    "cflow": "81368f6a80a928268ca25882",
    "exiv2": "6696fabe32a58c43a9ea402d",
    "ffmpeg": "5da0495637d4500b9f943e6f",
    "flvmeta": "97845435e7967360fed95f7e",
    "gdk": "c30fa9ca7e312e88d06553aa",
    "imginfo": "756225c95afd5c5ef27d590c",
    "infotocap": "deae2d94278c1d32e015445c",
    "jhead": "497da543ad598a5d0b81ea33",
    "jq": "1694f6ce2ba8e5700a5b9728",
    "lame": "316113366fdc42dd3d5c1335",
    "mp3gain": "a6cbc28f05e9e2e792b6578e",
    "mp42aac": "6a7be470605813be1f0afd46",
    "mujs": "4e634182a7069973f36def9a",
    "nm_new": "89e19695975f9f2ac728b64b",
    "objdump": "bb34d47e539f499ad8e80b9a",
    "pdftotext": "bf503da6d62b8d00cf602f5d",
    "sqlite3": "7ea2117752dfc6fcba39d03a",
    "tiffsplit": "1763f7ec3d48a27bcd738243",
}


def deepest_constraints(condition, limit=FLIPS):
    """Up to ``limit`` constraints at distinct sites, deepest first."""
    chosen, sites = [], set()
    for constraint in reversed(condition.constraints):
        if constraint.site in sites:
            continue
        sites.add(constraint.site)
        chosen.append(constraint)
        if len(chosen) == limit:
            break
    return chosen


def solver_key(subject_name):
    """Every solve of one subject, as one repr-able list."""
    subject = get_subject(subject_name)
    inputs = list(grow_inputs(subject)) + [bug.witness for bug in subject.bugs]
    out = []
    for data in inputs:
        _, condition = extract_path_condition(
            subject.program,
            data,
            instr_budget=subject.exec_instr_budget,
            call_depth_limit=subject.call_depth_limit,
        )
        for constraint in deepest_constraints(condition):
            assignment, stats = solve_flip(
                constraint, condition.prefix(constraint.index), data
            )
            out.append(
                (
                    constraint.index,
                    sorted(assignment.items()) if assignment is not None else None,
                    stats.nodes,
                    stats.evals,
                    stats.solved,
                    stats.gave_up,
                    stats.support_bytes,
                )
            )
    return out


def solver_digest(subject_name):
    return hashlib.sha256(repr(solver_key(subject_name)).encode()).hexdigest()[:24]


@pytest.mark.parametrize("subject_name", sorted(SUITE_NAMES))
def test_solver_results_pinned(subject_name):
    digest = solver_digest(subject_name)
    assert digest == PINNED[subject_name], "new digest for %s: %r" % (
        subject_name,
        digest,
    )


def test_pin_exercises_the_search():
    """The pin is only worth its keep while solves take real search work."""
    rows = [row for name in ("jq", "sqlite3") for row in solver_key(name)]
    assert any(row[1] is not None for row in rows)
    assert any(row[2] > 1 for row in rows)


if __name__ == "__main__":
    for subject_name in sorted(SUITE_NAMES):
        print('    "%s": "%s",' % (subject_name, solver_digest(subject_name)))
