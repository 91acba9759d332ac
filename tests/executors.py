"""Every executor of one program, checked against the interpreter.

The VM has four executors: the interpreter, the compiled backend, taint
tracking and concolic extraction.  They must
agree field for field on every run, with cmplog off and on, under a
pure-HIT feedback (``edge``) and a path feedback (``path``).  A Python
exception escaping any of them fails the caller too: the VM turns every
fault of the program into a trap or a timeout in the result.
"""

from repro.analysis.symbolic import extract_path_condition
from repro.coverage.feedback import feedback_by_name
from repro.runtime.compiler import compile_program
from repro.runtime.interpreter import execute as interp_execute
from repro.runtime.values import ArrayRef
from repro.taint import taint_execute


def _value_key(value):
    # Refs compare by identity, which differs between any two runs.
    if isinstance(value, ArrayRef):
        return ("ref", value.array_id, value.readonly)
    return value


def outcome(result):
    """Everything the executors must share about one run; the cmplog
    entries come last."""
    trap = result.trap
    trap_key = None
    if trap is not None:
        frames = tuple((fr.function, fr.line) for fr in trap.stack)
        trap_key = (trap.kind, trap.detail, trap.function, trap.line, frames)
    return (
        _value_key(result.retval),
        trap_key,
        result.timeout,
        result.instr_count,
        result.probe_count,
        result.probe_cost,
        dict(result.hits),
        [tuple(_value_key(v) for v in entry) for entry in result.cmp_log],
    )


def run_all_executors(program, data=b"\x01\x02"):
    """The interpreter's plain ``edge`` result, after checking every other
    executor against the interpreter under ``edge`` and ``path``, cmplog
    off and on, and cmplog runs against plain ones."""
    plain = None
    for name in ("edge", "path"):
        instrumentation = feedback_by_name(name).instrument(program)
        compiled = compile_program(program, instrumentation)
        for cmplog in (False, True):
            ref = interp_execute(program, data, instrumentation, cmplog=cmplog)
            want = outcome(ref)
            if not cmplog:
                without_cmplog = want
            # cmplog only observes: everything but its log is the plain run's.
            assert want[:-1] == without_cmplog[:-1], (name, "cmplog")
            runs = {
                "compiled": compiled.execute(data, cmplog=cmplog),
                "taint": taint_execute(program, data, instrumentation, cmplog=cmplog)[0],
            }
            if not cmplog:
                runs["concolic"] = extract_path_condition(
                    program, data, instrumentation=instrumentation
                )[0]
                if plain is None:
                    plain = ref
            for executor, result in runs.items():
                assert outcome(result) == want, (name, cmplog, executor)
    return plain
