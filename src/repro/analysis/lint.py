"""MiniC linter: source- and IR-level diagnostics with typed findings.

Rules (severity in brackets):

- ``use-before-init`` [error]  — a register may be read before any write
  reaches it on some path (IR, :class:`MustDefined`).  The MiniC grammar
  forces initializers on ``var``, so this fires only on hand-built or
  corrupted IR — it is the linter's view of the verifier invariant.
- ``loop-no-exit`` [error]     — a natural loop with no exiting edge and
  no return inside its body: the program cannot leave it.
- ``dead-store`` [warning]     — an assignment whose value is never read
  afterwards (source-order heuristic, loop-aware: a read anywhere inside
  an enclosing loop keeps a store alive).
- ``unused-variable`` [warning] — a declared variable that is never read.
- ``unreachable-code`` [warning] — statements after ``return``/``break``/
  ``continue`` in the same block, and IR blocks SCCP proves can never
  execute.
- ``constant-condition`` [warning] — an ``if``/``while`` condition that
  always evaluates the same way (literal folding on the AST, conditional
  constant propagation on the IR).  ``while (1)`` style intentional
  infinite loops are exempt at the AST level.
- ``tautological-comparison`` [warning] — a guard the interval analysis
  proves always-true/false by value ranges alone, where SCCP cannot
  (the operands are input-dependent but range-bounded, e.g.
  ``x = input[0] & 15`` followed by ``if (x > 20)``).
- ``unused-function`` [warning] — a function unreachable from ``main``
  in the call graph.
- ``unused-param`` [info]      — the value passed for a parameter is
  never used (IR liveness at function entry).

:func:`lint_source` runs everything; :func:`lint_program` runs the
IR-only subset on an already-compiled :class:`ProgramCFG` (used by the
property tests over generated programs and by hand-built IR).
"""

from repro.analysis.constprop import conditional_constants
from repro.analysis.dataflow import Liveness, MustDefined, solve
from repro.analysis.interval import interval_analysis
from repro.cfg.analysis import natural_loops
from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BUILTIN,
    CALL,
    LOAD,
    RET,
    STORE,
    UNOPS,
)
from repro.cfg.lowering import lower_program
from repro.analysis.foldops import fold_binop, fold_unop
from repro.cfg.optimize import optimize_program
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse
from repro.lang.sema import check_program
from repro.runtime.values import wrap_int

_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}


class Finding:
    """One diagnostic: rule id, severity, location, message."""

    __slots__ = ("rule", "severity", "file", "line", "message", "function")

    def __init__(self, rule, severity, file, line, message, function=None):
        self.rule = rule
        self.severity = severity
        self.file = file
        self.line = line
        self.message = message
        self.function = function

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "function": self.function,
        }

    def format(self):
        where = "%s:%d" % (self.file, self.line)
        text = "%s: %s: %s: %s" % (where, self.severity, self.rule, self.message)
        if self.function:
            text += " [in %s]" % self.function
        return text

    def sort_key(self):
        return (
            self.file,
            self.line,
            _SEVERITY_ORDER.get(self.severity, 3),
            self.rule,
            self.message,
        )

    def __repr__(self):
        return "Finding(%s)" % self.format()


def lint_source(source, name="<source>"):
    """Lint MiniC source text; returns sorted, deduplicated Findings.

    Raises the usual front-end errors (ParseError, SemaError) on code
    that does not compile — linting presumes a valid program.
    """
    tree = parse(source)
    check_program(tree)
    findings = []
    _ast_rules(tree, name, findings)
    program = lower_program(tree, name)
    optimize_program(program)
    _ir_rules(program, name, findings, tree)
    return _finish(findings)


def lint_program(program, name=None):
    """Lint an already-compiled program (IR-level rules only)."""
    findings = []
    _ir_rules(program, name or program.source_name, findings, None)
    return _finish(findings)


def _finish(findings):
    seen = set()
    unique = []
    for finding in sorted(findings, key=Finding.sort_key):
        key = (finding.rule, finding.file, finding.line, finding.function)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    return unique


# --------------------------------------------------------------------------
# AST-level rules
# --------------------------------------------------------------------------


def _walk(node):
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in current.children():
            if isinstance(child, ast.Node):
                stack.append(child)
            elif isinstance(child, list):
                for item in child:
                    if isinstance(item, ast.Node):
                        stack.append(item)


def _ast_rules(tree, name, findings):
    _check_unused_functions(tree, name, findings)
    for func in tree.funcs:
        _check_unreachable_stmts(func, name, findings)
        _check_constant_conditions(func, name, findings)
        _check_variable_usage(func, name, findings)


def _check_unused_functions(tree, name, findings):
    user_funcs = {f.name for f in tree.funcs}
    callees = {f.name: set() for f in tree.funcs}
    for func in tree.funcs:
        for node in _walk(func.body):
            if isinstance(node, ast.Call) and node.callee in user_funcs:
                callees[func.name].add(node.callee)
    reachable = set()
    stack = ["main"] if "main" in user_funcs else []
    while stack:
        current = stack.pop()
        if current in reachable:
            continue
        reachable.add(current)
        stack.extend(callees[current])
    for func in tree.funcs:
        if func.name not in reachable:
            findings.append(
                Finding(
                    "unused-function",
                    "warning",
                    name,
                    func.line,
                    "function '%s' is never called" % func.name,
                    func.name,
                )
            )


def _check_unreachable_stmts(func, name, findings):
    for node in _walk(func.body):
        if not isinstance(node, ast.Block):
            continue
        for index, stmt in enumerate(node.stmts[:-1]):
            if isinstance(stmt, (ast.Return, ast.Break, ast.Continue)):
                following = node.stmts[index + 1]
                findings.append(
                    Finding(
                        "unreachable-code",
                        "warning",
                        name,
                        following.line,
                        "statement is unreachable (follows a jump)",
                        func.name,
                    )
                )
                break


def _const_eval(expr):
    """Fold an expression of literals to an int, or None."""
    if isinstance(expr, ast.IntLit):
        return wrap_int(expr.value)  # as lowered
    if isinstance(expr, ast.UnOp):
        value = _const_eval(expr.operand)
        if value is None:
            return None
        return fold_unop(UNOPS[expr.op], value)
    if isinstance(expr, ast.BinOp):
        left = _const_eval(expr.left)
        right = _const_eval(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "&&":
            return int(left != 0 and right != 0)
        if expr.op == "||":
            return int(left != 0 or right != 0)
        return fold_binop(BINOPS[expr.op], left, right)
    return None


def _check_constant_conditions(func, name, findings):
    for node in _walk(func.body):
        if isinstance(node, ast.If):
            cond = node.cond
            looping = False
        elif isinstance(node, (ast.While, ast.For)):
            cond = node.cond
            looping = True
        else:
            continue
        if cond is None:
            continue  # for (;;) — intentional
        value = _const_eval(cond)
        if value is None:
            continue
        if looping and value != 0:
            continue  # while (1) — intentional infinite loop idiom
        findings.append(
            Finding(
                "constant-condition",
                "warning",
                name,
                cond.line,
                "condition is always %s" % ("true" if value != 0 else "false"),
                func.name,
            )
        )


class _EventCollector:
    """Flatten a function body into (kind, name, line) events in source
    order, recording the event spans of loops for the liveness heuristic."""

    def __init__(self):
        self.events = []
        self.loop_spans = []

    def stmt(self, node):
        if node is None:
            return
        if isinstance(node, ast.Block):
            for stmt in node.stmts:
                self.stmt(stmt)
        elif isinstance(node, ast.VarDecl):
            self.expr(node.init)
            self.events.append(("decl", node.name, node.line))
        elif isinstance(node, ast.Assign):
            self.expr(node.value)
            self.events.append(("write", node.name, node.line))
        elif isinstance(node, ast.IndexAssign):
            self.expr(node.array)
            self.expr(node.index)
            self.expr(node.value)
        elif isinstance(node, ast.If):
            self.expr(node.cond)
            self.stmt(node.then_block)
            self.stmt(node.else_block)
        elif isinstance(node, ast.While):
            start = len(self.events)
            self.expr(node.cond)
            self.stmt(node.body)
            self.loop_spans.append((start, len(self.events)))
        elif isinstance(node, ast.For):
            self.stmt(node.init)
            start = len(self.events)
            self.expr(node.cond)
            self.stmt(node.body)
            self.stmt(node.step)
            self.loop_spans.append((start, len(self.events)))
        elif isinstance(node, ast.Return):
            self.expr(node.value)
        elif isinstance(node, ast.ExprStmt):
            self.expr(node.expr)
        # Break/Continue: no variable events.

    def expr(self, node):
        if node is None:
            return
        if isinstance(node, ast.Name):
            self.events.append(("read", node.name, node.line))
        elif isinstance(node, ast.BinOp):
            self.expr(node.left)
            self.expr(node.right)
        elif isinstance(node, ast.UnOp):
            self.expr(node.operand)
        elif isinstance(node, ast.Index):
            self.expr(node.array)
            self.expr(node.index)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                self.expr(arg)
        # IntLit/StrLit: no events.


def _check_variable_usage(func, name, findings):
    collector = _EventCollector()
    collector.stmt(func.body)
    events = collector.events
    decl_count = {}
    read_indices = {}
    for index, (kind, var, _line) in enumerate(events):
        if kind == "decl":
            decl_count[var] = decl_count.get(var, 0) + 1
        elif kind == "read":
            read_indices.setdefault(var, []).append(index)
    skip = {var for var, count in decl_count.items() if count > 1}  # shadowing
    for index, (kind, var, line) in enumerate(events):
        if var in skip:
            continue
        reads = read_indices.get(var, [])
        if kind == "decl" and not reads:
            findings.append(
                Finding(
                    "unused-variable",
                    "warning",
                    name,
                    line,
                    "variable '%s' is never read" % var,
                    func.name,
                )
            )
        elif kind == "write" and reads:
            live = any(r > index for r in reads)
            if not live:
                # A read anywhere inside an enclosing loop keeps the
                # store alive (it feeds the next iteration).
                for start, end in collector.loop_spans:
                    if start <= index < end and any(
                        start <= r < end for r in reads
                    ):
                        live = True
                        break
            if not live:
                findings.append(
                    Finding(
                        "dead-store",
                        "warning",
                        name,
                        line,
                        "value assigned to '%s' is never read" % var,
                        func.name,
                    )
                )


# --------------------------------------------------------------------------
# IR-level rules
# --------------------------------------------------------------------------

_LINE_FIELD = {BIN: 5, LOAD: 4, STORE: 4, CALL: 4, BUILTIN: 4}


def _instr_line(instr):
    field = _LINE_FIELD.get(instr[0])
    return instr[field] if field is not None else None


def _block_line(block):
    lines = [
        _instr_line(instr)
        for instr in block.instrs
        if _instr_line(instr) is not None
    ]
    return min(lines) if lines else None


def _branch_line(block):
    for instr in reversed(block.instrs):
        line = _instr_line(instr)
        if line is not None:
            return line
    return None


def _loop_has_exit(func, body, dead_edges):
    """Can control leave the loop?  SCCP-dead exit edges do not count,
    so ``while (1)`` with no break is reported even though the CFG still
    carries the never-taken false edge."""
    for block_id in body:
        block = func.blocks[block_id]
        if block.term[0] == RET:
            return True
        for succ in block.successors():
            if succ not in body and (block_id, succ) not in dead_edges:
                return True
    return False


def _ir_rules(program, name, findings, tree):
    func_lines = {}
    func_params = {}
    if tree is not None:
        func_lines = {f.name: f.line for f in tree.funcs}
        func_params = {f.name: f.params for f in tree.funcs}
    for func in program.funcs:
        for block_id, index, reg in MustDefined().undefined_uses(func):
            block = func.blocks[block_id]
            line = (
                _instr_line(block.instrs[index])
                if index < len(block.instrs)
                else None
            )
            findings.append(
                Finding(
                    "use-before-init",
                    "error",
                    name,
                    line if line is not None else _block_line(block) or 0,
                    "register r%d may be read before it is written" % reg,
                    func.name,
                )
            )
        const = conditional_constants(func)
        for block_id, value in const.constant_branches():
            line = _branch_line(func.blocks[block_id])
            if line is None:
                continue
            findings.append(
                Finding(
                    "constant-condition",
                    "warning",
                    name,
                    line,
                    "branch is always %s" % ("taken" if value != 0 else "not taken"),
                    func.name,
                )
            )
        sccp_proved = {block_id for block_id, _ in const.constant_branches()}
        intervals = interval_analysis(func)
        for block_id, value in intervals.proved_branches():
            if block_id in sccp_proved:
                continue  # already reported as constant-condition
            line = _branch_line(func.blocks[block_id])
            if line is None:
                continue
            findings.append(
                Finding(
                    "tautological-comparison",
                    "warning",
                    name,
                    line,
                    "comparison is always %s by value ranges"
                    % ("true" if value != 0 else "false"),
                    func.name,
                )
            )
        for block_id in sorted(const.unreachable_blocks()):
            line = _block_line(func.blocks[block_id])
            if line is None:
                continue
            findings.append(
                Finding(
                    "unreachable-code",
                    "warning",
                    name,
                    line,
                    "code can never execute (constant guards)",
                    func.name,
                )
            )
        dead = const.dead_edges()
        for (_src, dst), body in sorted(natural_loops(func).items()):
            if _loop_has_exit(func, body, dead):
                continue
            lines = [
                _block_line(func.blocks[block_id])
                for block_id in sorted(body)
                if _block_line(func.blocks[block_id]) is not None
            ]
            findings.append(
                Finding(
                    "loop-no-exit",
                    "error",
                    name,
                    min(lines) if lines else _block_line(func.blocks[dst]) or 0,
                    "loop has no break, return, or exiting condition",
                    func.name,
                )
            )
        if func.nparams:
            live_in = solve(func, Liveness()).entry[0]
            params = func_params.get(func.name)
            for index in range(func.nparams):
                if index in live_in:
                    continue
                pname = (
                    params[index]
                    if params and index < len(params)
                    else "#%d" % index
                )
                findings.append(
                    Finding(
                        "unused-param",
                        "info",
                        name,
                        func_lines.get(func.name, 0),
                        "the value passed for parameter '%s' is never used"
                        % pname,
                        func.name,
                    )
                )


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def render_text(findings):
    """Human-readable report, one line per finding plus a summary."""
    lines = [finding.format() for finding in findings]
    counts = {}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    summary = "%d finding%s" % (len(findings), "" if len(findings) == 1 else "s")
    if findings:
        summary += " (%s)" % ", ".join(
            "%d %s" % (counts[sev], sev)
            for sev in ("error", "warning", "info")
            if sev in counts
        )
    lines.append(summary)
    return "\n".join(lines)
