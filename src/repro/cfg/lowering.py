"""AST -> CFG lowering.

Short-circuit operators (``&&``, ``||``) and loop/if statements lower to
genuine control flow, so the resulting CFGs exhibit the branch structure the
Ball-Larus pass enumerates.  Unreachable blocks produced by early returns,
``break``/``continue``, or diverging branches are pruned and blocks are
renumbered densely before the CFG is returned.
"""

from repro.cfg.instructions import (
    BIN,
    BINOPS,
    BR,
    BUILTIN,
    CALL,
    CONST,
    JMP,
    LOAD,
    MOV,
    RET,
    STORE,
    STR,
    UN,
    UNOPS,
)
from repro.cfg.graph import FunctionCFG, remap_targets
from repro.cfg.program import ProgramCFG
from repro.lang import ast_nodes as ast
from repro.lang.builtins_spec import BUILTIN_CODES
from repro.runtime.values import wrap_int


def lower_program(program_ast, source_name="<program>"):
    """Lower a checked :class:`ast.Program` into a :class:`ProgramCFG`."""
    func_index = {f.name: i for i, f in enumerate(program_ast.funcs)}
    strings = _StringPool()
    funcs = []
    for funcdef in program_ast.funcs:
        lowerer = _FuncLowerer(funcdef, func_index, strings)
        funcs.append(lowerer.run())
    return ProgramCFG(funcs, strings.values, source_name)


class _StringPool:
    """Deduplicating pool of byte-string constants."""

    def __init__(self):
        self.values = []
        self._index = {}

    def intern(self, value):
        idx = self._index.get(value)
        if idx is None:
            idx = len(self.values)
            self.values.append(value)
            self._index[value] = idx
        return idx


class _FuncLowerer:
    def __init__(self, funcdef, func_index, strings):
        self._funcdef = funcdef
        self._func_index = func_index
        self._strings = strings
        self._cfg = FunctionCFG(
            funcdef.name, func_index[funcdef.name], len(funcdef.params)
        )
        self._scopes = [
            {name: reg for reg, name in enumerate(funcdef.params)}
        ]
        self._loops = []  # (continue_target_id, break_target_id)

    def run(self):
        entry = self._cfg.new_block()
        end = self._lower_block(self._funcdef.body, entry, new_scope=False)
        if end is not None and not end.is_terminated():
            end.term = (RET, -1)
        self._terminate_stragglers()
        _prune_unreachable(self._cfg)
        self._cfg.validate()
        return self._cfg

    def _terminate_stragglers(self):
        # Dead blocks created after diverging statements may remain open;
        # close them so pruning can treat the CFG uniformly.
        for block in self._cfg.blocks:
            if not block.is_terminated():
                block.term = (RET, -1)

    # -- scope -------------------------------------------------------------

    def _lookup(self, name):
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        raise KeyError(name)  # pragma: no cover - sema guarantees declaration

    # -- statements ----------------------------------------------------------

    def _lower_block(self, block_ast, cur, new_scope=True):
        """Lower a statement list into ``cur``; return the open exit block.

        Returns None when control diverges (every path returned/broke).
        """
        if new_scope:
            self._scopes.append({})
        for stmt in block_ast.stmts:
            cur = self._lower_stmt(stmt, cur)
            if cur is None:
                break
        if new_scope:
            self._scopes.pop()
        return cur

    def _lower_stmt(self, stmt, cur):
        if isinstance(stmt, ast.VarDecl):
            value, cur = self._lower_expr(stmt.init, cur)
            reg = self._cfg.new_reg()
            cur.instrs.append((MOV, reg, value))
            self._scopes[-1][stmt.name] = reg
            return cur
        if isinstance(stmt, ast.Assign):
            value, cur = self._lower_expr(stmt.value, cur)
            cur.instrs.append((MOV, self._lookup(stmt.name), value))
            return cur
        if isinstance(stmt, ast.IndexAssign):
            arr, cur = self._lower_expr(stmt.array, cur)
            idx, cur = self._lower_expr(stmt.index, cur)
            value, cur = self._lower_expr(stmt.value, cur)
            cur.instrs.append((STORE, arr, idx, value, stmt.line))
            return cur
        if isinstance(stmt, ast.If):
            return self._lower_if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._lower_while(stmt, cur)
        if isinstance(stmt, ast.For):
            return self._lower_for(stmt, cur)
        if isinstance(stmt, ast.Break):
            cur.term = (JMP, self._loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            cur.term = (JMP, self._loops[-1][0])
            return None
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                cur.term = (RET, -1)
            else:
                value, cur = self._lower_expr(stmt.value, cur)
                cur.term = (RET, value)
            return None
        if isinstance(stmt, ast.ExprStmt):
            _, cur = self._lower_expr(stmt.expr, cur)
            return cur
        raise AssertionError("unknown statement %r" % stmt)

    def _lower_if(self, stmt, cur):
        then_block = self._cfg.new_block()
        else_block = self._cfg.new_block() if stmt.else_block is not None else None
        join = self._cfg.new_block()
        self._lower_cond(stmt.cond, cur, then_block.id, (else_block or join).id)
        then_end = self._lower_block(stmt.then_block, then_block)
        if then_end is not None:
            then_end.term = (JMP, join.id)
        if else_block is not None:
            else_end = self._lower_block(stmt.else_block, else_block)
            if else_end is not None:
                else_end.term = (JMP, join.id)
        return join

    def _lower_while(self, stmt, cur):
        header = self._cfg.new_block()
        body = self._cfg.new_block()
        exit_block = self._cfg.new_block()
        cur.term = (JMP, header.id)
        self._lower_cond(stmt.cond, header, body.id, exit_block.id)
        self._loops.append((header.id, exit_block.id))
        body_end = self._lower_block(stmt.body, body)
        self._loops.pop()
        if body_end is not None:
            body_end.term = (JMP, header.id)  # the loop back edge
        return exit_block

    def _lower_for(self, stmt, cur):
        self._scopes.append({})
        if stmt.init is not None:
            cur = self._lower_stmt(stmt.init, cur)
        header = self._cfg.new_block()
        body = self._cfg.new_block()
        step = self._cfg.new_block()
        exit_block = self._cfg.new_block()
        cur.term = (JMP, header.id)
        if stmt.cond is not None:
            self._lower_cond(stmt.cond, header, body.id, exit_block.id)
        else:
            header.term = (JMP, body.id)
        self._loops.append((step.id, exit_block.id))
        body_end = self._lower_block(stmt.body, body)
        self._loops.pop()
        if body_end is not None:
            body_end.term = (JMP, step.id)
        step_end = step
        if stmt.step is not None:
            step_end = self._lower_stmt(stmt.step, step)
        if step_end is not None:
            step_end.term = (JMP, header.id)  # the loop back edge
        self._scopes.pop()
        return exit_block

    # -- conditions ----------------------------------------------------------

    def _lower_cond(self, expr, cur, true_id, false_id):
        """Lower ``expr`` as a branch condition out of ``cur``."""
        if isinstance(expr, ast.BinOp) and expr.op == "&&":
            mid = self._cfg.new_block()
            self._lower_cond(expr.left, cur, mid.id, false_id)
            self._lower_cond(expr.right, mid, true_id, false_id)
            return
        if isinstance(expr, ast.BinOp) and expr.op == "||":
            mid = self._cfg.new_block()
            self._lower_cond(expr.left, cur, true_id, mid.id)
            self._lower_cond(expr.right, mid, true_id, false_id)
            return
        if isinstance(expr, ast.UnOp) and expr.op == "!":
            self._lower_cond(expr.operand, cur, false_id, true_id)
            return
        value, cur = self._lower_expr(expr, cur)
        cur.term = (BR, value, true_id, false_id)

    # -- expressions ---------------------------------------------------------

    def _lower_expr(self, expr, cur):
        """Lower ``expr``; return (result_register, open_block)."""
        if isinstance(expr, ast.IntLit):
            reg = self._cfg.new_reg()
            # Literals wrap like every VM integer: 2**64 - 1 is -1.
            cur.instrs.append((CONST, reg, wrap_int(expr.value)))
            return reg, cur
        if isinstance(expr, ast.StrLit):
            reg = self._cfg.new_reg()
            cur.instrs.append((STR, reg, self._strings.intern(expr.value)))
            return reg, cur
        if isinstance(expr, ast.Name):
            return self._lookup(expr.name), cur
        if isinstance(expr, ast.UnOp):
            operand, cur = self._lower_expr(expr.operand, cur)
            reg = self._cfg.new_reg()
            cur.instrs.append((UN, UNOPS[expr.op], reg, operand))
            return reg, cur
        if isinstance(expr, ast.BinOp):
            if expr.op in ("&&", "||"):
                return self._lower_shortcircuit(expr, cur)
            left, cur = self._lower_expr(expr.left, cur)
            right, cur = self._lower_expr(expr.right, cur)
            reg = self._cfg.new_reg()
            cur.instrs.append((BIN, BINOPS[expr.op], reg, left, right, expr.line))
            return reg, cur
        if isinstance(expr, ast.Index):
            arr, cur = self._lower_expr(expr.array, cur)
            idx, cur = self._lower_expr(expr.index, cur)
            reg = self._cfg.new_reg()
            cur.instrs.append((LOAD, reg, arr, idx, expr.line))
            return reg, cur
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, cur)
        raise AssertionError("unknown expression %r" % expr)

    def _lower_shortcircuit(self, expr, cur):
        """Materialize ``a && b`` / ``a || b`` as 0/1 through control flow."""
        result = self._cfg.new_reg()
        true_block = self._cfg.new_block()
        false_block = self._cfg.new_block()
        join = self._cfg.new_block()
        self._lower_cond(expr, cur, true_block.id, false_block.id)
        true_block.instrs.append((CONST, result, 1))
        true_block.term = (JMP, join.id)
        false_block.instrs.append((CONST, result, 0))
        false_block.term = (JMP, join.id)
        return result, join

    def _lower_call(self, expr, cur):
        arg_regs = []
        for arg in expr.args:
            reg, cur = self._lower_expr(arg, cur)
            arg_regs.append(reg)
        dst = self._cfg.new_reg()
        if expr.callee in BUILTIN_CODES:
            cur.instrs.append(
                (BUILTIN, dst, BUILTIN_CODES[expr.callee], tuple(arg_regs), expr.line)
            )
        else:
            cur.instrs.append(
                (CALL, dst, self._func_index[expr.callee], tuple(arg_regs), expr.line)
            )
        return dst, cur


def _prune_unreachable(cfg):
    """Drop blocks unreachable from the entry and renumber densely."""
    reachable = set()
    stack = [0]
    while stack:
        block_id = stack.pop()
        if block_id in reachable:
            continue
        reachable.add(block_id)
        stack.extend(cfg.blocks[block_id].successors())
    keep = [b for b in cfg.blocks if b.id in reachable]
    mapping = {}
    for new_id, block in enumerate(keep):
        mapping[block.id] = new_id
    for block in keep:
        block.id = mapping[block.id]
    cfg.blocks = keep
    remap_targets(cfg, mapping)
