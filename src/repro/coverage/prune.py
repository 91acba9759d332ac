"""Coverage-preserving probe pruning for the compiled backend.

The instrumentation passes place one probe per CFG edge (plus entry and
return probes, depending on the feedback).  On every *complete* execution
those counts obey flow conservation: each block is entered exactly as often
as it is left, so the edge counts form a circulation over the CFG extended
with a virtual exit node (``RET`` blocks flow into it, and it flows back
into the entry once per call).  Counts on any spanning tree of that graph
are therefore fully determined by the counts on the remaining chord edges —
Knuth's classic optimal-counter-placement result, the same one Ball-Larus
path profiling builds on.

:func:`build_prune_plan` exploits this: it keeps probes only on a chord
set, drops the rest, and records for each dropped probe a signed linear
combination of kept cells that reconstructs its count.  The compiled
backend applies the reconstruction after each clean run, yielding a
coverage map *bit-identical* to the unpruned one on complete executions.
On trapped or timed-out executions conservation does not hold, so the raw
(pruned) map is kept — it is a subset of the reference map, and the fuzzing
engine only feeds complete runs to the virgin map's novelty merge, so
queueing decisions are unchanged (``tests/test_backend_equivalence.py``
checks these obligations).

The simplest special case is the dominator chain ``A -> B -> C`` with ``B``
single-entry/single-exit: the ``(A, B)`` probe dominates ``(B, C)`` and its
count alone reconstructs it.  The flow formulation generalizes that to
branch arms (one arm of a two-way branch is the block count minus the other
arm) and whole loop bodies.  The :class:`~repro.cfg.analysis.DominatorTree`
still earns its keep in drop *selection*: probes on retreating edges (whose
target dominates their source — natural-loop back edges) are dropped first,
since they sit on the hottest part of the graph and save the most work per
execution.

Soundness conditions, all statically checked:

- the instrumentation is pure-HIT (``Instrumentation.pure_hit``: one
  ``ACT_HIT`` per probe site): path-state actions (Ball-Larus increments,
  hashed-path updates) are order-sensitive and never pruned;
- a probe is droppable only if it is a site's sole action and its map cell
  is written by exactly one probe program-wide (a hash collision would make
  the reconstructed count unrecoverable);
- dropped probes form a forest of the flow graph together with the
  unprobed edges, so leaf peeling resolves every dropped count into kept
  cells only.
"""

import hashlib

from repro.cfg.analysis import DominatorTree
from repro.cfg.instructions import RET

# Reconstruction expressions longer than this keep their probe instead:
# the per-execution cost of applying a huge expression outweighs one
# dictionary increment at the probe site.
_MAX_TERMS = 16

# Virtual exit node of the per-function flow graph.
_EXIT = -1


def _cell_usage(instrumentation):
    """Map cell -> number of probe sites writing it (collision detector)."""
    usage = {}
    for tables in (instrumentation.edge_actions, instrumentation.ret_actions):
        for table in tables:
            for acts in table.values():
                for act in acts:
                    usage[act[1]] = usage.get(act[1], 0) + 1
    for acts in instrumentation.entry_actions:
        for act in acts:
            usage[act[1]] = usage.get(act[1], 0) + 1
    return usage


class PrunePlan:
    """Filtered probe tables plus the reconstruction schedule.

    ``edge_actions`` / ``ret_actions`` / ``entry_actions`` mirror the
    :class:`~repro.coverage.feedback.Instrumentation` tables with the
    pruned probes removed; the compiled backend emits code from these
    instead.  ``reconstruct`` is a tuple of ``(target_cell, terms)``
    entries with ``terms`` a tuple of ``(source_cell, coefficient)``
    pairs; after every complete execution the backend sets
    ``hits[target] = sum(coef * hits[source])``.  Every source is a kept
    probe's cell, so entries are order-independent.  ``dropped`` counts
    removed probe sites; ``token`` keys the compiled-code cache.
    """

    __slots__ = (
        "edge_actions",
        "ret_actions",
        "entry_actions",
        "reconstruct",
        "dropped",
        "token",
    )

    def __init__(self, edge_actions, ret_actions, entry_actions, reconstruct, dropped):
        self.edge_actions = edge_actions
        self.ret_actions = ret_actions
        self.entry_actions = entry_actions
        self.reconstruct = tuple(reconstruct)
        self.dropped = dropped
        digest = hashlib.sha256()
        for f, table in enumerate(edge_actions):
            for edge in sorted(table):
                digest.update(b"e%d:%d:%d" % (f, edge[0], edge[1]))
        for f, table in enumerate(ret_actions):
            for block in sorted(table):
                digest.update(b"r%d:%d" % (f, block))
        for f, acts in enumerate(entry_actions):
            digest.update(b"n%d:%d" % (f, len(acts)))
        for target, terms in self.reconstruct:
            digest.update(b"t%d" % target)
            for source, coef in terms:
                digest.update(b"s%d:%d" % (source, coef))
        self.token = digest.hexdigest()[:16]


class _FlowEdge:
    """One edge of a function's extended flow graph."""

    __slots__ = ("u", "v", "cell", "kind", "site", "sym")

    def __init__(self, u, v, cell, kind, site):
        self.u = u
        self.v = v
        self.cell = cell  # unique map cell when droppable, else None
        self.kind = kind  # "edge" | "ret" | "entry"
        self.site = site
        self.sym = None  # cell -> coefficient once the count is known


def _function_edges(func, etab, rtab, entry_acts, unique_hit):
    """The extended flow graph: CFG edges, RET->exit, exit->entry."""
    edges = []
    for a, b in func.edges():
        edges.append(_FlowEdge(a, b, unique_hit(etab.get((a, b))), "edge", (a, b)))
    for block in func.blocks:
        if block.term is not None and block.term[0] == RET:
            edges.append(
                _FlowEdge(block.id, _EXIT, unique_hit(rtab.get(block.id)), "ret", block.id)
            )
    edges.append(_FlowEdge(_EXIT, 0, unique_hit(entry_acts), "entry", None))
    return edges


def _combine(into, sym, sign):
    for cell, coef in sym.items():
        value = into.get(cell, 0) + sign * coef
        if value:
            into[cell] = value
        else:
            del into[cell]


def _solve(edges, unknown):
    """Leaf-peel the unknown forest, deriving each count from kept cells.

    Known edges start with ``sym = {cell: 1}``.  A node with exactly one
    unresolved incident edge determines it by flow balance; resolving it
    may expose its other endpoint.  Unknown edges on cycles (possible when
    shared-cell probes are opaque) simply stay unresolved.
    """
    incident = {}
    pending = {}
    for edge in edges:
        if edge.u == edge.v:
            continue  # self-loops cancel out of every balance equation
        incident.setdefault(edge.u, []).append(edge)
        incident.setdefault(edge.v, []).append(edge)
    for edge in unknown:
        if edge.u == edge.v:
            continue
        pending[edge.u] = pending.get(edge.u, 0) + 1
        pending[edge.v] = pending.get(edge.v, 0) + 1
    queue = sorted(node for node, count in pending.items() if count == 1)
    while queue:
        node = queue.pop()
        if pending.get(node) != 1:
            continue
        target = None
        for edge in incident[node]:
            if edge.sym is None:
                target = edge
                break
        # in-flow minus out-flow at ``node`` is zero; solve for ``target``.
        sym = {}
        for edge in incident[node]:
            if edge is target:
                continue
            sign = 1 if edge.v == node else -1
            _combine(sym, edge.sym, sign)
        if target.u == node:
            # target leaves ``node``: count = in - other_out.
            pass
        else:
            # target enters ``node``: count = out - other_in = -(in - out).
            sym = {cell: -coef for cell, coef in sym.items()}
        target.sym = sym
        for endpoint in (target.u, target.v):
            left = pending.get(endpoint, 0) - 1
            pending[endpoint] = left
            if left == 1:
                queue.append(endpoint)


def build_prune_plan(program, instrumentation):
    """Flow-conservation probe elision for pure-HIT instrumentations.

    Returns a :class:`PrunePlan`, or ``None`` when the instrumentation is
    absent or uses path-state actions (nothing can be pruned soundly).
    """
    if instrumentation is None or not instrumentation.pure_hit:
        return None
    usage = _cell_usage(instrumentation)
    edge_actions = [dict(table) for table in instrumentation.edge_actions]
    ret_actions = [dict(table) for table in instrumentation.ret_actions]
    entry_actions = list(instrumentation.entry_actions)
    reconstruct = []
    dropped = 0

    def unique_hit(acts):
        if acts is None or len(acts) != 1:
            return None
        cell = acts[0][1]
        return cell if usage.get(cell) == 1 else None

    for func in program.funcs:
        f = func.index
        etab = edge_actions[f]
        rtab = ret_actions[f]
        edges = _function_edges(func, etab, rtab, entry_actions[f], unique_hit)
        tree = DominatorTree(func)

        # Opaque edges (no droppable probe) have unknown counts and are
        # forced into the unknown set; probed edges are added greedily while
        # the unknown subgraph stays a forest (union-find cycle check).
        # Retreating edges — target dominates source, i.e. natural-loop
        # back edges — go first: they are the hottest probes in the graph.
        parent = {}

        def find(node):
            root = node
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(node, node) != node:
                parent[node], node = root, parent[node]
            return root

        unknown = []
        candidates = []
        for edge in edges:
            if edge.cell is None:
                unknown.append(edge)
                if edge.u != edge.v:
                    parent[find(edge.u)] = find(edge.v)
            else:
                candidates.append(edge)
        candidates.sort(
            key=lambda e: (
                0 if e.kind == "edge" and tree.dominates(e.v, e.u) else 1
            )
        )
        chosen = []
        for edge in candidates:
            if edge.u == edge.v:
                edge.sym = {edge.cell: 1}
                continue  # a self-loop is a one-edge cycle: never droppable
            ru, rv = find(edge.u), find(edge.v)
            if ru == rv:
                edge.sym = {edge.cell: 1}
                continue
            parent[ru] = rv
            unknown.append(edge)
            chosen.append(edge)

        # Solve, then un-drop anything the peel could not reach (possible
        # when opaque shared-cell probes form cycles) and re-solve with the
        # restored probes as known values.
        while True:
            _solve(edges, [edge for edge in unknown if edge.sym is None])
            stuck = [edge for edge in chosen if edge.sym is None]
            if not stuck:
                break
            for edge in stuck:
                edge.sym = {edge.cell: 1}
                chosen.remove(edge)

        for edge in chosen:
            if len(edge.sym) > _MAX_TERMS:
                continue  # applying the expression would cost more than the probe
            if edge.kind == "edge":
                del etab[edge.site]
            elif edge.kind == "ret":
                del rtab[edge.site]
            else:
                entry_actions[f] = ()
            dropped += 1
            if edge.sym:
                terms = tuple(sorted(edge.sym.items()))
                reconstruct.append((edge.cell, terms))
    return PrunePlan(edge_actions, ret_actions, entry_actions, reconstruct, dropped)


def _trap_key(trap):
    if trap is None:
        return None
    frames = tuple((fr.function, fr.line) for fr in trap.stack)
    return (trap.kind, trap.function, trap.line, trap.detail, frames)


def check_plan(program, instrumentation, plan, inputs, instr_budget=None):
    """Differentially verify a plan's obligations over concrete ``inputs``.

    For every input, runs the reference interpreter (unpruned) and the
    compiled program under ``plan`` and asserts:

    - identical return value, trap site/kind/detail/stack, and timeout flag;
    - on complete executions, a bit-identical reconstructed coverage map;
    - on partial executions, the pruned map is a subset with counts bounded
      by the interpreter's.

    Raises ``AssertionError`` on the first violation; returns the number of
    inputs checked.  Used by the backend-equivalence CI job and the
    property-based tests.
    """
    from repro.runtime.compiler import compile_program
    from repro.runtime.interpreter import DEFAULT_INSTR_BUDGET
    from repro.runtime.interpreter import execute as interp_execute

    budget = DEFAULT_INSTR_BUDGET if instr_budget is None else instr_budget
    compiled = compile_program(program, instrumentation, plan)
    checked = 0
    for data in inputs:
        ref = interp_execute(program, data, instrumentation, instr_budget=budget)
        got = compiled.execute(data, instr_budget=budget)
        assert _trap_key(ref.trap) == _trap_key(got.trap), (ref.trap, got.trap)
        assert ref.timeout == got.timeout, (ref.timeout, got.timeout)
        if ref.trap is None and not ref.timeout:
            assert ref.retval == got.retval, (ref.retval, got.retval)
            assert ref.hits == got.hits, "reconstructed map diverged"
        else:
            for idx, count in got.hits.items():
                assert count <= ref.hits.get(idx, 0), (
                    "partial map exceeds reference at cell %d" % idx
                )
        checked += 1
    return checked
