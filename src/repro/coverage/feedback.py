"""Coverage feedbacks: how an execution is summarized for novelty checks.

Each feedback compiles a :class:`~repro.cfg.program.ProgramCFG` into an
:class:`Instrumentation` — per-function action tables the VM executes on
control-flow transitions (see :mod:`repro.runtime.interpreter`).  The fuzzer
itself is feedback-agnostic; swapping the feedback is the paper's "change a
single component" experiment design.

Implemented feedbacks:

- :class:`EdgeFeedback` — collision-free per-edge probes with hit counts;
  the stand-in for AFL++'s ``pcguard`` configuration.
- :class:`PathFeedback` — the paper's contribution: Ball-Larus acyclic-path
  ids per function, map index ``(path_id ^ function_id) & mask``, map update
  at loop back edges and returns only.
- :class:`BlockFeedback` — basic-block coverage (n-gram with n = 0).
- :class:`NGramFeedback` — rolling window of the last *n* edges (the related
  work's n-gram feedback; n = 1 degenerates to edge coverage).
- :class:`PathAFLFeedback` — edge coverage plus a PathAFL-style rolling
  whole-program hash over a pruned subset of "large" functions.
"""

import hashlib

from repro.ballarus.plan import build_program_plans
from repro.coverage.bitmap import MAP_SIZE_BITS
from repro.runtime.interpreter import (
    ACT_ADD,
    ACT_END,
    ACT_END_RESET,
    ACT_HIT,
    ACT_HPATH,
    ACT_NGRAM,
)


def _stable_hash(text, bits=64):
    """Deterministic cross-run hash of ``text`` (Python's hash() is salted)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[: bits // 8], "little")


class Instrumentation:
    """Compiled probe tables for one program under one feedback.

    ``edge_actions[f][(src, dst)]``, ``ret_actions[f][block]`` and
    ``entry_actions[f]`` hold tuples of VM action tuples; ``map_mask`` sizes
    the coverage map; ``ngram_n`` parameterizes ACT_NGRAM handling.
    ``pure_hit`` and ``edge_rows`` are set by :meth:`finalize`.
    """

    __slots__ = (
        "feedback_name",
        "map_mask",
        "edge_actions",
        "ret_actions",
        "entry_actions",
        "edge_rows",
        "pure_hit",
        "ngram_n",
        "pair_paths",
        "probe_sites",
    )

    def __init__(self, feedback_name, program, map_bits, ngram_n=4):
        self.feedback_name = feedback_name
        self.map_mask = (1 << map_bits) - 1
        nfuncs = len(program.funcs)
        self.edge_actions = [dict() for _ in range(nfuncs)]
        self.ret_actions = [dict() for _ in range(nfuncs)]
        self.entry_actions = [() for _ in range(nfuncs)]
        # Per-function, per-source-block action rows, built by finalize();
        # lets the VM look up edge actions without allocating (src, dst)
        # tuples on every transition.
        self.edge_rows = None
        self.pure_hit = False
        self.ngram_n = ngram_n
        # When set, every path-end emission also hits a rolling 2-gram of
        # consecutive path ids (the paper's Sec. VII future-work feedback).
        self.pair_paths = False
        self.probe_sites = 0

    def finalize(self, program):
        """Decide pure-HIT and build the VM's edge rows (idempotent).

        The instrumentation is *pure-HIT* when every edge, return and entry
        probe site holds exactly one ``ACT_HIT``: each probe then adds one
        to one map cell at ``PROBE_COSTS[ACT_HIT] == 1`` tick, so every
        executor charges such probes from the map after the run
        (:func:`~repro.runtime.interpreter.charge_hits`), the compiled
        backend emits no per-probe accounting, and probe pruning applies.
        Under pure-HIT an edge row's value is the map index itself, not the
        action tuple.
        """
        sites = [
            acts
            for tables in (self.edge_actions, self.ret_actions)
            for table in tables
            for acts in table.values()
        ]
        sites.extend(acts for acts in self.entry_actions if acts)
        self.pure_hit = all(len(acts) == 1 and acts[0][0] == ACT_HIT for acts in sites)
        self.edge_rows = []
        for func in program.funcs:
            rows = [None] * len(func.blocks)
            for (src, dst), acts in self.edge_actions[func.index].items():
                if rows[src] is None:
                    rows[src] = {}
                rows[src][dst] = acts[0][1] if self.pure_hit else acts
            self.edge_rows.append(rows)
        return self

    def add_edge_action(self, func_index, edge, action):
        table = self.edge_actions[func_index]
        table[edge] = table.get(edge, ()) + (action,)
        self.probe_sites += 1

    def add_ret_action(self, func_index, block, action):
        table = self.ret_actions[func_index]
        table[block] = table.get(block, ()) + (action,)
        self.probe_sites += 1

    def add_entry_action(self, func_index, action):
        self.entry_actions[func_index] = self.entry_actions[func_index] + (action,)
        self.probe_sites += 1


class Feedback:
    """Base class; subclasses define ``name`` and :meth:`instrument`."""

    name = "abstract"

    def instrument(self, program):
        raise NotImplementedError

    def __repr__(self):
        return "%s()" % type(self).__name__


class EdgeFeedback(Feedback):
    """Collision-free edge coverage with hit counts (the pcguard baseline).

    Every CFG edge gets a unique sequential map index (AFL++'s pcguard mode
    assigns compile-time-unique guards, avoiding the classic AFL hash
    collisions); function entries are probed as well so that sheer reach of
    a function registers even for single-block functions.
    """

    name = "edge"

    def __init__(self, map_bits=MAP_SIZE_BITS):
        self.map_bits = map_bits

    def instrument(self, program):
        instr = Instrumentation(self.name, program, self.map_bits)
        mask = instr.map_mask
        next_id = 0
        for func in program.funcs:
            instr.entry_actions[func.index] = ((ACT_HIT, next_id & mask),)
            instr.probe_sites += 1
            next_id += 1
            for edge in func.edges():
                instr.add_edge_action(func.index, edge, (ACT_HIT, next_id & mask))
                next_id += 1
        return instr.finalize(program)


class PathFeedback(Feedback):
    """The paper's intra-procedural acyclic-path feedback.

    Ball-Larus increments ride on spanning-tree chords; a coverage-map
    update fires when an acyclic path terminates (function return or loop
    back edge) at index ``(path_id ^ function_id) & mask`` — the formula of
    Section IV.  ``optimize=False`` selects the canonical (Figure 1)
    placement instead of the spanning-tree one.
    """

    name = "path"

    def __init__(self, map_bits=MAP_SIZE_BITS, optimize=True):
        self.map_bits = map_bits
        self.optimize = optimize

    def instrument(self, program):
        instr = Instrumentation(self.name, program, self.map_bits)
        plans = build_program_plans(program, self.optimize)
        for plan in plans:
            fxor = _stable_hash("func:" + plan.func_name) & instr.map_mask
            for edge, inc in plan.edge_incs.items():
                instr.add_edge_action(plan.func_index, edge, (ACT_ADD, inc))
            for (src, dst), (end_inc, reset) in plan.back_edge_events.items():
                instr.add_edge_action(
                    plan.func_index, (src, dst), (ACT_END_RESET, end_inc, reset, fxor)
                )
            for block, emit_inc in plan.ret_emits.items():
                instr.add_ret_action(plan.func_index, block, (ACT_END, emit_inc, fxor))
        return instr.finalize(program)


class BlockFeedback(Feedback):
    """Basic-block coverage (the weakest feedback; n-gram with n = 0)."""

    name = "block"

    def __init__(self, map_bits=MAP_SIZE_BITS):
        self.map_bits = map_bits

    def instrument(self, program):
        instr = Instrumentation(self.name, program, self.map_bits)
        mask = instr.map_mask
        next_id = 0
        block_ids = {}
        for func in program.funcs:
            for block in func.blocks:
                block_ids[(func.index, block.id)] = next_id & mask
                next_id += 1
        for func in program.funcs:
            instr.entry_actions[func.index] = (
                (ACT_HIT, block_ids[(func.index, 0)]),
            )
            instr.probe_sites += 1
            for edge in func.edges():
                instr.add_edge_action(
                    func.index, edge, (ACT_HIT, block_ids[(func.index, edge[1])])
                )
        return instr.finalize(program)


class NGramFeedback(Feedback):
    """Rolling-window edge history (the related-work n-gram feedback)."""

    name = "ngram"

    def __init__(self, n=4, map_bits=MAP_SIZE_BITS):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.map_bits = map_bits
        self.name = "ngram%d" % n

    def instrument(self, program):
        instr = Instrumentation(self.name, program, self.map_bits, ngram_n=self.n)
        for func in program.funcs:
            for edge in func.edges():
                ehash = _stable_hash("%s:%d:%d" % (func.name, edge[0], edge[1]))
                instr.add_edge_action(func.index, edge, (ACT_NGRAM, ehash))
        return instr.finalize(program)


class PathAFLFeedback(Feedback):
    """A PathAFL-style feedback: edge coverage + pruned whole-program hashes.

    PathAFL (Yan et al., ASIA CCS '20) keeps AFL's edge map and adds
    coarse-grained identifiers of *partial whole-program paths*: a rolling
    hash over the sequence of selected "interesting" functions, with
    aggressive pruning (only functions above a size threshold contribute).
    The hash state indexes the same map, so novel inter-procedural
    sequences register as novelty — but coarsely and with heavy aliasing,
    which is the behaviour the paper's Appendix C contrasts against.
    """

    name = "pathafl"

    def __init__(self, map_bits=MAP_SIZE_BITS, min_blocks=4):
        self.map_bits = map_bits
        self.min_blocks = min_blocks

    def instrument(self, program):
        instr = Instrumentation(self.name, program, self.map_bits)
        mask = instr.map_mask
        next_id = 0
        for func in program.funcs:
            instr.entry_actions[func.index] = ((ACT_HIT, next_id & mask),)
            instr.probe_sites += 1
            next_id += 1
            for edge in func.edges():
                instr.add_edge_action(func.index, edge, (ACT_HIT, next_id & mask))
                next_id += 1
        # Pruned h-path contributions: only "large" functions participate.
        for func in program.funcs:
            if len(func.blocks) >= self.min_blocks:
                fhash = _stable_hash("hpath:" + func.name)
                instr.add_entry_action(func.index, (ACT_HPATH, fhash))
        return instr.finalize(program)


class PathPairFeedback(PathFeedback):
    """2-grams of acyclic paths (the paper's Sec. VII future-work feedback).

    On top of the per-path map updates, every pair of *consecutive* path
    terminations (across loop iterations and function boundaries) hits a
    combined index — a partial form of context/flow sensitivity one level
    above single acyclic paths.  The paper anticipates amplified queue
    explosion; the ``path2gram`` config lets the ablation benches measure
    it.
    """

    name = "path2gram"

    def instrument(self, program):
        instr = super().instrument(program)
        instr.feedback_name = self.name
        instr.pair_paths = True
        return instr


def feedback_by_name(name):
    """Construct a feedback from its configuration name."""
    if name == "edge":
        return EdgeFeedback()
    if name == "path":
        return PathFeedback()
    if name == "path-canonical":
        return PathFeedback(optimize=False)
    if name == "block":
        return BlockFeedback()
    if name.startswith("ngram"):
        return NGramFeedback(int(name[len("ngram"):] or 4))
    if name == "pathafl":
        return PathAFLFeedback()
    if name == "path2gram":
        return PathPairFeedback()
    raise ValueError("unknown feedback %r" % name)
