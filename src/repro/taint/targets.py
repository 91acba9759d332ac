"""Rare-branch target ranking: where to aim the masked-mutation stage.

FairFuzz's observation, transplanted: branches covered by only a handful of
queue entries mark the frontier — steering mutation energy at them beats
uniform havoc.  We already have everything needed to find them: the queue's
per-entry coverage traces (hit-rarity) and the instrumentation's action
tables (which map index belongs to which conditional branch edge).

:func:`build_branch_index` inverts the edge-action tables once per campaign;
:func:`select_targets` ranks covered branch indices by how few entries cover
them; :class:`TaintState` is the engine-side container (per-entry TaintMap
cache, per-target visit budget, counters) that snapshots with the engine.

Feedbacks without per-edge ACT_HIT probes (e.g. pure path feedback) yield an
empty branch index; the masked stage then falls back to cmp-mask focus, so
taint guidance degrades gracefully instead of turning off.
"""

from repro.cfg.instructions import BR
from repro.runtime.interpreter import ACT_HIT


class BranchSiteInfo:
    """Static description of one conditional-branch edge's map index."""

    __slots__ = ("index", "site", "dst", "sibling_index")

    def __init__(self, index, site, dst, sibling_index):
        self.index = index  # coverage-map index of this branch edge
        self.site = site  # (function name, source block id) — TaintMap's key
        self.dst = dst  # destination block of this edge
        self.sibling_index = sibling_index  # map index of the other arm (or None)


class TaintTarget:
    """One selected rare-branch target paired with the seed that reaches it."""

    __slots__ = ("index", "rarity", "entry", "site", "sibling_index")

    def __init__(self, index, rarity, entry, site, sibling_index):
        self.index = index
        self.rarity = rarity
        self.entry = entry
        self.site = site
        self.sibling_index = sibling_index

    def __repr__(self):
        return "TaintTarget(idx=%d, rarity=%d, site=%r)" % (
            self.index,
            self.rarity,
            self.site,
        )


def build_branch_index(program, instrumentation):
    """Map coverage indices to conditional-branch sites.

    Scans ``edge_actions`` for ACT_HIT probes on edges whose source block
    terminates in BR.  Map-index collisions keep the first site seen (walk
    order is deterministic: function index, then sorted edges).  Returns an
    empty dict for feedbacks with no per-edge hit probes.
    """
    index = {}
    if instrumentation is None:
        return index
    for func in program.funcs:
        table = instrumentation.edge_actions[func.index]
        if not table:
            continue
        hit_idx = {}  # edge -> ACT_HIT map index, for sibling lookup
        for edge, acts in table.items():
            for act in acts:
                if act[0] == ACT_HIT:
                    hit_idx[edge] = act[1]
                    break
        for (src, dst) in sorted(hit_idx):
            if func.blocks[src].term[0] != BR:
                continue
            term = func.blocks[src].term
            sibling_dst = term[3] if dst == term[2] else term[2]
            map_idx = hit_idx[(src, dst)]
            if map_idx in index:
                continue
            index[map_idx] = BranchSiteInfo(
                index=map_idx,
                site=(func.name, src),
                dst=dst,
                sibling_index=hit_idx.get((src, sibling_dst)),
            )
    return index


def select_targets(queue, branch_index, limit, visits=None, max_visits=4):
    """Rank covered branch sites by hit-rarity and return the top ``limit``.

    Rarity of a map index = number of queue entries whose trace covers it.
    Indices covered by *every* entry carry no signal and are skipped (unless
    the queue has a single entry).  Each target pairs the index with its
    ``top_rated`` champion — the cheapest seed known to reach the branch.
    Targets visited ``max_visits`` times already are skipped, so the stage
    rotates through the frontier instead of hammering one site.
    """
    entries = queue.entries
    total = len(entries)
    if limit <= 0 or not total or not branch_index:
        return []
    counts = {}
    for entry in entries:
        for idx in entry.trace:
            if idx in branch_index:
                counts[idx] = counts.get(idx, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (item[1], item[0]))
    targets = []
    for idx, rarity in ranked:
        if total > 1 and rarity >= total:
            continue
        if visits is not None and visits.get(idx, 0) >= max_visits:
            continue
        champion = queue.top_rated.get(idx)
        if champion is None:
            continue
        info = branch_index[idx]
        targets.append(TaintTarget(idx, rarity, champion, info.site, info.sibling_index))
        if len(targets) >= limit:
            break
    return targets


class TaintState:
    """Mutable per-engine taint bookkeeping (snapshot/restore-able).

    The TaintMap cache is snapshotted: a restored engine must not re-run
    taint executions the original run had cached, or the virtual clock
    would diverge tick-for-tick.
    """

    MAP_CACHE_CAP = 32

    __slots__ = (
        "maps",
        "visits",
        "taint_runs",
        "targets_selected",
        "masked_execs",
        "masked_hits",
    )

    def __init__(self):
        self.maps = {}  # entry_id -> TaintMap (LRU by insertion order)
        self.visits = {}  # map index -> times targeted
        self.taint_runs = 0
        self.targets_selected = 0
        self.masked_execs = 0
        self.masked_hits = 0

    def cache_map(self, entry_id, tmap):
        maps = self.maps
        if entry_id in maps:
            del maps[entry_id]  # refresh LRU position
        maps[entry_id] = tmap
        while len(maps) > self.MAP_CACHE_CAP:
            del maps[next(iter(maps))]

    def cached_map(self, entry_id):
        return self.maps.get(entry_id)

    def hit_rate(self):
        """Fraction of masked mutations that flipped their target branch."""
        return self.masked_hits / self.masked_execs if self.masked_execs else 0.0

    def snapshot(self):
        return {
            "maps": dict(self.maps),
            "visits": dict(self.visits),
            "taint_runs": self.taint_runs,
            "targets_selected": self.targets_selected,
            "masked_execs": self.masked_execs,
            "masked_hits": self.masked_hits,
        }

    def restore(self, snap):
        self.maps = dict(snap["maps"])
        self.visits = dict(snap["visits"])
        self.taint_runs = snap["taint_runs"]
        self.targets_selected = snap["targets_selected"]
        self.masked_execs = snap["masked_execs"]
        self.masked_hits = snap["masked_hits"]
        return self
