"""TaintMap: the per-input provenance artifact collected alongside coverage.

One taint run produces one :class:`TaintMap` describing, for the executed
input:

- **cmp sites** — for each comparison executed (BIN comparisons and
  ``memcmp``), which input byte offsets flowed into each operand, how often
  the site fired, and a small sample of observed operand pairs (for masked
  input-to-state candidates);
- **branch trail** — the sequence of conditional branches taken, with the
  taint label of each condition (the data the masked-mutation stage uses to
  freeze already-satisfied guards);
- **control** — the over-approximated implicit-flow mask: the union of all
  branch-condition taints plus every taint that could change control by
  trapping (array indices, divisors, shift amounts, alloc sizes, builtin
  bounds).  ``sound_mask`` folds it in, which is what makes the byte-flip
  soundness property hold: a byte outside the sound mask cannot steer
  execution onto a different path, so the site observes identical operands.

Labels arrive as bitmasks (:mod:`repro.taint.labels`) and are recorded
as per-site ints: recording is an OR, never a set update.  The fields that
consumers read keep their set types — ``CmpSite.mask_a``/``mask_b`` and
``branch_masks`` are sets, ``branch_trail`` masks and ``control`` are
frozensets — and are built from the ints when read, through a per-map
memo that converts each distinct mask at most once.

TaintMaps are plain picklable data (tuples/sets/dicts/ints only).
"""

from repro.taint.labels import offsets

BRANCH_TRAIL_CAP = 8192


#: Operand values worth sampling: ints and memcmp byte windows (not refs).
_SAMPLED = (int, bytes)


def _offset_set(memo, mask):
    """The frozenset of ``mask``'s offsets, converted once per ``memo``."""
    out = memo.get(mask)
    if out is None:
        out = memo[mask] = frozenset(offsets(mask))
    return out


class CmpSite:
    """Aggregate taint record for one comparison site."""

    __slots__ = ("site", "bits_a", "bits_b", "hits", "pairs", "_memo")

    def __init__(self, site, memo):
        self.site = site  # (function, line, op) — op is a binop code or "memcmp"
        self.bits_a = 0  # OR of the labels reaching each operand
        self.bits_b = 0
        self.hits = 0
        self.pairs = []  # sampled (a, b) operand pairs, capped
        self._memo = memo  # the owning map's mask -> offsets memo

    @property
    def mask_a(self):
        return set(_offset_set(self._memo, self.bits_a))

    @property
    def mask_b(self):
        return set(_offset_set(self._memo, self.bits_b))

    def mask(self):
        """Direct (explicit-flow) mask: bytes reaching either operand."""
        return set(_offset_set(self._memo, self.bits_a | self.bits_b))


class TaintMap:
    """Byte-level provenance of one execution, keyed by comparison site."""

    __slots__ = (
        "cmp_sites",
        "input_len",
        "pair_cap",
        "_trail",
        "_branch_bits",
        "_control_bits",
        "_memo",
    )

    def __init__(self, pair_cap=8):
        self.cmp_sites = {}  # site key -> CmpSite
        self.input_len = 0
        self.pair_cap = pair_cap
        # (site, taken_dst, cond_bits) in execution order; site = (fname, src_block)
        self._trail = []
        self._branch_bits = {}  # branch site -> OR of condition labels over hits
        self._control_bits = 0
        self._memo = {}  # mask -> frozenset of offsets

    # -- recording (called by TaintExec) ---------------------------------

    def record_cmp(self, site, label_a, label_b, a, b):
        rec = self.cmp_sites.get(site)
        if rec is None:
            rec = self.cmp_sites[site] = CmpSite(site, self._memo)
        if label_a is not None:
            rec.bits_a |= label_a
        if label_b is not None:
            rec.bits_b |= label_b
        rec.hits += 1
        pairs = rec.pairs
        if (
            len(pairs) < self.pair_cap
            and isinstance(a, _SAMPLED)
            and isinstance(b, _SAMPLED)
        ):
            pairs.append((a, b))

    def wants_pair(self, site):
        """Will :meth:`record_cmp` keep an operand pair sampled at ``site``?"""
        rec = self.cmp_sites.get(site)
        return rec is None or len(rec.pairs) < self.pair_cap

    def record_branch(self, site, taken_dst, cond_label):
        bits = cond_label or 0
        if len(self._trail) < BRANCH_TRAIL_CAP:
            self._trail.append((site, taken_dst, bits))
        branch_bits = self._branch_bits
        if bits or site not in branch_bits:
            branch_bits[site] = branch_bits.get(site, 0) | bits

    def finalize(self, control_label, input_len):
        self._control_bits = control_label or 0
        self.input_len = input_len

    # -- set views ---------------------------------------------------------

    @property
    def branch_trail(self):
        """(site, taken_dst, frozenset mask) per branch taken, in order."""
        memo = self._memo
        return [
            (site, dst, _offset_set(memo, bits)) for site, dst, bits in self._trail
        ]

    @property
    def branch_masks(self):
        """Branch site -> set of byte offsets (union over hits)."""
        memo = self._memo
        return {s: set(_offset_set(memo, b)) for s, b in self._branch_bits.items()}

    @property
    def control(self):
        """The implicit-flow mask, as a frozenset of byte offsets."""
        return _offset_set(self._memo, self._control_bits)

    # -- queries ---------------------------------------------------------

    def sound_mask(self, site):
        """Over-approximate byte mask for a cmp site (explicit + implicit flows)."""
        bits = self._control_bits
        rec = self.cmp_sites.get(site)
        if rec is not None:
            bits |= rec.bits_a | rec.bits_b
        return set(_offset_set(self._memo, bits))

    def _fallback_bits(self):
        bits = 0
        for rec in self.cmp_sites.values():
            bits |= rec.bits_a | rec.bits_b
        return bits

    def focus_fallback(self):
        """All bytes reaching any comparison — used when no branch site is known."""
        return set(_offset_set(self._memo, self._fallback_bits()))

    def target_masks(self, branch_site, length=None):
        """(focus, frozen) byte sets for steering ``branch_site``.

        *focus* is the byte mask of the target branch's condition; *frozen*
        is the union of condition masks of branches taken *before* the
        target on this input's trail — the bytes that satisfy the guards
        guarding the way in, which masked mutation must not disturb.
        A branch site absent from the trail falls back to all cmp bytes.
        """
        if length is None:
            length = self.input_len
        focus = 0
        frozen = 0
        seen_target = False
        if branch_site is not None and branch_site in self._branch_bits:
            for site, _taken, bits in self._trail:
                if site == branch_site:
                    seen_target = True
                    focus |= bits
                elif not seen_target:
                    frozen |= bits
            if not seen_target:  # trail was capped before reaching the site
                focus = self._branch_bits[branch_site]
        if not focus:
            focus = self._fallback_bits()
        in_range = (1 << max(length, 0)) - 1
        focus &= in_range
        frozen &= in_range & ~focus
        memo = self._memo
        return set(_offset_set(memo, focus)), set(_offset_set(memo, frozen))

    def stats(self):
        """Small summary dict for telemetry."""
        masks = [len(rec.mask()) for rec in self.cmp_sites.values()]
        return {
            "cmp_sites": len(self.cmp_sites),
            "branches": len(self._trail),
            "control_bytes": len(self.control),
            "mean_mask": (sum(masks) / len(masks)) if masks else 0.0,
        }
