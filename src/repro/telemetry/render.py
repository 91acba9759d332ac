"""Render JSONL traces: TTY summary, markdown, and a static HTML report.

The renderer consumes the tolerant dict stream of
:func:`repro.telemetry.bus.read_trace` — one campaign's trace may span
several files (the parent's plus one per worker process); pass them all and
the events are merged on their wall timestamps.

The HTML report is a single self-contained file: no external assets, no
JavaScript required, inline SVG charts (coverage over virtual time, execs/s
per worker, and a restart/fault timeline) with light/dark styling driven by
CSS custom properties.  Every chart has an accompanying data table, series
are identified by legend + direct label (never color alone), and the
categorical palette below is the repo-wide validated default.
"""

from repro.telemetry.bus import format_event_line, outcome_label, read_trace

# Validated categorical palette (light, dark) in fixed assignment order —
# series beyond the eighth fold into "other".
_SERIES = (
    ("#2a78d6", "#3987e5"),
    ("#eb6834", "#d95926"),
    ("#1baf7a", "#199e70"),
    ("#eda100", "#c98500"),
    ("#e87ba4", "#d55181"),
    ("#008300", "#008300"),
    ("#4a3aa7", "#9085e9"),
    ("#e34948", "#e66767"),
)


def load_traces(paths):
    """Merge any number of trace files into one wall-ordered event list.

    Returns ``(events, skipped)`` where ``skipped`` totals malformed lines
    across all files.
    """
    events = []
    skipped = 0
    for path in paths:
        part, bad = read_trace(path)
        events.extend(part)
        skipped += bad
    events.sort(key=lambda e: e.get("wall", 0))
    return events, skipped


# -- extraction ----------------------------------------------------------------


class TraceSummary:
    """Everything the three renderers need, extracted once."""

    def __init__(self, events, skipped=0):
        self.events = events
        self.skipped = skipped
        by_kind = {}
        for e in events:
            by_kind.setdefault(e.get("kind"), []).append(e)
        self.campaign = by_kind.get("campaign", [None])[0]
        self.progress = by_kind.get("worker_progress", [])
        self.syncs = by_kind.get("sync", [])
        self.restarts = by_kind.get("restart", [])
        self.dropped = by_kind.get("degraded", [])
        self.cells = by_kind.get("cell", [])
        self.cell_retries = by_kind.get("cell_retry", [])
        self.metrics = by_kind.get("metrics", [])
        self.plateau_events = by_kind.get("plateau", [])
        self.service = by_kind.get("service", [])
        self.taint = by_kind.get("taint", [])
        self.concolic = by_kind.get("concolic", [])
        self.wall0 = min((e.get("wall", 0) for e in events), default=0)

    def title(self):
        c = self.campaign
        if c:
            return "%s/%s#%s" % (c.get("subject"), c.get("config"), c.get("run_seed"))
        labels = {e.get("label") for e in self.metrics if e.get("label")}
        return sorted(labels)[0] if labels else "campaign"

    def coverage_series(self):
        """{series label: [(tick, coverage), ...]} from progress or metrics."""
        series = {}
        for e in self.progress:
            series.setdefault("w%s" % e.get("worker", 0), []).append(
                (e.get("tick", 0), e.get("coverage", 0))
            )
        if not series:
            for e in self.metrics:
                coverage = (e.get("metrics") or {}).get("gauges", {}).get("coverage")
                if coverage is None:
                    continue
                label = e.get("label") or "campaign"
                series.setdefault(label, []).append((e.get("tick", 0), coverage))
        return {k: sorted(v) for k, v in series.items() if len(v) >= 2}

    def rate_series(self):
        """{series label: [(tick, execs per wall second), ...]}."""
        raw = {}
        for e in self.progress:
            raw.setdefault("w%s" % e.get("worker", 0), []).append(
                (e.get("tick", 0), e.get("wall", 0), e.get("execs", 0))
            )
        if not raw:
            for e in self.metrics:
                execs = (e.get("metrics") or {}).get("counters", {}).get("execs")
                if execs is None:
                    continue
                label = e.get("label") or "campaign"
                raw.setdefault(label, []).append(
                    (e.get("tick", 0), e.get("wall", 0), execs)
                )
        series = {}
        for label, samples in raw.items():
            samples.sort()
            points = []
            for (t0, w0, x0), (t1, w1, x1) in zip(samples, samples[1:]):
                if w1 <= w0:
                    continue
                delta = x1 - x0 if x1 >= x0 else x1  # resume boundary
                points.append((t1, delta / (w1 - w0)))
            if points:
                series[label] = points
        return series

    def totals(self):
        """Headline numbers for stat tiles and the TTY summary."""
        execs = crashes = coverage = queue = 0
        for label, samples in sorted(self._latest_progress().items()):
            e = samples
            execs += e.get("execs", 0)
            crashes += e.get("crashes", 0)
            coverage = max(coverage, e.get("coverage", 0))
            queue += e.get("queue", 0)
        if not self.progress:
            for e in self.metrics:
                m = e.get("metrics") or {}
                execs = max(execs, m.get("counters", {}).get("execs", 0))
                coverage = max(coverage, m.get("gauges", {}).get("coverage", 0))
                crashes = max(crashes, m.get("gauges", {}).get("crash_count", 0))
                queue = max(queue, m.get("gauges", {}).get("queue_size", 0))
        return {
            "execs": execs,
            "crashes": crashes,
            "coverage": coverage,
            "queue": queue,
            "restarts": len(self.restarts),
            "dropped": len(self.dropped),
            "plateaus": len(
                [e for e in self.plateau_events if e.get("phase") == "begin"]
            ),
            "syncs": len(self.syncs),
            "cells": len(self.cells),
        }

    def _latest_progress(self):
        latest = {}
        for e in self.progress:
            latest["w%s" % e.get("worker", 0)] = e
        return latest

    def plateaus(self):
        """[(start_tick, end_tick or None, value)] paired from begin/end."""
        out = []
        open_by_start = {}
        for e in self.plateau_events:
            key = (e.get("label"), e.get("metric"), e.get("start_tick"))
            if e.get("phase") == "begin":
                open_by_start[key] = [e.get("start_tick"), None, e.get("value")]
                out.append(open_by_start[key])
            elif key in open_by_start:
                open_by_start[key][1] = e.get("tick")
        return [tuple(p) for p in out]

    def span_table(self):
        """Last metrics snapshot's span histograms: [(name, n, mean, p95)]."""
        rows = {}
        for e in self.metrics:
            for name, h in (e.get("metrics") or {}).get("histograms", {}).items():
                rows[name] = (h.get("count", 0), h.get("mean", 0), h.get("p95", 0))
        return [(name,) + rows[name] for name in sorted(rows)]

    def taint_stats(self):
        """Taint-guided stage summary, or None when the subsystem was off.

        Combines the per-target :class:`TaintEvent` stream (sites, rarity,
        mask sizes) with the ``taint.*`` counters of the last metrics
        snapshot (masked executions and branch-flip hits).
        """
        masked_execs = masked_hits = targets = 0
        for e in self.metrics:
            counters = (e.get("metrics") or {}).get("counters", {})
            masked_execs = max(masked_execs, counters.get("taint.masked_execs", 0))
            masked_hits = max(masked_hits, counters.get("taint.masked_hits", 0))
            targets = max(targets, counters.get("taint.targets", 0))
        if not self.taint and not masked_execs and not targets:
            return None
        focus_sizes = [e.get("focus", 0) for e in self.taint]
        return {
            "targets": max(targets, len(self.taint)),
            "masked_execs": masked_execs,
            "masked_hits": masked_hits,
            "hit_rate": masked_hits / masked_execs if masked_execs else 0.0,
            "mean_focus": (
                sum(focus_sizes) / len(focus_sizes) if focus_sizes else 0.0
            ),
        }

    def taint_targets(self, limit=12):
        """Most recent target selections as table rows (rarest first)."""
        rows = [
            (
                e.get("rarity", 0),
                e.get("index", 0),
                e.get("site", "?"),
                e.get("focus", 0),
                e.get("frozen", 0),
                e.get("tick", 0),
            )
            for e in self.taint
        ]
        rows.sort()
        return rows[:limit]

    def concolic_stats(self):
        """Concolic-stage summary, or None when the subsystem was off.

        Combines the per-attempt :class:`ConcolicEvent` stream with the
        ``concolic.*`` counters of the last metrics snapshot.
        """
        attempts = solved = flips = 0
        for e in self.metrics:
            counters = (e.get("metrics") or {}).get("counters", {})
            attempts = max(attempts, counters.get("concolic.attempts", 0))
            solved = max(solved, counters.get("concolic.solved", 0))
            flips = max(flips, counters.get("concolic.flips", 0))
        if not self.concolic and not attempts:
            return None
        attempts = max(attempts, len(self.concolic))
        solved = max(solved, len([e for e in self.concolic if e.get("solved")]))
        flips = max(flips, len([e for e in self.concolic if e.get("flipped")]))
        supports = [e.get("support", 0) for e in self.concolic]
        return {
            "attempts": attempts,
            "solved": solved,
            "flips": flips,
            "solve_rate": solved / attempts if attempts else 0.0,
            "mean_support": (
                sum(supports) / len(supports) if supports else 0.0
            ),
        }

    def concolic_attempts(self, limit=12):
        """Most recent solve attempts as table rows (rarest branch first)."""
        rows = [
            (
                e.get("rarity", 0),
                e.get("index", 0),
                e.get("site", "?"),
                e.get("support", 0),
                e.get("nodes", 0),
                outcome_label(e.get("solved"), e.get("flipped")),
                e.get("tick", 0),
            )
            for e in self.concolic
        ]
        rows.sort()
        return rows[:limit]

    def fault_timeline(self):
        """[(seconds since trace start, label)] for restarts/drops/retries."""
        out = []
        for e in self.restarts:
            out.append(
                (e.get("wall", 0) - self.wall0,
                 "restart w%s #%s" % (e.get("worker"), e.get("attempt")))
            )
        for e in self.dropped:
            label = "dropped w%s" % e.get("worker")
            if e.get("cause") and e.get("cause") != "unknown":
                label += " (%s)" % e.get("cause")
            out.append((e.get("wall", 0) - self.wall0, label))
        for e in self.service:
            if e.get("action") in ("retry", "degrade", "breaker", "recover",
                                   "fenced", "intake", "refuse", "compact"):
                out.append(
                    (e.get("wall", 0) - self.wall0,
                     "service %s %s" % (e.get("action"), e.get("job") or ""))
                )
        for e in self.cell_retries:
            out.append(
                (e.get("wall", 0) - self.wall0,
                 "cell retry %s #%s" % (e.get("key"), e.get("attempt")))
            )
        return sorted(out)


# -- TTY -----------------------------------------------------------------------


def summarize(events, skipped=0):
    """Human-readable multi-line summary of a trace (the TTY report)."""
    s = TraceSummary(events, skipped)
    totals = s.totals()
    lines = ["campaign %s" % s.title()]
    lines.append(
        "  execs %d, coverage %d, queue %d, crashes %d"
        % (totals["execs"], totals["coverage"], totals["queue"], totals["crashes"])
    )
    if totals["syncs"]:
        offered = sum(e.get("offered", 0) for e in s.syncs)
        accepted = sum(e.get("accepted", 0) for e in s.syncs)
        lines.append(
            "  syncs: %d rounds, %d offered, %d accepted"
            % (totals["syncs"], offered, accepted)
        )
    if totals["restarts"] or totals["dropped"]:
        lines.append(
            "  supervision: %d restart(s), %d worker(s) dropped"
            % (totals["restarts"], totals["dropped"])
        )
    for start, end, value in s.plateaus():
        span = "open" if end is None else "%d ticks" % (end - start)
        lines.append(
            "  plateau: coverage %d flat from tick %d (%s)" % (value, start, span)
        )
    taint = s.taint_stats()
    if taint:
        lines.append(
            "  taint: %d target(s), %d masked exec(s), hit rate %.1f%%, "
            "mean focus %.1fB"
            % (
                taint["targets"],
                taint["masked_execs"],
                taint["hit_rate"] * 100.0,
                taint["mean_focus"],
            )
        )
    concolic = s.concolic_stats()
    if concolic:
        lines.append(
            "  concolic: %d solve attempt(s), %d solved, %d branch flip(s), "
            "mean support %.1fB"
            % (
                concolic["attempts"],
                concolic["solved"],
                concolic["flips"],
                concolic["mean_support"],
            )
        )
    for name, count, mean, p95 in s.span_table():
        lines.append(
            "  %-16s n=%-7d mean=%.3gms p95=%.3gms"
            % (name, count, mean * 1e3, p95 * 1e3)
        )
    if totals["cells"]:
        ok = len([e for e in s.cells if e.get("status") == "ok"])
        lines.append("  matrix: %d/%d cells ok" % (ok, totals["cells"]))
    if skipped:
        lines.append("  (%d malformed trace line(s) skipped)" % skipped)
    return lines


def tail_lines(events):
    """One formatted line per event (the ``--follow`` view)."""
    return [format_event_line(e) for e in events]


# -- markdown ------------------------------------------------------------------


def render_markdown(events, skipped=0):
    s = TraceSummary(events, skipped)
    totals = s.totals()
    out = ["# Campaign report — %s" % s.title(), ""]
    out.append("| metric | value |")
    out.append("|---|---|")
    for key in ("execs", "coverage", "queue", "crashes", "restarts", "plateaus"):
        out.append("| %s | %d |" % (key, totals[key]))
    out.append("")
    plateaus = s.plateaus()
    if plateaus:
        out.append("## Coverage plateaus")
        out.append("")
        out.append("| start tick | end tick | coverage |")
        out.append("|---|---|---|")
        for start, end, value in plateaus:
            out.append("| %d | %s | %d |" % (start, end if end is not None else "open", value))
        out.append("")
    taint = s.taint_stats()
    if taint:
        out.append("## Taint-guided targeting")
        out.append("")
        out.append(
            "%d target(s) selected, %d masked execution(s), "
            "branch-flip hit rate %.1f%%, mean focus mask %.1f bytes."
            % (
                taint["targets"],
                taint["masked_execs"],
                taint["hit_rate"] * 100.0,
                taint["mean_focus"],
            )
        )
        out.append("")
        rows = s.taint_targets()
        if rows:
            out.append("| rarity | map index | site | focus (B) | frozen (B) | tick |")
            out.append("|---|---|---|---|---|---|")
            for rarity, index, site, focus, frozen, tick in rows:
                out.append(
                    "| %d | %d | %s | %d | %d | %d |"
                    % (rarity, index, site, focus, frozen, tick)
                )
            out.append("")
    concolic = s.concolic_stats()
    if concolic:
        out.append("## Concolic escalation")
        out.append("")
        out.append(
            "%d solve attempt(s), %d solved (%.1f%%), %d branch flip(s), "
            "mean support %.1f bytes."
            % (
                concolic["attempts"],
                concolic["solved"],
                concolic["solve_rate"] * 100.0,
                concolic["flips"],
                concolic["mean_support"],
            )
        )
        out.append("")
        rows = s.concolic_attempts()
        if rows:
            out.append(
                "| rarity | map index | site | support (B) | nodes | outcome | tick |"
            )
            out.append("|---|---|---|---|---|---|---|")
            for rarity, index, site, support, nodes, outcome, tick in rows:
                out.append(
                    "| %d | %d | %s | %d | %d | %s | %d |"
                    % (rarity, index, site, support, nodes, outcome, tick)
                )
            out.append("")
    spans = s.span_table()
    if spans:
        out.append("## Stage timings")
        out.append("")
        out.append("| span | count | mean (ms) | p95 (ms) |")
        out.append("|---|---|---|---|")
        for name, count, mean, p95 in spans:
            out.append("| %s | %d | %.3g | %.3g |" % (name, count, mean * 1e3, p95 * 1e3))
        out.append("")
    faults = s.fault_timeline()
    if faults:
        out.append("## Restart / fault timeline")
        out.append("")
        out.append("| t (s) | event |")
        out.append("|---|---|")
        for secs, label in faults:
            out.append("| %.1f | %s |" % (secs, label))
        out.append("")
    if skipped:
        out.append("_%d malformed trace line(s) skipped._" % skipped)
        out.append("")
    return "\n".join(out)


# -- SVG helpers ---------------------------------------------------------------


def _scale(points, x0, x1, y0, y1, width, height, pad):
    xs = (width - 2 * pad) / (x1 - x0 or 1)
    ys = (height - 2 * pad) / (y1 - y0 or 1)
    return [
        (pad + (x - x0) * xs, height - pad - (y - y0) * ys) for x, y in points
    ]


def _line_chart(series, title, x_label, y_label, width=640, height=280):
    """Inline-SVG multi-series line chart with legend and direct labels."""
    pad = 42
    all_points = [p for pts in series.values() for p in pts]
    if not all_points:
        return "<p class='muted'>no data for %s</p>" % _esc(title)
    x0 = min(p[0] for p in all_points)
    x1 = max(p[0] for p in all_points)
    y0 = 0
    y1 = max(p[1] for p in all_points) or 1
    parts = [
        "<figure><figcaption>%s</figcaption>" % _esc(title),
        "<svg viewBox='0 0 %d %d' role='img' aria-label='%s'>"
        % (width, height, _esc(title)),
    ]
    # Recessive grid: four horizontal rules + y tick labels.
    for i in range(5):
        y = pad + i * (height - 2 * pad) / 4.0
        value = y1 - i * (y1 - y0) / 4.0
        parts.append(
            "<line x1='%d' y1='%.1f' x2='%d' y2='%.1f' class='grid'/>"
            % (pad, y, width - pad, y)
        )
        parts.append(
            "<text x='%d' y='%.1f' class='tick' text-anchor='end'>%s</text>"
            % (pad - 6, y + 4, _fmt_num(value))
        )
    for frac in (0.0, 0.5, 1.0):
        x = pad + frac * (width - 2 * pad)
        parts.append(
            "<text x='%.1f' y='%d' class='tick' text-anchor='middle'>%s</text>"
            % (x, height - pad + 16, _fmt_num(x0 + frac * (x1 - x0)))
        )
    parts.append(
        "<text x='%d' y='%d' class='axis' text-anchor='middle'>%s</text>"
        % (width // 2, height - 6, _esc(x_label))
    )
    names = sorted(series)
    shown = names[:8]
    for idx, name in enumerate(shown):
        pts = _scale(sorted(series[name]), x0, x1, y0, y1, width, height, pad)
        path = " ".join("%.1f,%.1f" % p for p in pts)
        parts.append(
            "<polyline points='%s' class='series s%d' fill='none'/>" % (path, idx)
        )
        lx, ly = pts[-1]
        if len(shown) > 1 and idx < 4:
            parts.append(
                "<text x='%.1f' y='%.1f' class='label s%d-ink'>%s</text>"
                % (min(lx + 4, width - pad + 4), ly + 4, idx, _esc(name))
            )
    parts.append("</svg>")
    if len(shown) > 1:
        legend = "".join(
            "<span class='key'><span class='swatch s%d-bg'></span>%s</span>"
            % (idx, _esc(name))
            for idx, name in enumerate(shown)
        )
        more = "" if len(names) <= 8 else " <span class='muted'>(+%d more)</span>" % (
            len(names) - 8
        )
        parts.append("<div class='legend'>%s%s</div>" % (legend, more))
    parts.append("</figure>")
    return "".join(parts)


def _fmt_num(value):
    if value >= 1_000_000:
        return "%.1fM" % (value / 1_000_000)
    if value >= 10_000:
        return "%.0fk" % (value / 1000)
    if value == int(value):
        return "%d" % value
    return "%.1f" % value


def _esc(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("'", "&#39;")
    )


_HTML_STYLE = """
:root { color-scheme: light dark; }
.viz {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --grid: #e4e3df;
  --s0: #2a78d6; --s1: #eb6834; --s2: #1baf7a; --s3: #eda100;
  --s4: #e87ba4; --s5: #008300; --s6: #4a3aa7; --s7: #e34948;
  background: var(--surface); color: var(--ink);
  font: 14px/1.5 system-ui, sans-serif; max-width: 760px;
  margin: 0 auto; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7; --grid: #33332f;
    --s0: #3987e5; --s1: #d95926; --s2: #199e70; --s3: #c98500;
    --s4: #d55181; --s5: #008300; --s6: #9085e9; --s7: #e66767;
  }
}
.viz h1 { font-size: 20px; } .viz h2 { font-size: 16px; margin-top: 28px; }
.viz .muted { color: var(--ink-2); }
.viz .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.viz .tile { border: 1px solid var(--grid); border-radius: 8px;
  padding: 10px 14px; min-width: 104px; }
.viz .tile b { display: block; font-size: 22px; }
.viz .tile span { color: var(--ink-2); font-size: 12px; }
.viz figure { margin: 16px 0; }
.viz figcaption { color: var(--ink-2); margin-bottom: 4px; }
.viz svg { width: 100%; height: auto; }
.viz .grid { stroke: var(--grid); stroke-width: 1; }
.viz .tick, .viz .axis, .viz .label { fill: var(--ink-2); font-size: 11px; }
.viz .label { font-weight: 600; }
.viz .series { stroke-width: 2; stroke-linejoin: round; }
.viz .s0 { stroke: var(--s0); } .viz .s1 { stroke: var(--s1); }
.viz .s2 { stroke: var(--s2); } .viz .s3 { stroke: var(--s3); }
.viz .s4 { stroke: var(--s4); } .viz .s5 { stroke: var(--s5); }
.viz .s6 { stroke: var(--s6); } .viz .s7 { stroke: var(--s7); }
.viz .s0-ink { fill: var(--s0); } .viz .s1-ink { fill: var(--s1); }
.viz .s2-ink { fill: var(--s2); } .viz .s3-ink { fill: var(--s3); }
.viz .s0-bg { background: var(--s0); } .viz .s1-bg { background: var(--s1); }
.viz .s2-bg { background: var(--s2); } .viz .s3-bg { background: var(--s3); }
.viz .s4-bg { background: var(--s4); } .viz .s5-bg { background: var(--s5); }
.viz .s6-bg { background: var(--s6); } .viz .s7-bg { background: var(--s7); }
.viz .legend { display: flex; flex-wrap: wrap; gap: 10px; font-size: 12px; }
.viz .key { display: inline-flex; align-items: center; gap: 4px; }
.viz .swatch { width: 10px; height: 10px; border-radius: 2px;
  display: inline-block; }
.viz table { border-collapse: collapse; width: 100%; margin: 8px 0; }
.viz th, .viz td { border-bottom: 1px solid var(--grid); text-align: left;
  padding: 4px 8px; font-variant-numeric: tabular-nums; }
.viz th { color: var(--ink-2); font-weight: 600; }
"""


def render_html(events, skipped=0):
    """Self-contained static HTML campaign report."""
    s = TraceSummary(events, skipped)
    totals = s.totals()
    body = ["<h1>Campaign report — %s</h1>" % _esc(s.title())]
    tiles = (
        ("executions", totals["execs"]),
        ("edge coverage", totals["coverage"]),
        ("queue", totals["queue"]),
        ("crashes", totals["crashes"]),
        ("restarts", totals["restarts"]),
        ("plateaus", totals["plateaus"]),
    )
    body.append(
        "<div class='tiles'>%s</div>"
        % "".join(
            "<div class='tile'><b>%s</b><span>%s</span></div>"
            % (_fmt_num(value), _esc(name))
            for name, value in tiles
        )
    )
    coverage = s.coverage_series()
    body.append("<h2>Coverage over virtual time</h2>")
    body.append(
        _line_chart(coverage, "edge coverage by virtual tick", "virtual ticks",
                    "coverage")
    )
    body.append(_series_table(coverage, "tick", "coverage"))
    rates = s.rate_series()
    body.append("<h2>Throughput per worker</h2>")
    body.append(
        _line_chart(rates, "executions per wall second", "virtual ticks",
                    "execs/s")
    )
    body.append(_series_table(rates, "tick", "execs/s"))
    plateaus = s.plateaus()
    if plateaus:
        body.append("<h2>Coverage plateaus</h2><table>")
        body.append(
            "<tr><th>start tick</th><th>end tick</th><th>coverage</th></tr>"
        )
        for start, end, value in plateaus:
            body.append(
                "<tr><td>%s</td><td>%s</td><td>%s</td></tr>"
                % (start, "open" if end is None else end, value)
            )
        body.append("</table>")
    taint = s.taint_stats()
    if taint:
        body.append("<h2>Taint-guided targeting</h2>")
        body.append(
            "<p>%d target(s) selected, %d masked execution(s), branch-flip "
            "hit rate %.1f%%, mean focus mask %.1f bytes.</p>"
            % (
                taint["targets"],
                taint["masked_execs"],
                taint["hit_rate"] * 100.0,
                taint["mean_focus"],
            )
        )
        rows = s.taint_targets()
        if rows:
            body.append(
                "<table><tr><th>rarity</th><th>map index</th><th>site</th>"
                "<th>focus (B)</th><th>frozen (B)</th><th>tick</th></tr>"
            )
            for rarity, index, site, focus, frozen, tick in rows:
                body.append(
                    "<tr><td>%d</td><td>%d</td><td>%s</td><td>%d</td>"
                    "<td>%d</td><td>%d</td></tr>"
                    % (rarity, index, _esc(site), focus, frozen, tick)
                )
            body.append("</table>")
    concolic = s.concolic_stats()
    if concolic:
        body.append("<h2>Concolic escalation</h2>")
        body.append(
            "<p>%d solve attempt(s), %d solved (%.1f%%), %d branch "
            "flip(s), mean support %.1f bytes.</p>"
            % (
                concolic["attempts"],
                concolic["solved"],
                concolic["solve_rate"] * 100.0,
                concolic["flips"],
                concolic["mean_support"],
            )
        )
        rows = s.concolic_attempts()
        if rows:
            body.append(
                "<table><tr><th>rarity</th><th>map index</th><th>site</th>"
                "<th>support (B)</th><th>nodes</th><th>outcome</th>"
                "<th>tick</th></tr>"
            )
            for rarity, index, site, support, nodes, outcome, tick in rows:
                body.append(
                    "<tr><td>%d</td><td>%d</td><td>%s</td><td>%d</td>"
                    "<td>%d</td><td>%s</td><td>%d</td></tr>"
                    % (rarity, index, _esc(site), support, nodes, outcome, tick)
                )
            body.append("</table>")
    spans = s.span_table()
    if spans:
        body.append("<h2>Stage timings</h2><table>")
        body.append(
            "<tr><th>span</th><th>count</th><th>mean (ms)</th><th>p95 (ms)</th></tr>"
        )
        for name, count, mean, p95 in spans:
            body.append(
                "<tr><td>%s</td><td>%d</td><td>%.3g</td><td>%.3g</td></tr>"
                % (_esc(name), count, mean * 1e3, p95 * 1e3)
            )
        body.append("</table>")
    faults = s.fault_timeline()
    body.append("<h2>Restart / fault timeline</h2>")
    if faults:
        body.append("<table><tr><th>t (s)</th><th>event</th></tr>")
        for secs, label in faults:
            body.append("<tr><td>%.1f</td><td>%s</td></tr>" % (secs, _esc(label)))
        body.append("</table>")
    else:
        body.append("<p class='muted'>no restarts or faults recorded</p>")
    if skipped:
        body.append(
            "<p class='muted'>%d malformed trace line(s) skipped</p>" % skipped
        )
    return (
        "<!doctype html><html><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        "<title>%s</title><style>%s</style></head>"
        "<body class='viz'>%s</body></html>"
        % (_esc("repro campaign report"), _HTML_STYLE, "".join(body))
    )


def _series_table(series, x_name, y_name, limit=12):
    """Accessible data table backing a chart (subsampled, final row kept)."""
    if not series:
        return ""
    rows = ["<details><summary class='muted'>data table</summary><table>"]
    rows.append(
        "<tr><th>series</th><th>%s</th><th>%s</th></tr>"
        % (_esc(x_name), _esc(y_name))
    )
    for name in sorted(series):
        points = sorted(series[name])
        step = max(1, len(points) // limit)
        sampled = points[::step]
        if points[-1] not in sampled:
            sampled.append(points[-1])
        for x, y in sampled:
            rows.append(
                "<tr><td>%s</td><td>%s</td><td>%s</td></tr>"
                % (_esc(name), _fmt_num(x), _fmt_num(y))
            )
    rows.append("</table></details>")
    return "".join(rows)


def render_report(paths, html_path=None, markdown_path=None):
    """Load traces and render every requested artifact.

    Returns the TTY summary lines; writes HTML/markdown files when paths
    are given.
    """
    events, skipped = load_traces(paths)
    if html_path:
        with open(html_path, "w", encoding="utf-8") as handle:
            handle.write(render_html(events, skipped))
    if markdown_path:
        with open(markdown_path, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(events, skipped))
    return summarize(events, skipped)
