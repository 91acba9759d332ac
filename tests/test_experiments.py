"""Experiment-layer tests: configs, runner caching, table rendering.

These use a tiny profile (one small subject, minuscule budgets) so the whole
module stays fast; the real campaign matrix lives in benchmarks/.
"""

import pytest

from repro.experiments.config import FUZZER_CONFIGS, campaign_rng, run_config
from repro.experiments.runner import campaign
from repro.experiments.tables import geomean, median, render_table
from repro.subjects import get_subject

TINY = 0.02  # scale: 24 "hours" ~ 192k ticks


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def test_all_paper_configs_registered():
    for name in ("path", "pcguard", "cull", "opp", "pathafl", "afl", "cull_r"):
        assert name in FUZZER_CONFIGS


def test_campaign_rng_deterministic_and_distinct():
    a = campaign_rng("s", "c", 0).random()
    b = campaign_rng("s", "c", 0).random()
    c = campaign_rng("s", "c", 1).random()
    assert a == b
    assert a != c


@pytest.mark.parametrize("config_name", ["pcguard", "path", "cull", "opp", "pathafl", "afl", "cull_r", "ngram4", "block"])
def test_every_config_runs(config_name):
    subject = get_subject("flvmeta")
    result = run_config(subject, config_name, 0, budget_ticks=120_000)
    assert result.config_name == config_name
    assert result.execs > 0
    assert result.queue_size >= 1


def test_campaign_results_reproducible():
    subject = get_subject("flvmeta")
    a = run_config(subject, "path", 0, budget_ticks=150_000)
    b = run_config(subject, "path", 0, budget_ticks=150_000)
    assert a.bugs == b.bugs
    assert a.queue_size == b.queue_size
    assert a.execs == b.execs


def test_memory_cache_returns_same_object():
    a = campaign("flvmeta", "pcguard", 0, hours=1, scale=TINY)
    b = campaign("flvmeta", "pcguard", 0, hours=1, scale=TINY)
    assert a is b


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    import repro.experiments.runner as runner

    monkeypatch.setattr(runner, "_cache_dir", lambda: str(tmp_path))
    first = campaign("flvmeta", "pcguard", 1, hours=1, scale=TINY)
    runner._MEMORY_CACHE.clear()
    second = campaign("flvmeta", "pcguard", 1, hours=1, scale=TINY)
    assert first is not second
    assert first.bugs == second.bugs
    assert first.queue_size == second.queue_size


def test_render_table_alignment():
    text = render_table(["name", "n"], [["abc", 12], ["d", 3]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("name")
    assert set(lines[2]) <= {"-", " "}
    assert "abc" in lines[3]
    # numeric column right-aligned: both rows end at the same column
    assert lines[3].rstrip().endswith("12")
    assert lines[4].rstrip().endswith("3")
    assert len(lines[3].rstrip()) == len(lines[4].rstrip())


def test_median_lower_middle():
    assert median([4, 1, 3, 2]) == 2
    assert median([5]) == 5
    assert median([]) == 0


def test_geomean():
    assert abs(geomean([2, 8]) - 4.0) < 1e-9
    assert geomean([]) == 0.0


def test_opp_budget_split():
    subject = get_subject("flvmeta")
    result = run_config(subject, "opp", 0, budget_ticks=200_000)
    # ticks counted for opp cover only the path phase (~half the budget)
    assert result.ticks <= 140_000


def test_bench_row_reports_cold_codegen_outside_the_gate():
    from repro.experiments.bench import baseline_from_report, bench_subject, format_row

    row = bench_subject("flvmeta", repeats=1, min_seconds=0.01)
    assert row["codegen_s"] > 0
    assert "codegen %6.1f ms" % (row["codegen_s"] * 1e3) in format_row(row)
    report = {"feedback": "path", "subjects": [row], "geomean_speedup": 1.0}
    assert baseline_from_report(report)["speedups"] == {
        "flvmeta": round(row["speedup"], 3)
    }
