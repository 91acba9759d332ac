"""Runner profile/environment handling tests."""

import os

from repro.experiments.runner import (
    _source_fingerprint,
    profile_runs,
    profile_scale,
    profile_subjects,
)
from repro.subjects import subject_names


def test_default_profile(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_RUNS", raising=False)
    monkeypatch.delenv("REPRO_SUBJECTS", raising=False)
    assert profile_scale() == 0.25
    assert profile_runs() == 3
    assert profile_subjects() == subject_names()


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.5")
    monkeypatch.setenv("REPRO_RUNS", "7")
    monkeypatch.setenv("REPRO_SUBJECTS", "cflow, gdk ,mujs")
    assert profile_scale() == 2.5
    assert profile_runs() == 7
    assert profile_subjects() == ["cflow", "gdk", "mujs"]


def test_source_fingerprint_stable_within_process():
    assert _source_fingerprint() == _source_fingerprint()
    assert len(_source_fingerprint()) == 16


def test_result_cache_write_round_trips_without_temp_files(monkeypatch, tmp_path):
    from repro.experiments import runner

    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_DIR", raising=False)
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.setattr(runner, "_cache_dir", lambda: str(tmp_path))
    monkeypatch.setattr(runner, "_MEMORY_CACHE", {})
    monkeypatch.setattr(
        runner, "run_config", lambda *args, **kwargs: {"edges": 7, "args": args[1:3]}
    )
    first = runner.campaign("flvmeta", "pcguard", 3, 1.0, scale=0.01)
    (written,) = os.listdir(tmp_path)
    assert written.endswith(".pkl")

    def no_rerun(*args, **kwargs):
        raise AssertionError("a cached campaign ran again")

    monkeypatch.setattr(runner, "_MEMORY_CACHE", {})
    monkeypatch.setattr(runner, "run_config", no_rerun)
    assert runner.campaign("flvmeta", "pcguard", 3, 1.0, scale=0.01) == first
    assert first == {"edges": 7, "args": ("pcguard", 3)}
    assert not [name for name in os.listdir(tmp_path) if ".tmp" in name]
