"""CLI tests."""

import pytest

from repro.cli import main


def test_list_prints_all_subjects(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("cflow", "pdftotext", "motivating"):
        assert name in out


def test_show_prints_census(capsys):
    assert main(["show", "gdk"]) == 0
    out = capsys.readouterr().out
    assert "bug census" in out
    assert "scale_row" in out
    assert "functions" in out


def test_show_rare_lists_branch_edges(capsys):
    assert main(["show", "gdk", "--rare", "--limit", "6"]) == 0
    out = capsys.readouterr().out
    assert "rare branch edges" in out
    assert "idx=" in out
    assert "load_bmp" in out


def test_show_rare_taint_adds_byte_masks(capsys):
    assert main(["show", "gdk", "--rare", "--taint", "--limit", "6"]) == 0
    out = capsys.readouterr().out
    assert "bytes=" in out
    assert "bytes=4-5" in out  # load_bmp width field (read_u16le(input, 4))


def test_show_taint_without_rare_is_a_hint(capsys):
    assert main(["show", "gdk", "--taint"]) == 0
    out = capsys.readouterr().out
    assert "--taint only applies together with --rare" in out


def test_fuzz_taint_config_runs(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["fuzz", "gdk", "--config", "taint",
                 "--hours", "0.5", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "executions:" in out


def test_fuzz_runs_short_campaign(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert main(["fuzz", "flvmeta", "--config", "pcguard",
                 "--hours", "0.5", "--scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "executions:" in out
    assert "queue:" in out


def test_unknown_subject_rejected():
    with pytest.raises(SystemExit):
        main(["show", "nonexistent"])


def test_unknown_config_rejected():
    with pytest.raises(SystemExit):
        main(["fuzz", "gdk", "--config", "nope"])


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_fuzz_output_writes_workspace(tmp_path, capsys, monkeypatch):
    import os

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    out = str(tmp_path / "out")
    assert main(["fuzz", "gdk", "--config", "path", "--hours", "0.5",
                 "--scale", "0.5", "--output", out]) == 0
    stdout = capsys.readouterr().out
    assert "campaign workspace:" in stdout
    main_dir = os.path.join(out, "main")
    assert os.path.isdir(os.path.join(main_dir, "queue"))
    assert os.listdir(os.path.join(main_dir, "queue"))
    assert os.path.exists(os.path.join(main_dir, "fuzzer_stats"))
    assert os.path.exists(os.path.join(main_dir, "manifest.json"))
    assert not os.path.exists(os.path.join(main_dir, "LOCK"))  # released
    # and the workspace resumes
    assert main(["fuzz", "gdk", "--config", "path", "--hours", "0.5",
                 "--scale", "0.5", "--resume-dir", out]) == 0


def test_fuzz_resume_dir_requires_existing_workspace(tmp_path):
    with pytest.raises(SystemExit):
        main(["fuzz", "gdk", "--resume-dir", str(tmp_path / "missing")])


def _gdk_checkpoint(tmp_path):
    path = str(tmp_path / "c.ckpt")
    assert main(["fuzz", "gdk", "--hours", "0.1", "--scale", "0.5",
                 "--checkpoint", path]) == 0
    return path


@pytest.mark.parametrize("damage", ["foreign", "corrupt"])
def test_fuzz_resume_fails_on_refused_checkpoint(tmp_path, capsys, monkeypatch,
                                                 damage):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    path = _gdk_checkpoint(tmp_path)
    if damage == "corrupt":
        with open(path, "r+b") as handle:
            handle.truncate(40)
        subject, reason = "gdk", "CheckpointCorruptError"
    else:
        subject, reason = "jq", "CheckpointStaleError"
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", subject, "--hours", "0.1", "--scale", "0.5",
              "--resume", path])
    assert excinfo.value.code not in (0, None)
    assert "refused checkpoint" in str(excinfo.value.code)
    assert reason in str(excinfo.value.code)
    assert "executions:" not in capsys.readouterr().out


def test_fuzz_checkpoint_warns_on_refused_checkpoint_and_starts_fresh(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    path = _gdk_checkpoint(tmp_path)
    capsys.readouterr()
    assert main(["fuzz", "jq", "--hours", "0.1", "--scale", "0.5"]) == 0
    fresh = capsys.readouterr().out
    assert main(["fuzz", "jq", "--hours", "0.1", "--scale", "0.5",
                 "--checkpoint", path]) == 0
    out = capsys.readouterr().out
    warnings = [line for line in out.splitlines() if line.startswith("WARNING")]
    assert len(warnings) == 1
    assert warnings[0].startswith("WARNING: refused checkpoint %s" % path)
    assert "CheckpointStaleError" in warnings[0]
    assert warnings[0].endswith("; started fresh")
    assert out.replace(warnings[0] + "\n", "") == fresh


def test_fuzz_output_and_resume_dir_must_agree(tmp_path):
    with pytest.raises(SystemExit):
        main(["fuzz", "gdk", "--output", "a", "--resume-dir", "b"])


def test_cmin_minimizes_store_queue(tmp_path, capsys, monkeypatch):
    import os

    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    out = str(tmp_path / "out")
    assert main(["fuzz", "flvmeta", "--config", "pcguard", "--hours", "0.5",
                 "--scale", "0.5", "--output", out]) == 0
    capsys.readouterr()
    queue_dir = os.path.join(out, "main", "queue")
    minimized = str(tmp_path / "min")
    assert main(["cmin", "flvmeta", queue_dir, minimized]) == 0
    stdout = capsys.readouterr().out
    assert "minimized" in stdout
    kept = os.listdir(minimized)
    assert 0 < len(kept) <= len(os.listdir(queue_dir))
    # minimized artifacts keep the self-verifying naming scheme
    from repro.fuzzer.store import content_hash, parse_sealed_name

    for name in kept:
        seq, _sig, digest = parse_sealed_name(name, "id")
        with open(os.path.join(minimized, name), "rb") as handle:
            assert content_hash(handle.read()) == digest


def test_cmin_rejects_missing_input_dir(tmp_path):
    with pytest.raises(SystemExit):
        main(["cmin", "flvmeta", str(tmp_path / "nope"), str(tmp_path / "o")])


def test_show_constraints_prints_seed_path_conditions(capsys):
    assert main(["show", "gdk", "--constraints", "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "symbolic constraint(s)" in out
    assert "byte[0]" in out


def test_solve_flips_subject_guard(tmp_path, capsys):
    path = str(tmp_path / "input.bin")
    with open(path, "wb") as handle:
        handle.write(b"MAGC\x00\x00")
    assert main(["solve", "gdk", path]) == 0
    out = capsys.readouterr().out
    assert "symbolic constraint(s)" in out
    assert "flipped with byte[0]=80" in out


def test_solve_json_reports_verified_witness(tmp_path, capsys):
    import json

    path = str(tmp_path / "input.bin")
    with open(path, "wb") as handle:
        handle.write(b"MAGC\x00\x00")
    assert main(["solve", "gdk", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "gdk"
    rows = payload["constraints"]
    assert rows and rows[0]["witness"]["assignment"] == {"0": 80}


def test_solve_source_file_target(tmp_path, capsys):
    source = str(tmp_path / "prog.minic")
    with open(source, "w") as handle:
        handle.write(
            "fn main(input) {\n"
            "    if (len(input) < 1) { return 0; }\n"
            "    if (input[0] * 3 == 96) { trap(1); }\n"
            "    return 1;\n"
            "}\n"
        )
    path = str(tmp_path / "input.bin")
    with open(path, "wb") as handle:
        handle.write(b"\x00")
    assert main(["solve", source, path]) == 0
    out = capsys.readouterr().out
    assert "flipped with byte[0]=32" in out
    assert "TRAP" in out


def test_solve_rejects_unknown_target(tmp_path):
    path = str(tmp_path / "input.bin")
    with open(path, "wb") as handle:
        handle.write(b"x")
    with pytest.raises(SystemExit):
        main(["solve", "no-such-subject", path])
