"""CLI surface: subcommands, exit codes, artifact locations."""

import json

import pytest

from lcpbridge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_capabilities_for_one_platform(capsys):
    code, out, _ = run_cli(capsys, "capabilities", "--platform", "mendix")
    assert code == 0
    assert "Mendix" in out
    assert "export" in out and "import" in out
    assert "JSON" in out and "XLSX" in out


def test_capabilities_lists_all_ten(capsys):
    code, out, _ = run_cli(capsys, "capabilities")
    assert code == 0
    for token in ("Mendix", "OutSystems", "PowerApps", "Appian", "ServiceNow",
                  "Salesforce", "Pegasystems", "Zoho", "ReTool", "Oracle Apex"):
        assert token in out


def test_unknown_platform_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "capabilities", "--platform", "excel")
    assert code == 1
    assert "UNKNOWN_PLATFORM" in err


def test_plan_prints_json(capsys):
    code, out, _ = run_cli(capsys, "plan", "--from", "mendix", "--to", "powerapps")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain"] == ["mendix-json", "workbook"]


def test_migrate_writes_expected_artifacts(tmp_path, capsys, mendix_library_path):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "migrate", "--from", "mendix", "--to", "powerapps",
        "--input", str(mendix_library_path), "--out", str(out_dir))
    assert code == 0
    for name in ("model.bml", "model.xlsx", "model.xlsx.manifest.json",
                 "loss-report.json"):
        assert (out_dir / name).exists(), name
        assert name in out
    assert "ASSOCIATIONS_UNKNOWN" in err


def test_migrate_without_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["migrate"])
    assert exit_info.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_help_on_every_subcommand(capsys):
    for sub in ("capabilities", "plan", "migrate", "import", "export", "validate"):
        with pytest.raises(SystemExit) as exit_info:
            main([sub, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


def test_validate_accepts_good_model(tmp_path, capsys):
    model_file = tmp_path / "m.bml"
    model_file.write_text("model M\nclass A {}\n")
    code, out, _ = run_cli(capsys, "validate", "--model", str(model_file))
    assert code == 0
    assert "ok" in out


def test_validate_rejects_bad_model(tmp_path, capsys):
    model_file = tmp_path / "m.bml"
    model_file.write_text("model M\nclass A {}\nclass A {}\n")
    code, _, err = run_cli(capsys, "validate", "--model", str(model_file))
    assert code == 1
    assert "DUPLICATE_CLASS_NAME" in err


def test_import_subcommand(tmp_path, capsys, mendix_library_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "import", "mendix-json",
                           "--input", str(mendix_library_path),
                           "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "model.bml").exists()


def test_export_subcommand_reads_what_import_wrote(tmp_path, capsys,
                                                   mendix_library_path):
    work = tmp_path / "work"
    run_cli(capsys, "import", "mendix-json", "--input", str(mendix_library_path),
            "--out", str(work))
    out_dir = tmp_path / "sql"
    code, out, _ = run_cli(capsys, "export", "apex-sql",
                           "--model", str(work / "model.bml"),
                           "--out", str(out_dir), "--dialect", "ansi")
    assert code == 0
    script = (out_dir / "model.sql").read_text()
    assert "CREATE TABLE" in script


def test_export_determinism_through_cli(tmp_path, capsys, mendix_library_path):
    work = tmp_path / "work"
    run_cli(capsys, "import", "mendix-json", "--input", str(mendix_library_path),
            "--out", str(work))
    for out_name in ("a", "b"):
        run_cli(capsys, "export", "workbook", "--model", str(work / "model.bml"),
                "--out", str(tmp_path / out_name))
    assert (tmp_path / "a" / "model.xlsx").read_bytes() == \
        (tmp_path / "b" / "model.xlsx").read_bytes()


def test_missing_input_is_domain_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "import", "mendix-json", "--out", str(tmp_path))
    assert code == 1
    assert "MISSING_INPUT" in err


@pytest.mark.parametrize("argv", [
    "validate --model {tmp}/missing.bml",
    "validate --model {tmp}",
    "export apex-sql --model {tmp}/missing.bml --out {tmp}/out",
    "migrate --from mendix --to powerapps --input {tmp}/missing.json --out {tmp}/out",
    "import plantuml --input {tmp}/missing.puml --out {tmp}/out",
    "import image-llm --image {tmp}/missing.png --llm-mode replay --replay-dir {tmp} "
    "--out {tmp}/out",
    "import tabular --input {tmp}/missing.csv --out {tmp}/out",
    "import tabular --input {tmp}/missing.xlsx --out {tmp}/out",
    "import tabular --input {tmp}/d.csv --out {tmp}/out",
], ids=["validate", "validate-directory", "export", "migrate-mendix", "import-plantuml",
        "import-image", "import-csv", "import-xlsx", "import-csv-directory"])
def test_unreadable_input_file_is_missing_input(tmp_path, capsys, argv):
    (tmp_path / "d.csv").mkdir()
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 1
    assert "error [MISSING_INPUT]: cannot read" in err


@pytest.mark.parametrize("argv, step, suffix", [
    ("migrate --from mendix --to apex --out {tmp}/out --input", "mendix-json", ".json"),
    ("import plantuml --out {tmp}/out --input", "plantuml", ".puml"),
], ids=["migrate-mendix", "import-plantuml"])
@pytest.mark.parametrize("order", ["ab", "ba"])
def test_a_second_file_for_a_one_document_step_is_missing_input(tmp_path, capsys,
                                                                 mendix_library_path, argv,
                                                                 step, suffix, order):
    """A Mendix export or a PlantUML text holds a whole model: a second file
    of that format is refused whichever comes first, and nothing is read."""
    good = mendix_library_path.read_text(encoding="utf-8") if suffix == ".json" \
        else "@startuml\nclass Book\n@enduml\n"
    (tmp_path / f"a{suffix}").write_text(good, encoding="utf-8")
    (tmp_path / f"b{suffix}").write_text("{bad", encoding="utf-8")
    paths = [str(tmp_path / f"{name}{suffix}") for name in order]
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split(), *paths)
    assert code == 1
    assert err.splitlines()[-2:] == [
        f"error [MISSING_INPUT]: step '{step}' reads one input file, not 2: "
        f"{', '.join(paths)}", f"  in step '{step}'"]
    assert not (tmp_path / "out").exists()


def test_a_chain_without_image_llm_builds_no_vision_client(tmp_path, capsys, csv_paths,
                                                          monkeypatch):
    """Live mode with no endpoint is a configuration error only for a chain
    that asks a vision model."""
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "import", "tabular", "--input", *map(str, csv_paths),
                             "--llm-mode", "live", "--out", str(out_dir))
    assert code == 0, err
    assert out.splitlines() == [str(out_dir / "model.bml")]
    assert (out_dir / "model.bml").exists()


def test_image_llm_without_a_client_is_the_same_config_error_for_each_command(
        tmp_path, capsys, csv_paths, screenshot_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    image = ["--image", str(screenshot_path), "--out", str(tmp_path / "out")]
    errors = []
    for argv in (["migrate", "--from", "powerapps", "--to", "apex",
                  "--input", *map(str, csv_paths), *image],
                 ["import", "image-llm", *image]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        errors.append(err)
    assert errors[0] == errors[1] == (
        "error [CONFIG_ERROR]: step 'image-llm' needs a vision-model client: configure "
        "--llm-mode/--replay-dir or the [llm] config section\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, argv, error", [
    ("m.bml", "validate --model {file}", "SYNTAX_ERROR"),
    ("m.bml", "export apex-sql --model {file} --out {tmp}/out", "SYNTAX_ERROR"),
    ("m.json", "migrate --from mendix --to powerapps --input {file} --out {tmp}/out",
     "MENDIX_IMPORT_ERROR"),
    ("Book.csv", "migrate --from outsystems --to apex --input {file} --out {tmp}/out",
     "TABULAR_ERROR"),
    ("m.puml", "import plantuml --input {file} --out {tmp}/out", "PLANTUML_ERROR"),
    ("caps.toml", "capabilities --platform mendix --capabilities {file}", "CONFIG_ERROR"),
    ("lcpbridge.toml", "plan --from mendix --to apex --config {file}", "CONFIG_ERROR"),
], ids=["validate", "export", "migrate-mendix", "migrate-csv", "import-plantuml",
        "capabilities", "config"])
def test_non_utf8_input_file_is_coded_error(tmp_path, capsys, name, argv, error):
    path = tmp_path / name
    path.write_bytes(b"model M\nclass \xff {}\n")
    code, _, err = run_cli(capsys, *argv.format(file=path, tmp=tmp_path).split())
    assert code == 1
    assert f"error [{error}]" in err


_REGISTRY = '[p.import]\ndata = "full"\nformats = ["SQL"]\n[p.export]\ndata = "full"\n'


@pytest.mark.parametrize("name, text, argv, key", [
    ("lcpbridge.toml", 'llm = "x"\n', "import image-llm --out {tmp}/out --config {file}",
     "llm must be a table"),
    ("lcpbridge.toml", 'llm = "x"\n', "plan --from mendix --to apex --config {file}",
     "llm must be a table"),
    ("caps.toml", '[p]\nexport = "x"\n[p.import]\n', "plan --from p --to p --capabilities {file}",
     "p.export must be a table"),
    ("caps.toml", _REGISTRY + 'formats = "SQL"\n', "capabilities --capabilities {file}",
     "p.export.formats must be an array"),
    ("caps.toml", _REGISTRY + 'third_party = "no"\n', "capabilities --capabilities {file}",
     "p.export.third_party must be true or false"),
], ids=["llm-not-a-table-import", "llm-not-a-table-plan", "section-not-a-table",
        "formats-not-an-array", "third-party-not-a-boolean"])
def test_mistyped_config_is_config_error(tmp_path, capsys, name, text, argv, key):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, *argv.format(file=path, tmp=tmp_path).split())
    assert code == 1
    assert err.startswith("error [CONFIG_ERROR]: ") and key in err, err


def test_failing_step_is_named_on_its_own_line(tmp_path, capsys):
    path = tmp_path / "Book.csv"
    path.write_text("")
    code, _, err = run_cli(capsys, "migrate", "--from", "outsystems", "--to", "apex",
                           "--input", str(path), "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.splitlines()[-2:] == [
        f"error [TABULAR_ERROR]: {path} has no header row", "  in step 'tabular'"]


def test_non_utf8_model_error_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "m.bml"
    path.write_bytes(b"model M\nclass \xff {}\n")
    _, _, err = run_cli(capsys, "validate", "--model", str(path))
    assert "not UTF-8 text (line 2, column 7)" in err


@pytest.mark.parametrize("argv, blocker", [
    ("migrate --from mendix --to powerapps --input {mendix} --out {out}", None),
    ("import mendix-json --input {mendix} --out {out}", None),
    ("export apex-sql --model {tmp}/work/model.bml --out {out}", None),
    ("migrate --from mendix --to powerapps --input {mendix} --out {out}/sub", None),
    ("migrate --from mendix --to powerapps --input {mendix} --out {out}", "model.bml"),
    ("migrate --from mendix --to powerapps --input {mendix} --out {out}", "model.xlsx"),
    ("migrate --from mendix --to apex --input {mendix} --out {out}", "model.sql"),
    ("migrate --from mendix --to apex --input {mendix} --out {out}", "loss-report.json"),
    ("import mendix-json --input {mendix} --out {out}", "model.bml"),
    ("export apex-sql --model {tmp}/work/model.bml --out {out}", "model.sql"),
    ("export workbook --model {tmp}/work/model.bml --out {out}", "loss-report.json"),
], ids=["migrate", "import", "export", "migrate-below-file", "migrate-bml-is-dir",
        "migrate-xlsx-is-dir", "migrate-sql-is-dir", "migrate-loss-report-is-dir",
        "import-bml-is-dir", "export-sql-is-dir", "export-loss-report-is-dir"])
def test_out_path_that_is_a_file_is_output_error(tmp_path, capsys, mendix_library_path,
                                                 argv, blocker):
    """--out is a file, or an artifact path inside it is a directory; a
    generator's own artifact names the generator's step."""
    run_cli(capsys, "import", "mendix-json", "--input", str(mendix_library_path),
            "--out", str(tmp_path / "work"))
    if blocker is None:
        out = tmp_path / "afile"
        out.write_text("")
        expected = f"error [OUTPUT_ERROR]: cannot create output directory {out}"
    else:
        out = tmp_path / "out"
        (out / blocker).mkdir(parents=True)
        expected = f"error [OUTPUT_ERROR]: cannot write {out / blocker}: Is a directory"
    code, _, err = run_cli(capsys, *argv.format(
        mendix=mendix_library_path, tmp=tmp_path, out=out).split())
    assert code == 1
    assert expected in err
    step = {"model.sql": "apex-sql", "model.xlsx": "workbook"}.get(blocker)
    assert (f"  in step '{step}'" in err.splitlines()) == (step is not None)
    if blocker is None:
        assert out.read_text() == ""
    else:
        assert not any((out / blocker).iterdir())


def test_no_sample_row_flag(tmp_path, capsys, mendix_library_path):
    work = tmp_path / "work"
    run_cli(capsys, "import", "mendix-json", "--input", str(mendix_library_path),
            "--out", str(work))
    out_dir = tmp_path / "book"
    code, _, _ = run_cli(capsys, "export", "workbook",
                         "--model", str(work / "model.bml"),
                         "--out", str(out_dir), "--no-sample-row")
    assert code == 0
    manifest = json.loads((out_dir / "model.xlsx.manifest.json").read_text())
    assert all(s["sample_row"] is None for s in manifest["sheets"])


def test_config_file_supplies_replay_dir(tmp_path, capsys, csv_paths,
                                         screenshot_path, replay_dir,
                                         monkeypatch):
    config = tmp_path / "lcpbridge.toml"
    config.write_text(f"""
[llm]
mode = "replay"
replay_dir = "{replay_dir}"
""", encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["migrate", "--from", "powerapps", "--to", "apex",
            "--input"] + [str(p) for p in csv_paths] + \
           ["--image", str(screenshot_path), "--out", str(out_dir),
            "--dialect", "ansi", "--config", str(config)]
    code = main(argv)
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "model.sql").exists()
    assert (out_dir / "merge-report.json").exists()


@pytest.mark.parametrize("fixture_kind", ["not-utf8", "directory"])
def test_unreadable_replay_fixture_is_coded_error(tmp_path, capsys, csv_paths, screenshot_path,
                                                  fixture_kind):
    """A replay fixture at the request's digest that is not UTF-8 text, or
    is a directory, ends in a coded error naming the step, not a traceback."""
    store = tmp_path / "replay"
    store.mkdir()
    argv = ["migrate", "--from", "powerapps", "--to", "apex", "--input",
            *map(str, csv_paths), "--image", str(screenshot_path), "--llm-mode", "replay",
            "--replay-dir", str(store), "--out", str(tmp_path / "out")]
    _, _, err = run_cli(capsys, *argv)
    digest = err.split("no replay fixture for request digest ")[1].split()[0]
    fixture = store / f"{digest}.txt"
    if fixture_kind == "directory":
        fixture.mkdir()
    else:
        fixture.write_bytes(b"@startuml\nclass \xff\n@enduml\n")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    message, step = err.splitlines()[-2:]
    assert message.startswith(
        f"error [UNREADABLE_FIXTURE]: cannot read replay fixture {fixture}: "), message
    assert step == "  in step 'image-llm'"
