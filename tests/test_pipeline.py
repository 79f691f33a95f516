"""End-to-end execution of both demonstrated migration scenarios."""

import gc
import json
import re
import sqlite3
import sys
import threading
import tracemalloc
import types

import pytest

from lcpbridge.capabilities import load_capabilities
from lcpbridge.dsl import load_pivot_file
from lcpbridge.errors import (
    DslSyntaxError,
    InvalidModelError,
    LcpBridgeError,
    MissingInputError,
    TabularError,
    UnusedInputError,
)
from lcpbridge.llm import ReplayVisionClient, VisionModelClient
from lcpbridge.model import validate_model
from lcpbridge import pipeline
from lcpbridge.pipeline import (
    IMPORTERS,
    INPUT_SUFFIXES,
    ExecutionOptions,
    MigrationInputs,
    execute_from_pivot,
    execute_import,
    execute_migration,
    run_exporter,
)
from lcpbridge.planner import plan_migration
from lcpbridge.workbook import SheetDropdown

from expected import class_named, with_reason


def read_manifest(out_dir):
    return json.loads((out_dir / "model.xlsx.manifest.json").read_text())


class TestScenarioMendixToPowerApps:
    def test_full_run(self, tmp_path, mendix_library_path):
        plan = plan_migration("mendix", "powerapps")
        result = execute_migration(
            plan, MigrationInputs(files=[mendix_library_path]), tmp_path)

        assert (tmp_path / "model.bml").exists()
        assert (tmp_path / "model.xlsx").exists()
        assert (tmp_path / "loss-report.json").exists()

        manifest = read_manifest(tmp_path)
        class_sheets = [s for s in manifest["sheets"] if s["kind"] == "class"]
        bridge_sheets = [s for s in manifest["sheets"] if s["kind"] == "bridge"]
        assert len(class_sheets) == 3
        assert len(bridge_sheets) == 1
        assert bridge_sheets[0]["name"] == "BOOK_AUTHOR"

        book = next(s for s in manifest["sheets"] if s["name"] == "Book")
        dropdowns = [c for c in book["columns"]
                     if c["validation"] and c["validation"]["kind"] == "sheet"]
        assert dropdowns and dropdowns[0]["validation"]["source_sheet"] == "Library"

        assert any(i.reason == "ASSOCIATIONS_UNKNOWN" for i in result.loss)
        assert validate_model(result.model).ok

    def test_persisted_pivot_reloads(self, tmp_path, mendix_library_path):
        plan = plan_migration("mendix", "powerapps")
        result = execute_migration(
            plan, MigrationInputs(files=[mendix_library_path]), tmp_path)
        reloaded = load_pivot_file(result.pivot_path)
        assert validate_model(reloaded).ok
        assert {c.name for c in reloaded.classes} == {"Library", "Book", "Author"}


class TestScenarioPowerAppsToApex:
    def test_full_run_offline(self, tmp_path, csv_paths, screenshot_path, replay_dir):
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(replay_dir))
        result = execute_migration(plan, inputs, tmp_path,
                                   ExecutionOptions(dialect="ansi"))

        # all CSV classes present plus the associations only the image shows
        assert {c.name for c in result.model.classes} == {"Book", "Author", "Library"}
        assert len(result.model.associations) == 2
        assert result.merge_report is not None
        assert sorted(result.merge_report.added_associations) == \
            ["Book_Author", "Book_Library"]
        assert (tmp_path / "merge-report.json").exists()

        script = (tmp_path / "model.sql").read_text()
        conn = sqlite3.connect(":memory:")
        conn.executescript(script)
        tables = {r[0] for r in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table'")}
        assert tables == {"BOOK", "AUTHOR", "LIBRARY", "BOOK_AUTHOR"}

    def test_partial_types_win_over_llm(self, tmp_path, csv_paths, screenshot_path,
                                        replay_dir):
        # CSV says pages:int; the canned completion also says int, but the
        # merged model must carry the CSV-derived property set verbatim
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(replay_dir))
        result = execute_migration(plan, inputs, tmp_path,
                                   ExecutionOptions(dialect="ansi"))
        book = class_named(result.model, "Book")
        types = {p.name: p.type.primitive for p in book.properties}
        assert types == {"title": "str", "pages": "int", "published": "date"}

    def test_missing_image_is_named(self, tmp_path, csv_paths):
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[],
                                 llm_client=ReplayVisionClient(tmp_path))
        with pytest.raises(MissingInputError) as err:
            execute_migration(plan, inputs, tmp_path)
        assert "image-llm" in str(err.value)

    def test_retry_then_manual_repair_file(self, tmp_path, csv_paths, screenshot_path):
        # a replay store with no fixtures fails all attempts; the pipeline
        # must surface the error (missing fixture, not a parse failure)
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(tmp_path / "empty"))
        (tmp_path / "empty").mkdir()
        with pytest.raises(LcpBridgeError):
            execute_migration(plan, inputs, tmp_path / "out")

    def _seed_retry_store(self, store, csv_paths, answers):
        """Store canned completions for the first, second... prompts the
        pipeline will build, reproducing its re-prompt wording."""
        from lcpbridge.errors import LcpBridgeError as Err
        from lcpbridge.llm import (
            ImagePayload,
            VisionRequest,
            build_prompt,
            extract_model,
            load_prompt_context,
        )
        from lcpbridge.tabular import infer_model, load_tabular

        from conftest import PLACEHOLDER_PNG

        partial, _ = infer_model(load_tabular(csv_paths), name="Imported")
        base_prompt = build_prompt(load_prompt_context("powerapps"), partial)
        image = ImagePayload(data=PLACEHOLDER_PNG, media_type="image/png")
        client = ReplayVisionClient(store)

        prompt = base_prompt
        for answer in answers:
            client.store(VisionRequest(prompt_text=prompt, images=(image,)), answer)
            try:
                extract_model(answer)
                break  # a parseable answer ends the exchange
            except Err as exc:
                prompt = base_prompt + (
                    "\nThe previous answer could not be parsed as PlantUML: "
                    f"{exc}\nPlease answer again with one corrected "
                    "@startuml block.\n")

    def test_reprompt_recovers_from_malformed_completion(self, tmp_path, csv_paths,
                                                         screenshot_path):
        bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
        good = ('@startuml\nBook "0..*" -- "0..1" Library : Book_Library\n@enduml')
        store = tmp_path / "store"
        self._seed_retry_store(store, csv_paths, [bad, good])

        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(store))
        result = execute_migration(plan, inputs, tmp_path / "out",
                                   ExecutionOptions(dialect="ansi"))
        assert result.merge_report.added_associations == ["Book_Library"]

    def test_two_reprompts_build_the_prompt_once(self, tmp_path, csv_paths, screenshot_path,
                                                 monkeypatch):
        """A re-prompt appends its note to the prompt the step built first."""
        import lcpbridge.pipeline

        bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
        good = ('@startuml\nBook "0..*" -- "0..1" Library : Book_Library\n@enduml')
        store = tmp_path / "store"
        self._seed_retry_store(store, csv_paths, [bad, bad, good])
        built = []

        def build_prompt(*args, _original=lcpbridge.pipeline.build_prompt):
            built.append(args)
            return _original(*args)
        monkeypatch.setattr(lcpbridge.pipeline, "build_prompt", build_prompt)

        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(store))
        result = execute_migration(plan, inputs, tmp_path / "out")
        assert result.merge_report.added_associations == ["Book_Library"]
        assert len(built) == 1

    def test_reprompt_leaves_no_cycle_through_the_image_step(self, tmp_path, csv_paths,
                                                             screenshot_path):
        """A malformed answer's exception must not tie the image step's frame,
        and the screenshots it holds, into a cycle only the collector frees."""
        bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
        good = ('@startuml\nBook "0..*" -- "0..1" Library : Book_Library\n@enduml')
        store = tmp_path / "store"
        self._seed_retry_store(store, csv_paths, [bad, good])
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(store))

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            execute_migration(plan, inputs, tmp_path / "out")
            gc.collect()
            frames = [o.f_code.co_name for o in gc.garbage if isinstance(o, types.FrameType)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert "_import_image" not in frames

    def test_exhausted_retries_save_raw_completion(self, tmp_path, csv_paths,
                                                   screenshot_path):
        bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
        store = tmp_path / "store"
        # same malformed answer for the base prompt and both re-prompts
        self._seed_retry_store(store, csv_paths, [bad, bad, bad])

        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(store))
        out_dir = tmp_path / "out"
        with pytest.raises(LcpBridgeError) as err:
            execute_migration(plan, inputs, out_dir)
        assert "manual repair" in str(err.value)
        assert (out_dir / "llm-completion.txt").read_text() == bad


class TestCustomRegistry:
    def test_custom_platform_migrates_through_image_llm(self, tmp_path, csv_paths,
                                                       screenshot_path):
        from lcpbridge.llm import (
            ImagePayload,
            VisionRequest,
            build_prompt,
            load_prompt_context,
        )
        from lcpbridge.tabular import infer_model, load_tabular

        from conftest import DATA_DIR, PLACEHOLDER_PNG

        caps = tmp_path / "caps.toml"
        caps.write_text("""
[acme]
display = "Acme Builder"
[acme.export]
data = "partial"
formats = ["CSV"]
[acme.import]
data = "none"
[mendix]
display = "Mendix"
[mendix.export]
data = "full"
formats = ["JSON"]
[mendix.import]
data = "partial"
formats = ["XLSX"]
""", encoding="utf-8")
        matrix = load_capabilities(caps)
        plan = plan_migration("acme", "mendix", matrix=matrix)
        assert plan.chain == ("tabular", "image-llm", "workbook")

        # the prompt names the platform as the custom registry displays it
        partial, _ = infer_model(load_tabular(csv_paths), name="Imported")
        prompt = build_prompt(load_prompt_context("acme", matrix), partial)
        assert "Acme Builder" in prompt
        client = ReplayVisionClient(tmp_path / "store")
        client.store(VisionRequest(prompt_text=prompt, images=(ImagePayload(PLACEHOLDER_PNG),)),
                     (DATA_DIR / "replay_completion.txt").read_text(encoding="utf-8"))

        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=client)
        result = execute_migration(plan, inputs, tmp_path / "out")
        assert sorted(result.merge_report.added_associations) == \
            ["Book_Author", "Book_Library"]
        assert (tmp_path / "out" / "model.xlsx").exists()


class TestDeterminism:
    def test_workbook_outputs_byte_identical(self, tmp_path, mendix_library_path):
        plan = plan_migration("mendix", "powerapps")
        result = execute_migration(
            plan, MigrationInputs(files=[mendix_library_path]), tmp_path / "run1")

        out2 = tmp_path / "run2"
        out3 = tmp_path / "run3"
        execute_from_pivot(result.pivot_path, "workbook", out2)
        execute_from_pivot(result.pivot_path, "workbook", out3)
        for name in ("model.xlsx", "model.xlsx.manifest.json"):
            assert (out2 / name).read_bytes() == (out3 / name).read_bytes()
        # and identical to the original migration's generator output
        assert (out2 / "model.xlsx").read_bytes() == \
            (tmp_path / "run1" / "model.xlsx").read_bytes()

    def test_sql_outputs_byte_identical(self, tmp_path, csv_paths, screenshot_path,
                                        replay_dir):
        plan = plan_migration("powerapps", "apex")
        inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                 llm_client=ReplayVisionClient(replay_dir))
        result = execute_migration(plan, inputs, tmp_path / "run1",
                                   ExecutionOptions(dialect="ansi"))
        out2 = tmp_path / "run2"
        execute_from_pivot(result.pivot_path, "apex-sql", out2,
                           ExecutionOptions(dialect="ansi"))
        assert (out2 / "model.sql").read_bytes() == \
            (tmp_path / "run1" / "model.sql").read_bytes()


class TestReviewHook:
    def test_hook_runs_and_edits_are_revalidated(self, tmp_path, mendix_library_path):
        plan = plan_migration("mendix", "powerapps")
        calls = []

        def edit_model(pivot_path):
            calls.append(pivot_path)
            text = pivot_path.read_text()
            pivot_path.write_text(text + "\nclass Addendum {}\n")

        result = execute_migration(
            plan, MigrationInputs(files=[mendix_library_path]), tmp_path,
            ExecutionOptions(review_hook=edit_model))
        assert calls == [tmp_path / "model.bml"]
        assert class_named(result.model, "Addendum") is not None
        manifest = read_manifest(tmp_path)
        assert any(s["name"] == "Addendum" for s in manifest["sheets"])

    def test_bad_edit_aborts_with_violations(self, tmp_path, mendix_library_path):
        plan = plan_migration("mendix", "powerapps")

        def break_model(pivot_path):
            pivot_path.write_text("model Broken\nclass A {}\nclass A {}\n")

        with pytest.raises(InvalidModelError) as err:
            execute_migration(
                plan, MigrationInputs(files=[mendix_library_path]), tmp_path,
                ExecutionOptions(review_hook=break_model))
        assert any(v.rule == "DUPLICATE_CLASS_NAME" for v in err.value.violations)

    def test_deleted_pivot_file_is_missing_input(self, tmp_path, mendix_library_path):
        with pytest.raises(MissingInputError) as err:
            execute_migration(
                plan_migration("mendix", "apex"), MigrationInputs(files=[mendix_library_path]),
                tmp_path, ExecutionOptions(review_hook=lambda pivot_path: pivot_path.unlink()))
        assert err.value.code == "MISSING_INPUT"
        assert not (tmp_path / "model.sql").exists()

    def test_non_utf8_edit_is_a_syntax_error(self, tmp_path, mendix_library_path):
        def garble(pivot_path):
            pivot_path.write_bytes(pivot_path.read_bytes() + b"class Caf\xe9 {}\n")

        with pytest.raises(DslSyntaxError) as err:
            execute_migration(
                plan_migration("mendix", "apex"), MigrationInputs(files=[mendix_library_path]),
                tmp_path, ExecutionOptions(review_hook=garble))
        assert err.value.code == "SYNTAX_ERROR"
        assert "is not UTF-8 text" in str(err.value)
        assert not (tmp_path / "model.sql").exists()


class TestPlantUmlImport:
    def test_repeated_attribute_reported_as_dropped(self, tmp_path):
        source = tmp_path / "book.puml"
        source.write_text("@startuml\nclass Book {\n  title : str\n  title : int\n}\n@enduml\n",
                          encoding="utf-8")
        result = execute_import(["plantuml"], MigrationInputs(files=[source]), "plantuml",
                                tmp_path / "out")
        book = class_named(result.model, "Book")
        assert [(p.name, p.type.primitive) for p in book.properties] == [("title", "str")]
        report = json.loads((tmp_path / "out" / "loss-report.json").read_text())
        assert [(i["element_kind"], i["element_name"], i["reason"]) for i in report["items"]] \
            == [("property", "Book.title", "DROPPED")]

    def test_generalizations_out_of_class_order_export_as_from_the_pivot(self, tmp_path):
        """The imported model lists its generalizations as ``model.bml``
        does, so exporting it gives what exporting the written file gives."""
        source = tmp_path / "shapes.puml"
        source.write_text("@startuml\nclass Shape\nclass Circle\nclass Square\n"
                          "Shape <|-- Square\nShape <|-- Circle\n@enduml\n", encoding="utf-8")
        result = execute_import(["plantuml"], MigrationInputs(files=[source]), "plantuml",
                                tmp_path / "import")
        _, loss = run_exporter("apex-sql", result.model, tmp_path / "a", ExecutionOptions())
        from_pivot = execute_from_pivot(result.pivot_path, "apex-sql", tmp_path / "b")
        assert (tmp_path / "a" / "model.sql").read_bytes() == \
            (tmp_path / "b" / "model.sql").read_bytes()
        assert loss.to_json() == (tmp_path / "b" / "loss-report.json").read_text(encoding="utf-8")
        assert [i.element_name for i in with_reason(from_pivot.loss, "GENERALIZATION_FLATTENED")] \
            == ["Circle->Shape", "Square->Shape"]


class TestCsvFallbackExporter:
    def test_csv_exporter_writes_per_class_files(self, tmp_path, library_model):
        paths, loss = run_exporter("csv", library_model, tmp_path, ExecutionOptions())
        names = {p.name for p in paths}
        assert names == {"Library.csv", "Book.csv", "Author.csv", "BOOK_AUTHOR.csv"}
        assert with_reason(loss, "DROPPED")  # validations not expressible in CSV


class TestValidateOnce:
    """A model is validated where it is built from outside input and trusted
    downstream: each boundary gate runs once per migration."""

    GOOD = ('@startuml\nBook "0..*" -- "0..1" Library : Book_Library\n'
            'Book "0..*" -- "0..*" Author : Book_Author\n@enduml')
    BAD = '@startuml\nBook "x..y" -- "1" Library\n@enduml'

    class Scripted(VisionModelClient):
        def __init__(self, answers):
            self.answers = list(answers)

        def complete(self, request):
            return self.answers.pop(0)

    @pytest.fixture
    def validations(self, monkeypatch):
        import lcpbridge.model

        calls = []
        real = lcpbridge.model.validate_model

        def counting(model):
            calls.append(model.name)
            return real(model)

        monkeypatch.setattr(lcpbridge.model, "validate_model", counting)
        return calls

    @pytest.mark.parametrize("path, expected", [
        ("mendix-apex-review", 1),  # Mendix mapping; model.bml comes back unchanged
        ("mendix-apex-review-edited", 2),  # Mendix mapping, re-load of the edited model.bml
        ("outsystems-csv-apex", 1),  # inference
        ("powerapps-screenshot-outsystems", 3),  # inference, PlantUML, merge
        ("powerapps-malformed-first-answer", 3),  # a re-prompt adds no check
    ])
    def test_validations_per_migration(self, tmp_path, mendix_library_path, csv_paths,
                                       screenshot_path, validations, path, expected):
        options = ExecutionOptions()
        if path.startswith("mendix-apex-review"):
            def review(pivot_path):
                if path.endswith("edited"):
                    pivot_path.write_text(pivot_path.read_text() + "\nclass Addendum {}\n")

            plan = plan_migration("mendix", "apex")
            inputs = MigrationInputs(files=[mendix_library_path])
            options = ExecutionOptions(review_hook=review)
        elif path == "outsystems-csv-apex":
            plan = plan_migration("outsystems", "apex")
            inputs = MigrationInputs(files=list(csv_paths))
        else:
            answers = [self.GOOD] if path == "powerapps-screenshot-outsystems" \
                else [self.BAD, self.GOOD]
            plan = plan_migration("powerapps", "outsystems")
            inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                     llm_client=self.Scripted(answers))
        execute_migration(plan, inputs, tmp_path, options)
        assert len(validations) == expected, validations

    def test_crlf_only_review_is_no_edit(self, tmp_path, mendix_library_path, validations):
        """Newlines as text mode reads them: a rewrite to \\r\\n changes no text."""
        def to_crlf(pivot_path):
            pivot_path.write_bytes(pivot_path.read_bytes().replace(b"\n", b"\r\n"))

        plan = plan_migration("mendix", "apex")
        inputs = MigrationInputs(files=[mendix_library_path])
        execute_migration(plan, inputs, tmp_path / "plain")
        validations.clear()
        execute_migration(plan, inputs, tmp_path / "crlf", ExecutionOptions(review_hook=to_crlf))
        assert len(validations) == 1, validations
        plain, crlf = ({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()}
                       for run in ("plain", "crlf"))
        assert crlf.pop("model.bml") == plain.pop("model.bml").replace(b"\n", b"\r\n")
        assert crlf == plain and "model.sql" in plain

    def test_consumers_trust_their_model(self, tmp_path, library_model, validations):
        from lcpbridge.dsl import print_pivot_text, save_pivot_file
        from lcpbridge.llm import build_prompt, load_prompt_context
        from lcpbridge.plantuml import emit_plantuml
        from lcpbridge.relational import emit_sql, plan_relational
        from lcpbridge.workbook import plan_workbook

        context = load_prompt_context("powerapps")
        validations.clear()
        plan, _ = plan_relational(library_model)
        emit_sql(plan)
        plan_workbook(library_model)
        emit_plantuml(library_model)
        build_prompt(context, library_model)
        print_pivot_text(library_model)
        save_pivot_file(library_model, tmp_path / "model.bml")
        assert validations == []

    def test_run_exporter_checks_the_api_callers_model(self, tmp_path):
        from lcpbridge.model import Class, DomainModel
        broken = DomainModel("M", classes=(Class("A"), Class("A")))
        with pytest.raises(InvalidModelError) as err:
            run_exporter("apex-sql", broken, tmp_path, ExecutionOptions())
        assert err.value.code == "INVALID_MODEL"
        assert [v.rule for v in err.value.violations] == ["DUPLICATE_CLASS_NAME"]
        assert not (tmp_path / "model.sql").exists()


class TestRunner:
    """The one execution path behind execute_import, execute_migration and
    execute_from_pivot."""

    def test_unknown_importer_fails_before_any_step(self, tmp_path):
        # mendix-json would fail for want of a .json file if it ran first
        out_dir = tmp_path / "out"
        with pytest.raises(LcpBridgeError) as err:
            execute_import(["mendix-json", "nope"], MigrationInputs(), "mendix", out_dir)
        assert type(err.value) is LcpBridgeError
        assert str(err.value) == "unknown import adapter 'nope'"
        assert not out_dir.exists()

    def test_unknown_exporter_fails_before_the_pivot_loads(self, tmp_path, monkeypatch):
        import lcpbridge.pipeline

        loaded = []
        monkeypatch.setattr(lcpbridge.pipeline, "load_pivot_file", loaded.append)
        out_dir = tmp_path / "out"
        with pytest.raises(LcpBridgeError) as err:
            execute_from_pivot(tmp_path / "model.bml", "nope", out_dir)
        assert type(err.value) is LcpBridgeError
        assert str(err.value) == "unknown export adapter 'nope'"
        assert loaded == [] and not out_dir.exists()

    def test_exhausted_reprompts_on_import_save_raw_completion(self, tmp_path,
                                                              screenshot_path):
        bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
        inputs = MigrationInputs(images=[screenshot_path],
                                 llm_client=TestValidateOnce.Scripted([bad] * 3))
        out_dir = tmp_path / "out"
        with pytest.raises(LcpBridgeError) as err:
            execute_import(["image-llm"], inputs, "powerapps", out_dir)
        raw_path = out_dir / "llm-completion.txt"
        assert str(err.value).startswith("step 'image-llm' failed after 2 re-prompts: ")
        assert str(err.value).endswith(
            f"; raw completion saved to {raw_path} for manual repair")
        assert err.value.details == {"step": "image-llm"}
        assert raw_path.read_text() == bad
        assert sorted(p.name for p in out_dir.iterdir()) == ["llm-completion.txt"]

    @pytest.mark.parametrize("importer, token", [
        (adapter.id, token) for adapter in IMPORTERS.values() for token in adapter.formats
        if token != "IMG"])
    @pytest.mark.parametrize("blocker", ["missing", "directory"])
    def test_an_unreadable_input_file_is_missing_input(self, importer, token, blocker,
                                                       tmp_path):
        """Every importer that reads ``inputs.files`` meets a file it cannot
        open with the same coded error, under each suffix the runner picks
        for its format, so a new importer and a new suffix join the rule."""
        for suffix in INPUT_SUFFIXES[token]:
            path = tmp_path / f"input{suffix}"
            if blocker == "directory":
                path.mkdir()
            with pytest.raises(MissingInputError,
                               match=f"^{re.escape(f'cannot read {path}: ')}"):
                execute_import([importer], MigrationInputs(files=[path]), "powerapps",
                               tmp_path / "out")

    @pytest.mark.parametrize("importer", [
        adapter.id for adapter in IMPORTERS.values() if "IMG" not in adapter.formats])
    def test_a_file_importer_with_no_file_of_its_suffix_is_missing_input(self, importer,
                                                                           tmp_path):
        suffixes = [s for t in IMPORTERS[importer].formats for s in INPUT_SUFFIXES[t]]
        with pytest.raises(MissingInputError) as err:
            execute_import([importer], MigrationInputs(files=[tmp_path / "x.bml"]),
                           "powerapps", tmp_path / "out")
        assert str(err.value) == (f"step {importer!r} needs an input file with suffix "
                                  f"{' or '.join(suffixes)}")
        assert err.value.details == {"step": importer}

    def test_an_importer_format_with_no_suffix_entry_fails_before_any_import(
            self, tmp_path, monkeypatch):
        """A new importer row whose format has no ``INPUT_SUFFIXES`` entry is
        a KeyError, not a step that runs with no files."""
        ran = []
        monkeypatch.setitem(IMPORTERS, "sql-ddl", pipeline.Adapter(
            "sql-ddl", ("SQL",), lambda files, **_: ran.append(files)))
        with pytest.raises(KeyError, match="SQL"):
            execute_import(["sql-ddl"], MigrationInputs(files=[tmp_path / "a.sql"]),
                           "powerapps", tmp_path / "out")
        assert ran == []

    @pytest.mark.parametrize("importer, first, second", [
        ("mendix-json", "a.json", "b.json"), ("plantuml", "a.puml", "b.txt")])
    def test_a_one_document_importer_given_two_files_reads_neither(self, importer, first,
                                                                   second, tmp_path,
                                                                   monkeypatch):
        """JSON and PlantUML files each hold a whole model, so a second one
        is refused before any importer runs, not dropped."""
        ran = []
        monkeypatch.setattr(pipeline, "load_tabular", lambda files: ran.append(files))
        files = [tmp_path / first, tmp_path / second]
        out_dir = tmp_path / "out"
        with pytest.raises(MissingInputError) as err:
            execute_import(["tabular", importer], MigrationInputs(files=files + [
                tmp_path / "c.csv"]), "powerapps", out_dir)
        assert str(err.value) == (f"step {importer!r} reads one input file, not 2: "
                                  f"{files[0]}, {files[1]}")
        assert err.value.details == {"step": importer}
        assert ran == [] and not out_dir.exists()

    @pytest.mark.parametrize("importer, leftover", [
        *[(adapter.id, "file") for adapter in IMPORTERS.values()],
        *[(adapter.id, "image") for adapter in IMPORTERS.values()
          if "IMG" not in adapter.formats]])
    def test_an_input_no_step_reads_is_refused_before_any_import(self, importer, leftover,
                                                                 tmp_path, monkeypatch):
        """A file whose suffix no importer of the chain picks, and a
        screenshot when no importer reads images, end the run before any
        step runs; the error names each such input and the chain."""
        ran = []
        for adapter in IMPORTERS.values():
            monkeypatch.setitem(IMPORTERS, adapter.id, pipeline.Adapter(
                adapter.id, adapter.formats, lambda files, _id=adapter.id, **_: ran.append(_id)))
        formats = IMPORTERS[importer].formats
        inputs = MigrationInputs(files=[tmp_path / f"in{INPUT_SUFFIXES[t][0]}"
                                        for t in formats if t != "IMG"],
                                 images=[tmp_path / "in.png"] if "IMG" in formats else [])
        if leftover == "file":
            other = next(t for t in INPUT_SUFFIXES if t not in formats)
            unread = tmp_path / f"extra{INPUT_SUFFIXES[other][0]}"
            inputs.files.append(unread)
        else:
            unread = tmp_path / "extra.png"
            inputs.images.append(unread)
        out_dir = tmp_path / "out"
        with pytest.raises(UnusedInputError) as err:
            execute_import([importer], inputs, "powerapps", out_dir)
        assert str(err.value) == f"no step of {importer} reads {unread}"
        assert ran == [] and not out_dir.exists()


class TestTabularImport:
    """The tabular step infers each file's tables before it reads the next
    file, and still sees every table name of the import."""

    @pytest.mark.parametrize("first, second", [("a/Book.csv", "b/book.csv"),
                                               ("a/Book.csv", "b/Book.csv")])
    def test_two_tables_whose_names_differ_only_in_case_are_refused(self, first, second,
                                                                     tmp_path):
        paths = [tmp_path / first, tmp_path / second]
        for path in paths:
            path.parent.mkdir()
            path.write_text("title\nDune\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        with pytest.raises(TabularError) as err:
            execute_import(["tabular"], MigrationInputs(files=paths), "outsystems", out_dir)
        assert str(err.value) == f"duplicate table name {paths[1].stem!r}"
        assert err.value.details == {"step": "tabular"}
        assert not out_dir.exists()

    def test_a_bad_second_file_fails_after_the_first_was_inferred(self, tmp_path,
                                                                  monkeypatch):
        from lcpbridge import tabular

        events = []
        load, infer = pipeline.load_tabular, tabular.infer_column_type
        monkeypatch.setattr(pipeline, "load_tabular",
                            lambda paths: events.append(("load", *paths)) or load(paths))
        monkeypatch.setattr(tabular, "infer_column_type",
                            lambda values: events.append(("infer", values)) or infer(values))
        good, bad = tmp_path / "Book.csv", tmp_path / "Author.csv"
        good.write_text("title,pages\nDune,412\n", encoding="utf-8")
        bad.write_bytes(b"name\n\xff\n")
        out_dir = tmp_path / "out"
        with pytest.raises(TabularError) as err:
            execute_import(["tabular"], MigrationInputs(files=[good, bad]), "outsystems",
                           out_dir)
        assert err.value.code == "TABULAR_ERROR"
        assert err.value.details == {"step": "tabular"}
        assert events == [("load", good), ("infer", ("Dune",)), ("infer", ("412",)),
                          ("load", bad)]
        assert not (out_dir / "model.bml").exists()


class TestScreenshotRead:
    """The image step opens every screenshot before the first vision call,
    and each request reads them a chunk at a time when it is hashed."""

    class Recording(VisionModelClient):
        """Answers in turn, storing each exchange for replay; counts the calls."""

        def __init__(self, answers, store):
            self.answers, self.replay, self.calls = list(answers), ReplayVisionClient(store), 0

        def complete(self, request):
            self.calls += 1
            answer = self.answers.pop(0)
            self.replay.store(request, answer)
            return answer

    @pytest.mark.parametrize("blocker", ["missing", "directory"])
    def test_an_unreadable_screenshot_is_missing_input_before_any_call(self, blocker,
                                                                       screenshot_path,
                                                                       tmp_path):
        path = tmp_path / "x.png"
        if blocker == "directory":
            path.mkdir()
        client = self.Recording([TestValidateOnce.GOOD], tmp_path / "store")
        out_dir = tmp_path / "out"
        with pytest.raises(MissingInputError) as err:
            execute_import(["image-llm"], MigrationInputs(
                images=[screenshot_path, path], llm_client=client), "powerapps", out_dir)
        assert str(err.value).startswith(f"cannot read {path}: ")
        assert err.value.code == "MISSING_INPUT"
        assert err.value.details == {"step": "image-llm"}
        assert client.calls == 0 and not out_dir.exists()

    def test_a_screenshot_gone_before_the_client_reads_it_is_missing_input(self, tmp_path,
                                                                           screenshot_path):
        path = tmp_path / "gone.png"
        path.write_bytes(screenshot_path.read_bytes())

        class Vanishing(VisionModelClient):
            def complete(self, request):
                path.unlink()
                return ReplayVisionClient(tmp_path / "store").complete(request)

        with pytest.raises(MissingInputError) as err:
            execute_import(["image-llm"], MigrationInputs(
                images=[screenshot_path, path], llm_client=Vanishing()), "powerapps",
                tmp_path / "out")
        assert str(err.value) == f"cannot read {path}: No such file or directory"
        assert err.value.details == {"step": "image-llm"}

    def test_import_memory_does_not_grow_with_screenshots(self, tmp_path):
        """A replayed request hashes each screenshot a chunk at a time, so the
        step holds about one chunk however many screenshots it sends, through
        a re-prompt too."""
        from generators import screenshot_files

        def run(images, client, out):
            execute_import(["image-llm"], MigrationInputs(images=images, llm_client=client),
                           "powerapps", tmp_path / out)

        def peak(count: int) -> int:
            images = screenshot_files(count, 2**20, tmp_path / str(count))
            store = tmp_path / f"store{count}"
            recording = self.Recording([TestValidateOnce.BAD, TestValidateOnce.GOOD], store)
            run(images, recording, f"record{count}")
            assert recording.calls == 2 and len(list(store.iterdir())) == 2
            tracemalloc.start()
            try:
                run(images, ReplayVisionClient(store), f"out{count}")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        warm = screenshot_files(1, 100, tmp_path / "warm")  # imports and caches, unmeasured
        run(warm, self.Recording([TestValidateOnce.GOOD], tmp_path / "warm-store"), "warm-out")
        small, large = peak(1), peak(8)
        assert large <= 1.5 * small, (small, large)


class TestCollectorPause:
    """``_run`` pauses the cyclic collector and gives back the state it found."""

    @pytest.fixture(autouse=True)
    def keep_collector_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("source, target, chain, sheet_markup", [
        ("mendix", "apex", ("mendix-json", "apex-sql"), None),
        ("powerapps", "outsystems", ("tabular", "image-llm", "workbook"), None),
        ("outsystems", "apex", ("tabular", "apex-sql"), b""),
        ("outsystems", "apex", ("tabular", "apex-sql"), b"<!-- c -->"),
    ], ids=["mendix-json>apex-sql", "csv+image-llm>workbook", "xlsx>apex-sql",
            "xlsx-read-by-elementtree>apex-sql"])
    def test_a_migration_leaves_no_cyclic_garbage(self, source, target, chain, sheet_markup,
                                                  tmp_path, mendix_library_path, csv_paths,
                                                  screenshot_path):
        """The invariant the pause rests on: no chain the benchmark runs makes
        a cycle, so the collections a run would trigger have nothing to free.
        Each garbage cycle found here would instead be held until the run
        ends. The XLSX chains guard the compiled scan and, with a comment
        after ``<sheetData>``, the ElementTree reader it falls back to: each
        ``ElementTree.iterparse`` call left a class behind (Python 3.11)."""
        import zipfile

        from generators import scaling_workbook

        plan = plan_migration(source, target)
        assert plan.chain == chain
        if source == "mendix":
            inputs = MigrationInputs(files=[mendix_library_path])
        elif source == "powerapps":  # one re-prompt
            bad = '@startuml\nBook "x..y" -- "1" Library\n@enduml'
            good = '@startuml\nBook "0..*" -- "0..1" Library : Book_Library\n@enduml'
            store = tmp_path / "store"
            TestScenarioPowerAppsToApex()._seed_retry_store(store, csv_paths, [bad, good])
            inputs = MigrationInputs(files=list(csv_paths), images=[screenshot_path],
                                     llm_client=ReplayVisionClient(store))
        else:
            book = scaling_workbook(50, tmp_path / "rows.xlsx")
            if sheet_markup:
                with zipfile.ZipFile(book) as zf:
                    parts = {name: zf.read(name) for name in zf.namelist()}
                sheet = "xl/worksheets/sheet1.xml"
                parts[sheet] = parts[sheet].replace(b"<sheetData>", b"<sheetData>" + sheet_markup)
                with zipfile.ZipFile(book, "w") as zf:
                    for name, data in parts.items():
                        zf.writestr(name, data)
            inputs = MigrationInputs(files=[book])
        # a first run loads the layers: module set-up stays out of the count
        execute_migration(plan, inputs, tmp_path / "warm")

        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            execute_migration(plan, inputs, tmp_path / "out")
            gc.collect()
            garbage = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []

    def test_the_collector_is_off_during_a_run(self, tmp_path, mendix_library_path):
        seen = []
        execute_migration(plan_migration("mendix", "apex"),
                          MigrationInputs(files=[mendix_library_path]), tmp_path,
                          ExecutionOptions(review_hook=lambda path: seen.append(gc.isenabled())))
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["success", "coded-failure"])
    def test_a_run_gives_back_the_state_it_found(self, enabled, fails, tmp_path,
                                                 mendix_library_path):
        (gc.enable if enabled else gc.disable)()
        inputs = MigrationInputs(files=[] if fails else [mendix_library_path])
        if fails:
            with pytest.raises(MissingInputError):
                execute_migration(plan_migration("mendix", "apex"), inputs, tmp_path)
        else:
            execute_migration(plan_migration("mendix", "apex"), inputs, tmp_path)
        assert gc.isenabled() is enabled

    def test_a_nested_run_keeps_the_pause(self, tmp_path, mendix_library_path):
        """A review hook that runs a migration of its own: the collector stays
        off until the outer run ends."""
        plan, inputs = plan_migration("mendix", "apex"), MigrationInputs(
            files=[mendix_library_path])
        seen = []

        def nested(path):
            execute_migration(plan, inputs, tmp_path / "inner")
            seen.append(gc.isenabled())

        gc.enable()
        execute_migration(plan, inputs, tmp_path / "outer", ExecutionOptions(review_hook=nested))
        assert seen == [False]
        assert gc.isenabled()

    def test_overlapping_runs_leave_the_collector_enabled(self, tmp_path, mendix_library_path):
        """Run B starts while run A is paused and ends after it. A save and
        restore per run would have B save "off" and restore it."""
        plan, inputs = plan_migration("mendix", "apex"), MigrationInputs(
            files=[mendix_library_path])
        a_inside, b_inside, a_done = threading.Event(), threading.Event(), threading.Event()
        seen, errors = [], []

        def hook_a(path):
            a_inside.set()
            assert b_inside.wait(30)

        def hook_b(path):
            b_inside.set()
            assert a_done.wait(30)
            seen.append(gc.isenabled())  # A has ended; B still runs

        def run(name, hook, done=None):
            try:
                execute_migration(plan, inputs, tmp_path / name,
                                  ExecutionOptions(review_hook=hook))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)
            finally:
                if done is not None:
                    done.set()

        gc.enable()
        a = threading.Thread(target=run, args=("a", hook_a, a_done))
        b = threading.Thread(target=run, args=("b", hook_b))
        a.start()
        assert a_inside.wait(30)
        b.start()
        a.join(60)
        b.join(60)
        assert not a.is_alive() and not b.is_alive()
        assert errors == [] and seen == [False]
        assert gc.isenabled()

    def test_many_threads_pausing_at_once_leave_the_collector_enabled(self):
        """More threads than cores enter and leave the pause with a short
        switch interval: a lost update of the run count would leave the
        collector off, or turn it on inside a run."""
        from lcpbridge.pipeline import _collector_paused

        inside_enabled, interval = [], sys.getswitchinterval()

        def pause_often():
            for _ in range(2000):
                with _collector_paused():
                    if gc.isenabled():
                        inside_enabled.append(True)

        gc.enable()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pause_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside_enabled == []
        assert gc.isenabled()
