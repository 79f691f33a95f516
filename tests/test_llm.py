"""Prompt building, replay client, block extraction, and the merge laws."""

import contextlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcpbridge import llm
from lcpbridge.errors import (
    LcpBridgeError,
    LlmClientError,
    MissingFixtureError,
    NoCredentialsError,
    NoPlantUmlBlockError,
    UnknownPlatformError,
)
from lcpbridge.llm import (
    HttpVisionClient,
    ImagePayload,
    MergeConflict,
    MergeReport,
    PromptContext,
    ReplayVisionClient,
    VisionRequest,
    build_prompt,
    extract_model,
    invoke_vision_model,
    load_prompt_context,
    merge_models,
    request_digest,
)
from lcpbridge.model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Enumeration,
    Generalization,
    Multiplicity,
    Property,
    empty_model,
    enum_type,
    model_equal,
    primitive_type,
    validate_model,
)
from lcpbridge.pipeline import MigrationInputs, execute_import

from expected import class_named, is_empty
from generators import random_merge_pair, random_merge_report

IMAGE = ImagePayload(data=b"\x89PNG fake", media_type="image/png")


class TestBuildPrompt:
    def test_powerapps_context(self):
        context = load_prompt_context("powerapps")
        prompt = build_prompt(context)
        assert "PowerApps" in prompt
        assert "PlantUML" in prompt
        assert context.syntax_description.strip() in prompt
        assert "@startuml" in prompt  # single-block answer instruction

    def test_partial_model_embedded(self, library_model):
        prompt = build_prompt(load_prompt_context("mendix"), library_model)
        assert "class Book" in prompt
        assert "ground truth" in prompt

    def test_unknown_platform(self):
        with pytest.raises(UnknownPlatformError):
            load_prompt_context("foo")

    def test_unseeded_platform_falls_back_to_generic_text(self):
        context = load_prompt_context("zoho")
        assert "Zoho" in context.syntax_description


class TestClients:
    def test_replay_round_trip(self, tmp_path):
        client = ReplayVisionClient(tmp_path)
        request = VisionRequest(prompt_text="hello", images=(IMAGE,))
        client.store(request, "canned answer")
        assert invoke_vision_model(request, client) == "canned answer"

    def test_replay_fixture_is_byte_identical(self, tmp_path):
        client = ReplayVisionClient(tmp_path)
        request = VisionRequest(prompt_text="p", images=(IMAGE,))
        text = "exact\nbytes\né"
        client.store(request, text)
        assert client.complete(request) == text

    def test_missing_fixture_names_digest(self, tmp_path):
        client = ReplayVisionClient(tmp_path)
        request = VisionRequest(prompt_text="other", images=(IMAGE,))
        with pytest.raises(MissingFixtureError) as err:
            client.complete(request)
        assert err.value.digest == request_digest(request)

    def test_digest_depends_on_prompt_and_image(self):
        r1 = VisionRequest(prompt_text="a", images=(IMAGE,))
        r2 = VisionRequest(prompt_text="b", images=(IMAGE,))
        r3 = VisionRequest(prompt_text="a",
                           images=(ImagePayload(b"other bytes", "image/png"),))
        assert request_digest(r1) != request_digest(r2)
        assert request_digest(r1) != request_digest(r3)
        assert request_digest(r1) == request_digest(
            VisionRequest(prompt_text="a", images=(IMAGE,)))

    def test_live_without_credentials_fails_before_network(self, monkeypatch):
        monkeypatch.delenv("LCPB_LLM_API_KEY", raising=False)
        client = HttpVisionClient(endpoint="http://127.0.0.1:1/v1/chat", model="m")
        with pytest.raises(NoCredentialsError):
            client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))

    def test_transport_failure_distinguished(self):
        from lcpbridge.errors import TransportError

        client = HttpVisionClient(endpoint="http://127.0.0.1:1/v1/chat",
                                  model="m", api_key="k", timeout=0.5)
        with pytest.raises(TransportError):
            client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))

    def test_auth_failure_distinguished(self):
        from lcpbridge.errors import AuthenticationError

        seen = []
        with self.stub_server(401, b"", seen) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="wrong", timeout=5)
            with pytest.raises(AuthenticationError):
                client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))
        assert len(seen) == 1  # not retried

    @staticmethod
    @contextlib.contextmanager
    def stub_server(status, body, seen=None, headers=()):
        """Serve fixed answers on 127.0.0.1; yield the endpoint URL. ``status``
        is one code, or a list of codes answered in turn, the last repeated;
        each answer carries ``headers``."""
        import http.server
        import threading

        statuses = [status] if isinstance(status, int) else list(status)

        class Answer(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                if seen is not None:
                    seen.append((self.headers.get("Authorization"), payload))
                self.send_response(statuses.pop(0) if len(statuses) > 1 else statuses[0])
                self.send_header("Content-Type", "application/json")
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Answer)
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat"
        finally:
            server.shutdown()
            server.server_close()

    def test_live_answer_is_returned_and_recorded(self, tmp_path):
        body = json.dumps({"choices": [{"message": {"content": "@startuml\n@enduml"}}]})
        seen = []
        request = VisionRequest(prompt_text="x", images=(IMAGE,))
        with self.stub_server(200, body.encode(), seen) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5,
                                      record_dir=tmp_path / "rec")
            assert client.complete(request) == "@startuml\n@enduml"
        authorization, payload = seen[0]
        assert authorization == "Bearer k"
        assert payload["model"] == "m"
        assert payload["messages"][0]["content"][0] == {"type": "text", "text": "x"}
        assert ReplayVisionClient(tmp_path / "rec").complete(request) == "@startuml\n@enduml"

    def test_recording_over_a_directory_is_coded_and_carries_the_answer(self, tmp_path):
        request = VisionRequest(prompt_text="x", images=(IMAGE,))
        (tmp_path / f"{request_digest(request)}.txt").mkdir()
        with pytest.raises(LlmClientError) as err:
            ReplayVisionClient(tmp_path).store(request, "@startuml\n@enduml")
        assert err.value.code == "LLM_ERROR"
        assert err.value.details["completion"] == "@startuml\n@enduml"

    def test_live_answer_is_kept_when_record_dir_is_a_file(self, tmp_path):
        answer = "@startuml\nclass Book\n@enduml"
        body = json.dumps({"choices": [{"message": {"content": answer}}]})
        record_dir = tmp_path / "rec"
        record_dir.write_text("not a directory")
        screenshot = tmp_path / "shot.png"
        screenshot.write_bytes(IMAGE.data)
        out_dir = tmp_path / "out"
        with self.stub_server(200, body.encode()) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5,
                                      record_dir=record_dir)
            inputs = MigrationInputs(images=[screenshot], llm_client=client)
            with pytest.raises(LcpBridgeError) as err:
                execute_import(["image-llm"], inputs, "powerapps", out_dir)
        assert err.value.code == "LLM_ERROR"
        assert "raw completion saved to" in str(err.value)
        assert (out_dir / "llm-completion.txt").read_text(encoding="utf-8") == answer

    def test_server_error_is_transport_failure_with_body(self, monkeypatch):
        from lcpbridge.errors import TransportError

        monkeypatch.setattr(llm, "RETRY_WAIT_S", 0)
        with self.stub_server(500, b"overloaded" + b"!" * 300) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5)
            with pytest.raises(TransportError) as err:
                client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))
        assert str(err.value).endswith("provider error HTTP 500: overloaded" + "!" * 190)
        assert err.value.code == "TRANSPORT_FAILURE"

    def test_unavailable_once_then_answered(self):
        body = json.dumps({"choices": [{"message": {"content": "@startuml\n@enduml"}}]})
        seen = []
        with self.stub_server([503, 200], body.encode(), seen,
                              headers=[("Retry-After", "0")]) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5)
            assert client.complete(VisionRequest(prompt_text="x", images=(IMAGE,))) \
                == "@startuml\n@enduml"
        assert len(seen) == 2

    @pytest.mark.parametrize("retry_after, wait", [
        ("0", 0), ("7", 7), ("3600", llm.RETRY_AFTER_CAP_S),
        ("Wed, 21 Oct 2015 07:28:00 GMT", llm.RETRY_WAIT_S), (None, llm.RETRY_WAIT_S)])
    def test_rate_limit_retried_at_most_twice(self, monkeypatch, retry_after, wait):
        from lcpbridge.errors import TransportError

        seen, waits = [], []
        monkeypatch.setattr(llm.time, "sleep", waits.append)
        headers = [] if retry_after is None else [("Retry-After", retry_after)]
        with self.stub_server(429, b"slow down", seen, headers) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5)
            with pytest.raises(TransportError, match="provider error HTTP 429: slow down$"):
                client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))
        assert len(seen) == 1 + llm.MAX_RETRIES == 3
        assert waits == [wait, wait]

    @pytest.mark.parametrize("body", [
        b"not json",
        b'{"choices": []}',
        b'{"choices": [{"message": {}}]}',
        b'[1, 2]',
        b'{"choices": [{"message": {"content": 5}}]}',
    ], ids=["not-json", "no-choices", "no-content", "list", "content-not-text"])
    def test_malformed_body_is_transport_failure(self, body):
        from lcpbridge.errors import TransportError

        with self.stub_server(200, body) as endpoint:
            client = HttpVisionClient(endpoint=endpoint, model="m", api_key="k", timeout=5)
            with pytest.raises(TransportError, match="unexpected provider response shape"):
                client.complete(VisionRequest(prompt_text="x", images=(IMAGE,)))

    def test_request_needs_an_image(self):
        with pytest.raises(ValueError):
            VisionRequest(prompt_text="x", images=())


class TestExtract:
    def test_prose_plus_block(self):
        completion = ("Sure! Here is the diagram:\n\n@startuml\nclass Book {\n"
                      "  title : string\n}\n@enduml\nHope this helps.")
        result = extract_model(completion)
        assert class_named(result.model, "Book") is not None

    def test_no_markers(self):
        with pytest.raises(NoPlantUmlBlockError):
            extract_model("there is no diagram here")

    def test_start_without_end(self):
        with pytest.raises(NoPlantUmlBlockError):
            extract_model("@startuml\nclass A")

    def test_two_blocks_first_wins_with_warning(self):
        completion = ("@startuml\nclass First\n@enduml\n"
                      "@startuml\nclass Second\n@enduml")
        result = extract_model(completion)
        assert class_named(result.model, "First") is not None
        assert class_named(result.model, "Second") is None
        assert any("more than one" in w for w in result.warnings)

    def test_parse_error_carries_block_text(self):
        completion = '@startuml\nA "x..y" -- "1" B\n@enduml'
        with pytest.raises(Exception) as err:
            extract_model(completion)
        assert "@startuml" in err.value.details.get("block_text", "")


def _model_ab(with_assoc: bool) -> DomainModel:
    classes = (Class("A", (Property("x", primitive_type("int")),)), Class("B"))
    associations = ()
    if with_assoc:
        associations = (Association(
            "A_B",
            AssociationEnd("a", "A", Multiplicity(0, None)),
            AssociationEnd("b", "B", Multiplicity(0, 1))),)
    return DomainModel("M", classes=classes, associations=associations)


class TestMerge:
    def test_inferred_associations_added(self):
        partial = _model_ab(with_assoc=False)
        inferred = _model_ab(with_assoc=True)
        merged, report = merge_models(partial, inferred)
        assert len(merged.associations) == 1
        assert report.added_associations == ["A_B"]
        assert report.added_classes == []

    def test_identical_models_merge_to_empty_report(self):
        partial = _model_ab(with_assoc=True)
        merged, report = merge_models(partial, _model_ab(with_assoc=True))
        assert model_equal(merged, partial)
        assert is_empty(report)

    def test_type_conflict_partial_wins(self):
        partial = DomainModel("M", classes=(
            Class("Book", (Property("pages", primitive_type("int")),)),))
        inferred = DomainModel("M", classes=(
            Class("Book", (Property("pages", primitive_type("str")),)),))
        merged, report = merge_models(partial, inferred)
        assert class_named(merged, "Book").properties[0].type.primitive == "int"
        assert len(report.conflicts) == 1
        assert report.conflicts[0].resolution == "PARTIAL_WINS"

    def test_merge_with_empty_is_identity_both_ways(self, library_model):
        merged_right, report_right = merge_models(library_model, empty_model("E"))
        assert model_equal(merged_right, library_model)
        assert is_empty(report_right)
        merged_left, _ = merge_models(empty_model("E"), library_model)
        assert model_equal(merged_left, library_model)

    def test_case_insensitive_class_matching(self):
        partial = DomainModel("M", classes=(Class("Book"),))
        inferred = DomainModel("M", classes=(
            Class("book", (Property("title", primitive_type("str")),)),))
        merged, report = merge_models(partial, inferred)
        assert [c.name for c in merged.classes] == ["Book"]
        assert report.added_properties == ["Book.title"]

    def test_inferred_association_with_new_class(self):
        partial = DomainModel("M", classes=(Class("A"),))
        inferred = DomainModel("M", classes=(Class("A"), Class("C")),
                               associations=(Association(
                                   "A_C",
                                   AssociationEnd("a", "A", Multiplicity(0, None)),
                                   AssociationEnd("c", "C", Multiplicity(1, 1))),))
        merged, report = merge_models(partial, inferred)
        assert report.added_classes == ["C"]
        assert report.added_associations == ["A_C"]
        assert validate_model(merged).ok

    def test_same_pair_different_shape_is_a_conflict(self):
        partial = _model_ab(with_assoc=True)
        inferred = DomainModel("M", classes=partial.classes, associations=(
            Association("Other",
                        AssociationEnd("a", "A", Multiplicity(1, 1)),
                        AssociationEnd("b", "B", Multiplicity(1, 1))),))
        merged, report = merge_models(partial, inferred)
        assert len(merged.associations) == 1  # partial's stands
        assert report.conflicts and report.conflicts[0].resolution == "PARTIAL_WINS"

    def test_class_named_like_a_partial_enumeration_takes_its_edges_along(self):
        partial = DomainModel("M", classes=(Class("Book"), Class("Shelf")),
                              enumerations=(Enumeration("Status", ("OPEN",)),))
        inferred = DomainModel(
            "M", classes=(Class("Book"), Class("Shelf"), Class("status")),
            associations=(Association("Book_status",
                                      AssociationEnd("book", "Book", Multiplicity(0, None)),
                                      AssociationEnd("status", "status", Multiplicity(0, 1))),),
            generalizations=(Generalization("status", "Shelf"),))
        merged, report = merge_models(partial, inferred)
        assert model_equal(merged, partial)
        assert report.as_dict() == {
            "added_classes": [], "added_properties": [], "added_associations": [],
            "added_enumerations": [], "added_generalizations": [],
            "conflicts": [
                {"element": "class status",
                 "partial_value": "enumeration Status already present",
                 "inferred_value": "0 properties", "resolution": "PARTIAL_WINS"},
                {"element": "generalization of Shelf",
                 "partial_value": "enumeration Status already present",
                 "inferred_value": "status", "resolution": "PARTIAL_WINS"},
                {"element": "association Book_status",
                 "partial_value": "enumeration Status already present",
                 "inferred_value": "Book[0..*] -- status[0..1]",
                 "resolution": "PARTIAL_WINS"},
            ]}

    def test_enumeration_named_like_a_partial_class_names_the_class(self):
        partial = DomainModel("M", classes=(Class("Status"),))
        inferred = DomainModel("M", enumerations=(Enumeration("status", ("OPEN",)),))
        merged, report = merge_models(partial, inferred)
        assert model_equal(merged, partial)
        assert report.conflicts == [MergeConflict(
            element="enum status", partial_value="class Status already present",
            inferred_value="OPEN")]

    def test_property_of_an_enumeration_named_like_a_partial_class_is_str(self):
        partial = DomainModel("M", classes=(Class("Status"), Class("Order")))
        inferred = DomainModel(
            "M", classes=(Class("Order", (Property("state", enum_type("Status")),)),),
            enumerations=(Enumeration("Status", ("OPEN",)),))
        merged, report = merge_models(partial, inferred)
        assert class_named(merged, "Order").properties == \
            (Property("state", primitive_type("str")),)
        assert report.added_properties == ["Order.state"]
        assert report.conflicts[-1] == MergeConflict(
            element="Order.state", partial_value="class Status",
            inferred_value="enumeration Status")

    def test_merge_laws_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(60):
            partial, inferred = random_merge_pair(rng)
            merged, report = merge_models(partial, inferred)
            assert validate_model(merged).ok

            # partial preservation: every partial element survives unchanged
            partial_classes = {c.name: c for c in partial.classes}
            for cls in merged.classes:
                if cls.name in partial_classes:
                    original = partial_classes[cls.name]
                    kept = {p.name: p for p in cls.properties}
                    for prop in original.properties:
                        assert kept[prop.name].type.key() == prop.type.key()
            merged_assoc_names = {a.name for a in merged.associations}
            assert {a.name for a in partial.associations} <= merged_assoc_names

            # the report's added lists exactly cover the inferred-only elements
            partial_names = {c.name.lower() for c in partial.classes}
            expected_added = {c.name for c in inferred.classes
                              if c.name.lower() not in partial_names}
            assert set(report.added_classes) == expected_added
            for conflict in report.conflicts:
                assert conflict.resolution == "PARTIAL_WINS"


class TestMergeReportJson:
    """``MergeReport.to_json`` against the standard library's encoder."""

    @staticmethod
    def standard(report: MergeReport) -> str:
        return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"

    def test_empty_report(self):
        assert MergeReport().to_json() == self.standard(MergeReport())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**31))
    def test_any_report(self, seed):
        report = random_merge_report(random.Random(seed))
        assert report.to_json() == self.standard(report)

    def test_merged_reports(self):
        rng = random.Random(7)
        for _ in range(40):
            _, report = merge_models(*random_merge_pair(rng))
            assert report.to_json() == self.standard(report)
