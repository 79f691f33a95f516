"""Vision-model export path: prompt building, client boundary, merge step.

A screenshot of the source platform's diagram goes to a vision model along
with a platform-specific syntax primer and, when available, the partial
model recovered from the platform's tabular export. The completion comes
back as PlantUML, which is parsed and merged with the partial model; the
partial model always wins conflicts because it came from real exported data.

Tests and offline runs use the replay client: completions stored on disk,
keyed by a digest of the exact request.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .capabilities import default_matrix
from .errors import (
    AuthenticationError,
    LlmClientError,
    MissingFixtureError,
    NoCredentialsError,
    NoPlantUmlBlockError,
    TransportError,
    UnknownPlatformError,
    UnreadableFixtureError,
    input_file,
)
from .loss import close_json_list, json_string_list
from .model import (
    Association,
    AssociationEnd,
    Class,
    DomainModel,
    Generalization,
    Property,
    Record,
    association_key,
    enum_type,
    primitive_type,
    require_valid,
)
from .plantuml import END_MARKER, START_MARKER, PlantUmlImport, emit_plantuml, parse_plantuml

API_KEY_ENV = "LCPB_LLM_API_KEY"
MAX_RETRIES = 2  # requests sent again after HTTP 429 or 5xx, at most
RETRY_WAIT_S = 1.0  # the wait before a retry when the answer has no integer Retry-After
RETRY_AFTER_CAP_S = 30  # the longest Retry-After honoured
CHUNK_BYTES = 64 * 1024  # the most of a screenshot file a request reads at once

_PROMPT_DIR = Path(__file__).parent / "assets" / "prompts"


class PromptContext(Record, namedtuple("PromptContext", "display_name syntax_description")):
    """How the prompt names a platform and describes its diagrams."""

    __slots__ = ()


def load_prompt_context(platform_id: str, registry=None) -> PromptContext:
    """Build the platform context from the shipped syntax-primer assets.

    ``registry`` is the capability matrix that names the platform (default:
    the shipped one).
    """
    matrix = registry if registry is not None else default_matrix()
    if platform_id not in matrix.platform_ids():
        raise UnknownPlatformError(f"unknown platform {platform_id!r}")
    asset = _PROMPT_DIR / f"{platform_id}.txt"
    if not asset.exists():
        asset = _PROMPT_DIR / "default.txt"
    text = asset.read_text(encoding="utf-8")
    display = matrix.display_name(platform_id)
    return PromptContext(display_name=display,
                         syntax_description=text.replace("{platform}", display))


class ImagePayload(Record, namedtuple("ImagePayload", "data media_type",
                                      defaults=("image/png",))):
    """One screenshot and its media type, as sent to the vision model:
    ``data`` is its bytes, or a file read a chunk at a time by each hash of
    the request (one chunk held at most; the live client joins it whole)."""

    __slots__ = ()

    def chunks(self) -> Iterator[bytes]:
        """``data`` as it is, or the file's bytes a chunk at a time."""
        if isinstance(self.data, bytes):
            yield self.data
        else:
            with input_file(self.data) as handle:
                yield from iter(lambda: handle.read(CHUNK_BYTES), b"")


class VisionRequest(Record, namedtuple("VisionRequest", "prompt_text images")):
    """One vision-model request: the prompt text and at least one image."""

    __slots__ = ()

    def __new__(cls, prompt_text: str, images: tuple[ImagePayload, ...]):
        if not images:
            raise ValueError("a vision request needs at least one image")
        return super().__new__(cls, prompt_text, images)


def build_prompt(context: PromptContext, partial: DomainModel | None = None) -> str:
    """Assemble the full instruction text sent alongside the screenshot(s)."""
    sections = [
        f"Turn the attached screenshot of a {context.display_name} data model into the "
        "corresponding class diagram in PlantUML notation.",
        f"How {context.display_name} draws data models:\n{context.syntax_description.strip()}",
    ]
    if partial is not None:
        sections.append(
            "A partial model extracted from the platform's own export is given "
            "below in PlantUML. Treat it as ground truth: keep every class, "
            "attribute and enumeration it declares exactly as written, and add "
            "only what is visible in the image but missing from it (typically "
            "the relationships between classes).\n\n" + emit_plantuml(partial).strip()
        )
    sections.append(
        "Answer with a single @startuml ... @enduml block and nothing else."
    )
    return "\n\n".join(sections) + "\n"


def request_digest(request: VisionRequest) -> str:
    """Stable key for replay lookup: prompt text plus raw image bytes, a chunk at a time."""
    import hashlib  # replay and record only: imported here to keep it out of start-up

    hasher = hashlib.sha256()
    hasher.update(request.prompt_text.encode("utf-8"))
    for image in request.images:
        hasher.update(b"\x00")
        for chunk in image.chunks():
            hasher.update(chunk)
    return hasher.hexdigest()


class VisionModelClient:
    """Boundary for completion backends; implementations must be blocking."""

    def complete(self, request: VisionRequest) -> str:
        raise NotImplementedError


class ReplayVisionClient(VisionModelClient):
    """Deterministic store of canned completions, keyed by request digest."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def complete(self, request: VisionRequest) -> str:
        digest = request_digest(request)
        fixture = self.directory / f"{digest}.txt"
        try:
            return fixture.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise MissingFixtureError(digest) from None
        except (OSError, UnicodeDecodeError) as exc:
            raise UnreadableFixtureError(f"cannot read replay fixture {fixture}: {exc}",
                                         digest=digest) from exc

    def store(self, request: VisionRequest, completion: str) -> Path:
        """Save a completion under the request's digest (fixture authoring).

        A failed write is an ``LlmClientError`` that carries the completion,
        so a run that recorded a live answer still keeps it for repair."""
        fixture = self.directory / f"{request_digest(request)}.txt"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fixture.write_text(completion, encoding="utf-8")
        except OSError as exc:
            raise LlmClientError(f"cannot record the answer in {fixture}: "
                                 f"{exc.strerror or exc}", completion=completion) from exc
        return fixture


class HttpVisionClient(VisionModelClient):
    """Live chat-completion client (OpenAI-style image message payload).

    An answer of HTTP 429 or 5xx is retried at most ``MAX_RETRIES`` times,
    after its integer ``Retry-After`` (capped) or ``RETRY_WAIT_S``; a
    rejected credential and a transport failure are not.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None,
                 timeout: float = 120.0, record_dir: str | Path | None = None):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.timeout = timeout
        self.record_dir = Path(record_dir) if record_dir else None

    def complete(self, request: VisionRequest) -> str:
        if not self.api_key:
            raise NoCredentialsError(
                f"no API key configured (set {API_KEY_ENV} or the config file)")
        import base64
        import http.client
        import urllib.error
        import urllib.request

        content: list[dict] = [{"type": "text", "text": request.prompt_text}]
        for image in request.images:
            encoded = base64.b64encode(b"".join(image.chunks())).decode("ascii")
            content.append({
                "type": "image_url",
                "image_url": {"url": f"data:{image.media_type};base64,{encoded}"},
            })
        payload = {"model": self.model,
                   "messages": [{"role": "user", "content": content}]}
        http_request = urllib.request.Request(
            self.endpoint, data=json.dumps(payload).encode("utf-8"), method="POST",
            headers={"Authorization": f"Bearer {self.api_key}",
                     "Content-Type": "application/json"})
        for attempt in range(MAX_RETRIES + 1):
            try:
                with urllib.request.urlopen(http_request, timeout=self.timeout) as response:
                    body = response.read()
                break
            except urllib.error.HTTPError as exc:
                if exc.code in (401, 403):
                    raise AuthenticationError(
                        f"provider rejected credentials (HTTP {exc.code})") from exc
                with exc:
                    text = exc.read().decode("utf-8", errors="replace")
                if attempt == MAX_RETRIES or not (exc.code == 429 or exc.code >= 500):
                    raise TransportError(
                        f"provider error HTTP {exc.code}: {text[:200]}") from exc
                after = (exc.headers.get("Retry-After") or "").strip()
                time.sleep(min(int(after), RETRY_AFTER_CAP_S) if after.isdecimal()
                           else RETRY_WAIT_S)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                # URLError, a timeout, a dropped connection, a malformed URL
                raise TransportError(f"vision endpoint unreachable: {exc}") from exc
        try:
            completion = json.loads(body)["choices"][0]["message"]["content"]
            if not isinstance(completion, str):
                raise TypeError(f"content is {type(completion).__name__}, not text")
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"unexpected provider response shape: {exc}") from exc
        if self.record_dir is not None:
            ReplayVisionClient(self.record_dir).store(request, completion)
        return completion


def invoke_vision_model(request: VisionRequest, client: VisionModelClient) -> str:
    """Send the request through the configured client; returns raw text."""
    return client.complete(request)


def extract_model(completion: str) -> PlantUmlImport:
    """Pull the first @startuml block out of a completion and parse it.

    Extra blocks are ignored with a warning. Parse failures carry the block
    text in their details so a human can repair and re-import it.
    """
    start = completion.find(START_MARKER)
    if start < 0:
        raise NoPlantUmlBlockError("completion contains no @startuml block")
    end = completion.find(END_MARKER, start)
    if end < 0:
        raise NoPlantUmlBlockError("completion has @startuml but no matching @enduml")
    block = completion[start:end + len(END_MARKER)]
    try:
        result = parse_plantuml(block)
    except Exception as exc:
        if hasattr(exc, "details"):
            exc.details["block_text"] = block
        raise
    if completion.find(START_MARKER, end) >= 0:
        result.warnings.append("completion contained more than one PlantUML block; first used")
    return result


# ---------------------------------------------------------------------------
# Partial-model merge


class MergeConflict(Record, namedtuple("MergeConflict",
                                       "element partial_value inferred_value resolution",
                                       defaults=("PARTIAL_WINS",))):
    """A value the partial model and the vision answer disagree on."""

    __slots__ = ()


class MergeReport:
    """What ``merge_models`` added to the partial model, and the conflicts it
    kept. ``added_properties`` lists ``Class.prop`` for classes the partial
    model already had."""

    __slots__ = ("added_classes", "added_properties", "added_associations",
                 "added_enumerations", "added_generalizations", "conflicts")

    def __init__(self, added_classes: list[str] | None = None,
                 added_properties: list[str] | None = None,
                 added_associations: list[str] | None = None,
                 added_enumerations: list[str] | None = None,
                 added_generalizations: list[str] | None = None,
                 conflicts: list[MergeConflict] | None = None):
        self.added_classes = [] if added_classes is None else added_classes
        self.added_properties = [] if added_properties is None else added_properties
        self.added_associations = [] if added_associations is None else added_associations
        self.added_enumerations = [] if added_enumerations is None else added_enumerations
        self.added_generalizations = [] if added_generalizations is None \
            else added_generalizations
        self.conflicts = [] if conflicts is None else conflicts

    def as_dict(self) -> dict:
        return {"added_classes": list(self.added_classes),
                "added_properties": list(self.added_properties),
                "added_associations": list(self.added_associations),
                "added_enumerations": list(self.added_enumerations),
                "added_generalizations": list(self.added_generalizations),
                "conflicts": [c._asdict() for c in self.conflicts]}

    def to_json(self) -> str:
        """``json.dumps(self.as_dict(), indent=2, sort_keys=True)`` plus a
        newline, written directly: the schema is five lists of strings and
        one of conflicts, and ``indent`` sends ``json.dumps`` down its
        pure-Python encoder before 3.13. The writer can go once 3.11 and
        3.12 are dropped."""
        q = encode_basestring_ascii
        out = [f'{{\n  "added_associations": {json_string_list(self.added_associations, 2)},'
               f'\n  "added_classes": {json_string_list(self.added_classes, 2)},'
               f'\n  "added_enumerations": {json_string_list(self.added_enumerations, 2)},'
               f'\n  "added_generalizations": {json_string_list(self.added_generalizations, 2)},'
               f'\n  "added_properties": {json_string_list(self.added_properties, 2)},'
               '\n  "conflicts": [']
        for c in self.conflicts:
            out.append(f'\n    {{\n      "element": {q(c.element)},'
                       f'\n      "inferred_value": {q(c.inferred_value)},'
                       f'\n      "partial_value": {q(c.partial_value)},'
                       f'\n      "resolution": {q(c.resolution)}\n    }},')
        close_json_list(out, self.conflicts, 2)
        out.append("\n}\n")
        return "".join(out)


def _assoc_pair(assoc: Association) -> frozenset:
    return frozenset((assoc.end1.class_name.lower(), assoc.end2.class_name.lower()))


def merge_models(partial: DomainModel, inferred: DomainModel) -> tuple[DomainModel, MergeReport]:
    """Complement the partial model with inferred-only elements.

    Everything in the partial model survives unchanged. The inferred model
    contributes classes, properties, enumerations, generalizations and
    associations that the partial lacks; wherever the two disagree the
    partial value stands and the disagreement is recorded. Classes and
    enumerations share one case-insensitive namespace. Both inputs come from
    validating importers; only the merged result is checked here.
    """
    report = MergeReport()
    # lowercase name -> the surviving element, in output order
    classes = {c.name.lower(): c for c in partial.classes}
    enums = {e.name.lower(): e for e in partial.enumerations}

    for enum in inferred.enumerations:
        low = enum.name.lower()
        mine = enums.get(low)
        if mine is not None:
            if frozenset(mine.literals) != frozenset(enum.literals):
                report.conflicts.append(MergeConflict(
                    element=f"enum {mine.name}",
                    partial_value=", ".join(mine.literals),
                    inferred_value=", ".join(enum.literals)))
        elif low in classes:
            report.conflicts.append(MergeConflict(
                element=f"enum {enum.name}",
                partial_value=f"class {classes[low].name} already present",
                inferred_value=", ".join(enum.literals)))
        else:
            enums[low] = enum
            report.added_enumerations.append(enum.name)

    def repoint(prop: Property) -> Property:
        # inferred names may differ from the surviving element only in case
        if prop.type.kind == "enumeration":
            enum = enums.get(prop.type.enum_name.lower())
            if enum is not None and enum.name != prop.type.enum_name:
                return Property(name=prop.name, type=enum_type(enum.name), is_id=prop.is_id)
        return prop

    def adopt(owner: str, prop: Property) -> Property:
        """``prop`` as it joins class ``owner``: typed str if its enumeration
        lost to a partial class."""
        prop = repoint(prop)
        if prop.type.kind == "enumeration" and prop.type.enum_name.lower() not in enums:
            report.conflicts.append(MergeConflict(
                element=f"{owner}.{prop.name}",
                partial_value=f"class {classes[prop.type.enum_name.lower()].name}",
                inferred_value=f"enumeration {prop.type.enum_name}"))
            return Property(name=prop.name, type=primitive_type("str"), is_id=prop.is_id)
        return prop

    inferred_twins = {c.name.lower(): c for c in inferred.classes}
    for cls in partial.classes:
        inferred_twin = inferred_twins.get(cls.name.lower())
        if inferred_twin is None:
            continue
        props = list(cls.properties)
        own = {p.name.lower(): p for p in props}
        for prop in inferred_twin.properties:
            mine = own.get(prop.name.lower())
            if mine is None:
                props.append(adopt(cls.name, prop))
                report.added_properties.append(f"{cls.name}.{prop.name}")
            elif mine.type.key() != repoint(prop).type.key() or mine.is_id != prop.is_id:
                report.conflicts.append(MergeConflict(
                    element=f"{cls.name}.{mine.name}",
                    partial_value=mine.type.display() + (" id" if mine.is_id else ""),
                    inferred_value=prop.type.display() + (" id" if prop.is_id else "")))
        if len(props) > len(cls.properties):
            classes[cls.name.lower()] = Class(cls.name, tuple(props))
    for cls in inferred.classes:
        low = cls.name.lower()
        if low in classes:
            continue
        if low in enums:
            report.conflicts.append(MergeConflict(
                element=f"class {cls.name}",
                partial_value=f"enumeration {enums[low].name} already present",
                inferred_value=f"{len(cls.properties)} properties"))
            continue
        props = tuple(adopt(cls.name, p) for p in cls.properties)
        classes[low] = cls if props == cls.properties else Class(cls.name, props)
        report.added_classes.append(cls.name)

    def lost_to_enum(*names: str) -> str | None:
        """The partial enumeration that kept one of ``names`` out of the classes."""
        for name in names:
            if name.lower() not in classes:
                return f"enumeration {enums[name.lower()].name} already present"
        return None

    generalizations = list(partial.generalizations)
    parent_of = {g.specific.lower(): g.general for g in generalizations}
    # an ancestor of each class with a parent, moved up to the root as walks pass
    above = {child: general.lower() for child, general in parent_of.items()}
    for gen in inferred.generalizations:
        existing_parent = parent_of.get(gen.specific.lower())
        if existing_parent is not None and existing_parent.lower() == gen.general.lower():
            continue
        # a partial parent of another name, or a class that lost to an enumeration
        objection = existing_parent or lost_to_enum(gen.general, gen.specific)
        if objection is not None:
            report.conflicts.append(MergeConflict(
                element=f"generalization of {gen.specific}",
                partial_value=objection,
                inferred_value=gen.general))
            continue
        general = classes[gen.general.lower()].name
        specific = classes[gen.specific.lower()].name
        # reject edges that would close a cycle through existing ones: the
        # specific class has no parent yet, so one closes where it is the
        # root above the general class
        root, path = general.lower(), []
        while root in above:
            path.append(root)
            root = above[root]
        above.update(dict.fromkeys(path, root))
        if root == specific.lower():
            report.conflicts.append(MergeConflict(
                element=f"generalization of {specific}",
                partial_value="(acyclic hierarchy preserved)",
                inferred_value=general))
            continue
        generalizations.append(Generalization(general, specific))
        parent_of[specific.lower()] = general
        above[specific.lower()] = root
        report.added_generalizations.append(f"{specific}->{general}")

    def end(e: AssociationEnd) -> AssociationEnd:  # copied only if its class is respelled
        name = classes[e.class_name.lower()].name
        return e if name == e.class_name else e._replace(class_name=name)

    associations = list(partial.associations)
    fingerprints = {association_key(a) for a in associations}
    partial_pairs = {_assoc_pair(a): a for a in partial.associations}
    for assoc in inferred.associations:
        clash = lost_to_enum(assoc.end1.class_name, assoc.end2.class_name)
        if clash is not None:
            report.conflicts.append(MergeConflict(
                element=f"association {assoc.name}",
                partial_value=clash,
                inferred_value=_describe_assoc(assoc)))
            continue
        end1, end2 = end(assoc.end1), end(assoc.end2)
        normalized = assoc if (end1, end2) == assoc.ends else Association(assoc.name, end1, end2)
        if association_key(normalized) in fingerprints:
            continue
        clashing = partial_pairs.get(_assoc_pair(normalized))
        if clashing is not None:
            report.conflicts.append(MergeConflict(
                element=f"association {clashing.name}",
                partial_value=_describe_assoc(clashing),
                inferred_value=_describe_assoc(normalized)))
            continue
        associations.append(normalized)
        fingerprints.add(association_key(normalized))
        report.added_associations.append(normalized.name)

    # in the order of their specific classes, as the DSL lists them
    position = {low: i for i, low in enumerate(classes)}
    generalizations.sort(key=lambda g: position[g.specific.lower()])
    merged = DomainModel(
        name=partial.name,
        classes=tuple(classes.values()),
        associations=tuple(associations),
        generalizations=tuple(generalizations),
        enumerations=tuple(enums.values()),
    )
    return require_valid(merged, "merged model"), report


def _describe_assoc(assoc: Association) -> str:
    e1, e2 = assoc.end1, assoc.end2
    return (f"{e1.class_name}[{e1.multiplicity.display()}] -- "
            f"{e2.class_name}[{e2.multiplicity.display()}]")
