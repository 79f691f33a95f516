"""Adapter-chain execution: runs a migration plan against concrete inputs.

The import leg persists its pivot model as ``model.bml`` so it can be
reviewed, edited and re-used. After a review the file is parsed and validated
again only if its text changed: the printed text of a model parses back to
that same model, which its importer validated already. The export leg reads
that model, or a pivot file from an earlier run, and writes deterministic
functions of it, which is what makes re-runs byte-identical. One runner owns
the output directory, and refuses any input file or screenshot that no step
of its chain reads before the first import runs.

The tabular step loads its files one at a time and infers each file's tables
before the next file is read, so it holds about one input file's sample at a
time (``tabular.SAMPLE_LIMIT`` rows per table), not the sample of every file.

The cyclic garbage collector is paused while a run lasts. A migration builds
and walks tens of thousands of small records but leaves no cycle behind
(``tests/test_pipeline.py::TestCollectorPause`` holds each benchmarked chain to
that), so the collections it would trigger find nothing to free. Cycles made
during a run, by a caller's review hook or a failure's traceback, wait for
the first collection after it.
"""

from __future__ import annotations

import gc
import sys
import threading
from collections import namedtuple
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from . import _PUBLIC
from .errors import (
    LcpBridgeError,
    MissingInputError,
    OutputError,
    PlantUmlError,
    UnusedInputError,
    input_file,
)
from .loss import LossReport

if TYPE_CHECKING:
    from .capabilities import CapabilityMatrix
    from .llm import MergeReport
    from .model import DomainModel
    from .planner import MigrationPlan

REPROMPT_LIMIT = 2  # re-asks after a malformed completion, then manual repair

_MEDIA_TYPES = {".png": "image/png", ".jpg": "image/jpeg", ".jpeg": "image/jpeg"}


class MigrationInputs:
    """The files and screenshots a migration reads, and its vision-model client."""

    __slots__ = ("files", "images", "llm_client")

    def __init__(self, files: list[Path] | None = None, images: list[Path] | None = None,
                 llm_client: object | None = None):
        self.files = [] if files is None else files
        self.images = [] if images is None else images
        self.llm_client = llm_client


class ExecutionOptions:
    """Per-run settings: the SQL dialect, the workbook sample row and a review
    hook, ``callable(path) -> None``, that pauses for edits."""

    __slots__ = ("dialect", "include_sample_row", "review_hook")

    def __init__(self, dialect: str = "oracle", include_sample_row: bool = True,
                 review_hook: object | None = None):
        self.dialect = dialect
        self.include_sample_row = include_sample_row
        self.review_hook = review_hook


class ExecutionResult:
    """What a run produced: the model, its pivot file, the artifacts and the reports."""

    __slots__ = ("model", "pivot_path", "outputs", "loss", "merge_report")

    def __init__(self, model: DomainModel, pivot_path: Path, outputs: list[Path],
                 loss: LossReport, merge_report: MergeReport | None = None):
        self.model = model
        self.pivot_path = pivot_path
        self.outputs = outputs
        self.loss = loss
        self.merge_report = merge_report


@contextmanager
def _writing_to(out_dir: Path) -> Iterator[None]:
    """Create ``out_dir`` and run the writes into it: any OSError (a file or
    directory in the way, no permission, a full disk) is OUTPUT_ERROR."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create output directory {out_dir}: "
                          f"{exc.strerror or exc}") from exc
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {exc.filename or out_dir}: "
                          f"{exc.strerror or exc}") from exc


_pause_lock = threading.Lock()
_pause_depth = 0  # runs under way, in any thread
_pause_restore = False  # whether the first of them found the collector on


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Disable the cyclic collector until the last overlapping run ends, then
    enable it again if the first one found it on. One save and restore per
    run would not do: when two runs overlap, the second saves "off", the
    first turns the collector on again, and the second then leaves it off
    for the rest of the process."""
    global _pause_depth, _pause_restore
    with _pause_lock:
        if _pause_depth == 0:
            _pause_restore = gc.isenabled()
            gc.disable()
        _pause_depth += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_depth -= 1
            if _pause_depth == 0 and _pause_restore:
                gc.enable()


def _read_image(path: Path) -> tuple[Path, str]:
    """A screenshot's path and media type, once the file opens: a request
    reads it a chunk at a time, so the step holds one chunk at most."""
    media_type = _MEDIA_TYPES.get(path.suffix.lower())
    if media_type is None:
        raise MissingInputError(f"unsupported image type {path.suffix!r} for {path}")
    with input_file(path):
        return path, media_type


# ---------------------------------------------------------------------------
# The adapter tables: one row per import adapter and generator, read by the
# planner and the CLI. ``formats`` are the capability-registry tokens an
# importer reads or a generator writes, plus IMG (a screenshot). The runner
# picks an importer's files from ``inputs.files`` by the suffixes of its
# formats, and a format missing from ``INPUT_SUFFIXES`` is a KeyError, not an
# importer given no files; image-llm reads ``inputs.images``. An importer
# returns a model and writes nothing; a generator writes only its own files
# into ``out_dir``.
#
# Each ``run`` calls a layer as an attribute of this module (``_layers.emit_sql``),
# and no layer module is imported here at load time. The first lookup of a
# public name of the package goes to ``__getattr__``, which takes it from the
# package (whose own hook imports the defining module) and keeps it as a
# module global, so importing and planning load no layer and a run loads only
# the layers its chain calls. A name a caller sets on this module (a test's
# monkeypatch, a benchmark's span wrapper) is found before ``__getattr__`` and
# so sees every call, whether or not its layer was loaded yet.

_layers = sys.modules[__name__]


def __getattr__(name: str):
    """Take the package's public ``name`` on its first lookup (PEP 562). Any
    other name, dunders included, is missing: ``__path__`` or ``__all__``
    from the package would make this module pass for a package."""
    if name not in _PUBLIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[__package__], name)
    return value


class Adapter(namedtuple("Adapter", "id formats run")):
    """One import adapter or generator, as its table says: its id, its format
    tokens and the callable that runs it."""

    __slots__ = ()


# format token -> the suffixes of the input files an importer of it reads
INPUT_SUFFIXES = {"JSON": (".json",), "PUML": (".puml", ".plantuml", ".txt"),
                  "CSV": (".csv",), "XLSX": (".xlsx",)}
_ONE_DOCUMENT = ("JSON", "PUML")  # one file holds the whole model


def _input_files(adapter: Adapter, inputs: MigrationInputs) -> list[Path]:
    """The files of ``inputs`` that ``adapter`` reads, chosen by suffix."""
    suffixes = [s for token in adapter.formats if token != "IMG" for s in INPUT_SUFFIXES[token]]
    files = [p for p in inputs.files if p.suffix.lower() in suffixes]
    if suffixes and not files:
        raise MissingInputError(f"step {adapter.id!r} needs an input file with suffix "
                                f"{' or '.join(suffixes)}", step=adapter.id)
    if len(files) > 1 and any(token in _ONE_DOCUMENT for token in adapter.formats):
        raise MissingInputError(f"step {adapter.id!r} reads one input file, not "
                                f"{len(files)}: {', '.join(map(str, files))}", step=adapter.id)
    return files


def _refuse_unread(importers: list[Adapter], generator: Adapter | None,
                   chosen: list[list[Path]], inputs: MigrationInputs) -> None:
    """Refuse the files no importer picked, and the screenshots when no
    importer reads images: a supplied input either shapes the result or
    stops the run before any import."""
    picked = {path for files in chosen for path in files}
    unread = [path for path in inputs.files if path not in picked]
    if not any("IMG" in adapter.formats for adapter in importers):
        unread += inputs.images
    if unread:
        chain = " -> ".join(adapter.id for adapter in (*importers, generator) if adapter)
        raise UnusedInputError(f"no step of {chain} reads {', '.join(map(str, unread))}")


def _import_mendix(files: list[Path], **_):
    (path,) = files
    model, loss = _layers.mendix_to_pivot(_layers.load_mendix_export(path))
    return model, loss, None


def _import_tabular(files: list[Path], **_):
    # one load per file, each table inferred before the next file is read
    tables = (table for path in files for table in _layers.load_tabular([path]))
    model, loss = _layers.infer_model(tables, name="Imported")
    return model, loss, None


def _import_plantuml(files: list[Path], **_):
    (path,) = files
    try:
        with input_file(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise PlantUmlError(f"{path} is not UTF-8 text: {exc}") from exc
    result = _layers.parse_plantuml(text)
    return result.model, result.loss, None


def _import_image(_, *, inputs: MigrationInputs, source_platform: str,
                  partial: DomainModel | None, matrix: CapabilityMatrix | None):
    if not inputs.images:
        raise MissingInputError("step 'image-llm' needs at least one screenshot")
    if inputs.llm_client is None:
        raise MissingInputError("step 'image-llm' needs a configured vision-model client")
    from .llm import ImagePayload, VisionRequest

    images = tuple(ImagePayload(*_read_image(p)) for p in inputs.images)
    prompt = _layers.build_prompt(_layers.load_prompt_context(source_platform, matrix),
                                  partial)
    loss = LossReport()

    # the message only: the exception's traceback would hold this frame,
    # and with it the prompt and the last answer, until a full garbage collection
    attempt_error: str | None = None
    for _ in range(1 + REPROMPT_LIMIT):
        note = "" if attempt_error is None else (
            f"\nThe previous answer could not be parsed as PlantUML: {attempt_error}"
            "\nPlease answer again with one corrected @startuml block.\n")
        request = VisionRequest(prompt_text=prompt + note, images=images)
        completion = _layers.invoke_vision_model(request, inputs.llm_client)
        try:
            result = _layers.extract_model(completion)
        except LcpBridgeError as exc:
            attempt_error = str(exc)
            continue
        loss.extend(result.loss)
        for warning in result.warnings:
            loss.add("model", source_platform, "LLM_INFERRED", "info", warning)
        if partial is None:
            return result.model, loss, None
        merged, merge_report = _layers.merge_models(partial, result.model)
        return merged, loss, merge_report

    # all attempts failed: the runner keeps the raw completion for manual repair
    raise LcpBridgeError(f"step 'image-llm' failed after {REPROMPT_LIMIT} re-prompts: "
                         f"{attempt_error}", completion=completion)


def _export_sql(model: DomainModel, out_dir: Path, options: ExecutionOptions):
    plan, loss = _layers.plan_relational(model)
    path = out_dir / "model.sql"
    path.write_text(_layers.emit_sql(plan, dialect=options.dialect), encoding="utf-8")
    return [path], loss


def _export_workbook(model: DomainModel, out_dir: Path, options: ExecutionOptions):
    manifest, loss = _layers.plan_workbook(model,
                                           include_sample_row=options.include_sample_row)
    return list(_layers.emit_workbook(manifest, out_dir / "model.xlsx")), loss


def _export_csv(model: DomainModel, out_dir: Path, options: ExecutionOptions):
    import csv  # only this generator writes CSV: imported here to keep it out of start-up

    manifest, loss = _layers.plan_workbook(model,
                                           include_sample_row=options.include_sample_row)
    loss.add("model", model.name, "DROPPED", "warning",
             "CSV fallback cannot carry dropdown validations between tables")
    paths = []
    for sheet in manifest.sheets:
        path = out_dir / f"{sheet.name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow([c.header for c in sheet.columns])
            if sheet.sample_row is not None and sheet.columns:
                writer.writerow(sheet.sample_row)
        paths.append(path)
    return paths, loss


def _export_plantuml(model: DomainModel, out_dir: Path, options: ExecutionOptions):
    from .plantuml import export_loss

    text = _layers.emit_plantuml(model)
    loss = export_loss(model, text)  # raises where the importer would refuse the text
    path = out_dir / "model.puml"
    path.write_text(text, encoding="utf-8")
    return [path], loss


IMPORTERS = {a.id: a for a in (
    Adapter("mendix-json", ("JSON",), _import_mendix),
    Adapter("plantuml", ("PUML",), _import_plantuml),
    Adapter("tabular", ("CSV", "XLSX"), _import_tabular),
    Adapter("image-llm", ("IMG",), _import_image),
)}
EXPORTERS = {a.id: a for a in (
    Adapter("apex-sql", ("SQL",), _export_sql),
    Adapter("workbook", ("XLSX",), _export_workbook),
    Adapter("csv", ("CSV",), _export_csv),
    Adapter("plantuml", ("PUML",), _export_plantuml),
)}


@contextmanager
def _step(adapter_id: str) -> Iterator[None]:
    """Name ``adapter_id`` as the step of a coded error raised in the block."""
    try:
        yield
    except LcpBridgeError as exc:
        exc.details["step"] = adapter_id
        raise


def _adapter(table: dict[str, Adapter], kind: str, adapter_id: str) -> Adapter:
    if adapter_id not in table:
        raise LcpBridgeError(f"unknown {kind} adapter {adapter_id!r}")
    return table[adapter_id]


def run_exporter(adapter_id: str, model: DomainModel, out_dir: Path,
                 options: ExecutionOptions) -> tuple[list[Path], LossReport]:
    """Run one generator on an API caller's model, validated here first."""
    adapter = _adapter(EXPORTERS, "export", adapter_id)
    _layers.require_valid(model, "model for export")
    with _step(adapter_id), _writing_to(out_dir):
        return adapter.run(model, out_dir, options)


@_collector_paused()
def _run(importer_ids: Sequence[str], exporter_id: str | None, out_dir: str | Path,
         options: ExecutionOptions, inputs: MigrationInputs | None = None, source: str = "",
         matrix: CapabilityMatrix | None = None, pivot_path: str | Path | None = None,
         expected: LossReport | None = None) -> ExecutionResult:
    """The one execution path, every adapter looked up, every importer's
    files picked and every unread input refused first: the import chain
    (then ``model.bml``, the review hook and, if the hook changed the file's
    text, a re-load that checks the edits) or the model in ``pivot_path``;
    the generator, if any; then the reports. The collector is paused
    throughout."""
    importers = [_adapter(IMPORTERS, "import", i) for i in importer_ids]
    generator = exporter_id and _adapter(EXPORTERS, "export", exporter_id)
    out_dir, loss, merge_report, outputs = Path(out_dir), LossReport(), None, []
    if pivot_path is not None:
        model = _layers.load_pivot_file(pivot_path)
    else:
        model, chosen = None, [_input_files(adapter, inputs) for adapter in importers]
        _refuse_unread(importers, generator, chosen, inputs)
        for adapter, files in zip(importers, chosen):
            with _step(adapter.id):
                try:
                    model, step_loss, step_merge = adapter.run(
                        files, inputs=inputs, source_platform=source, partial=model,
                        matrix=matrix)
                except LcpBridgeError as exc:
                    if "completion" not in exc.details:
                        raise
                    raw_path = out_dir / "llm-completion.txt"
                    with _writing_to(out_dir):
                        raw_path.write_text(exc.details.pop("completion"), encoding="utf-8")
                    exc.args = (f"{exc.args[0]}; raw completion saved to {raw_path} "
                                "for manual repair",)
                    raise
            loss.extend(step_loss)
            merge_report = step_merge or merge_report
        if model is None:
            raise MissingInputError("plan has no import step; nothing to migrate")
        pivot_path = out_dir / "model.bml"

    with _writing_to(out_dir):
        if importers:
            printed = _layers.save_pivot_file(model, pivot_path)
            outputs.append(pivot_path)
            if options.review_hook is not None:
                options.review_hook(pivot_path)
                # unchanged text parses back to the model it was printed from
                if _layers.read_pivot_text(pivot_path) != printed:
                    model = _layers.load_pivot_file(pivot_path)
        if generator:
            with _step(generator.id), _writing_to(out_dir):
                files, export_loss = generator.run(model, out_dir, options)
            outputs += files
            loss.extend(export_loss)
        loss = loss if expected is None else expected.union(loss)
        for name, report in (("loss-report.json", loss), ("merge-report.json", merge_report)):
            if report is not None:
                path = out_dir / name
                path.write_text(report.to_json(), encoding="utf-8")
                outputs.append(path)
    return ExecutionResult(model, Path(pivot_path), outputs, loss, merge_report)


def execute_import(importer_ids: Sequence[str], inputs: MigrationInputs, source_platform: str,
                   out_dir: str | Path, matrix: CapabilityMatrix | None = None,
                   ) -> ExecutionResult:
    """Run only the import leg: the importer chain, model.bml and the reports."""
    return _run(importer_ids, None, out_dir, ExecutionOptions(), inputs, source_platform, matrix)


def execute_migration(plan: MigrationPlan, inputs: MigrationInputs, out_dir: str | Path,
                      options: ExecutionOptions | None = None) -> ExecutionResult:
    """Run the plan's chain end to end, persisting every artifact in out_dir."""
    if not plan.chain or plan.chain[-1] not in EXPORTERS:
        raise MissingInputError(f"plan chain {plan.chain!r} does not end in a generator")
    return _run(plan.chain[:-1], plan.chain[-1], out_dir, options or ExecutionOptions(),
                inputs, plan.source, plan.matrix, expected=plan.expected_losses)


def execute_from_pivot(pivot_path: str | Path, exporter_id: str, out_dir: str | Path,
                       options: ExecutionOptions | None = None) -> ExecutionResult:
    """Re-run only the generation leg from a persisted pivot file."""
    return _run((), exporter_id, out_dir, options or ExecutionOptions(), pivot_path=pivot_path)
