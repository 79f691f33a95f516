"""One closed-loop client in a fresh single-threaded process.

    python3 perfbench/worker.py CONFIG.json

``run.py`` writes the config: the lcpbridge source directory, the platform
pair, the migration batch and where to write outputs. In ``measure`` mode the
worker sends the batch through ``execute_migration`` pass after pass until
the run time is used up, timing the calibration loop of ``calibrate.py``
between calls, then checks the last pass's artifacts. In ``trace`` mode it
alternates untraced passes with passes under ``spans.instrument`` and reports
per-layer self times. The last line of stdout is one JSON object for ``run.py``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

CONFIG = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
sys.path.insert(0, CONFIG["src"])

import lcpbridge  # noqa: E402
from lcpbridge.capabilities import load_capabilities  # noqa: E402
from lcpbridge.llm import ReplayVisionClient  # noqa: E402
from lcpbridge.pipeline import ExecutionOptions, MigrationInputs, execute_migration  # noqa: E402
from lcpbridge.planner import plan_migration  # noqa: E402
from lcpbridge.tabular import load_tabular  # noqa: E402

import checks  # noqa: E402
from calibrate import calibration_seconds  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

SHIPPED_CAPABILITIES = Path(lcpbridge.__file__).parent / "assets" / "capabilities.toml"
LAYERS = (
    "mendix.load", "mendix.map", "model.validate", "dsl.save", "dsl.load", "relational.plan",
    "relational.emit", "tabular.load_csv", "tabular.load_xlsx", "tabular.infer", "llm.prompt",
    "llm.complete", "llm.extract", "llm.merge", "workbook.plan", "xlsx.write", "loss.write",
)
SCALED_LAYERS = ("mendix.map", "model.validate", "dsl.save", "dsl.load", "relational.plan",
                 "relational.emit", "llm.extract", "llm.merge", "workbook.plan", "xlsx.write")


def accept_unchanged(pivot_path: Path) -> None:
    """Review hook that accepts model.bml as written, like a --review pass with no edits."""


def prepare(migrations: list[dict], client) -> list[tuple[dict, MigrationInputs]]:
    return [(m, MigrationInputs(files=[Path(f) for f in m["files"]],
                                images=[Path(f) for f in m["images"]], llm_client=client))
            for m in migrations]


def run_pass(plan, batch, out: Path, options, times: list[float], raised: dict,
             calibrations: list[float] | None = None) -> float:
    """One pass over the batch; returns the summed execute_migration time."""
    total = 0.0
    for migration, inputs in batch:
        if calibrations is not None:  # untimed, between calls
            calibrations.append(calibration_seconds())
        begin = time.perf_counter()
        try:
            execute_migration(plan, inputs, out / migration["id"], options)
        except Exception as exc:  # a failed migration is counted and the loop goes on
            raised.setdefault(migration["id"], []).append(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - begin)
        total += times[-1]
    return total


def check_outputs(batch, out: Path, skip) -> dict[str, list[str]]:
    """Problems per migration whose artifacts fail the workload's check."""
    check = checks.CHECKS[CONFIG["workload"]]
    failing = {}
    for migration, _ in batch:
        if migration["id"] in skip:
            continue
        try:
            problems = check(out / migration["id"], migration["expect"])
        except Exception as exc:  # an unreadable artifact fails the check
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failing[migration["id"]] = problems
    return failing


def first_problems(*groups: dict) -> list[str]:
    return [f"{ident}: {problems[0]}" for group in groups
            for ident, problems in group.items()][:5]


def model_elements(model) -> int:
    return (len(model.classes) + sum(len(c.properties) for c in model.classes)
            + len(model.associations) + len(model.generalizations)
            + len(model.enumerations) + sum(len(e.literals) for e in model.enumerations))


def median_call(fn) -> float:
    samples = []
    for _ in range(15):
        begin = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - begin)
    return statistics.median(samples)


def measure(plan, batch, out: Path, options) -> dict:
    smallest = min(batch, key=lambda b: sum(Path(f).stat().st_size for f in b[0]["files"]))
    execute_migration(plan, smallest[1], out / "warmup", options)
    times: list[float] = []
    passes: list[float] = []
    calibrations: list[float] = []  # one before each call and one after the last
    raised: dict = {}
    started = time.perf_counter()
    passes.append(run_pass(plan, batch, out, options, times, raised, calibrations))
    # read after one pass over the batch: later passes repeat the same work,
    # but the high-water mark still creeps over the first few of them, which
    # would tie the figure to how many passes fit in the run
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(passes) < CONFIG["min_passes"] or (  # stop before a pass would overrun
            (time.perf_counter() - started) * (len(passes) + 1) / len(passes)
            <= CONFIG["seconds"]):
        passes.append(run_pass(plan, batch, out, options, times, raised, calibrations))
    calibrations.append(calibration_seconds())
    failing = check_outputs(batch, out, raised)
    failed = sum(map(len, raised.values())) + len(passes) * len(failing)
    return {"times": times, "passes": passes, "calibrations": calibrations, "rss_mb": rss_mb,
            "attempted": len(times), "failed": failed,
            "problems": first_problems(raised, failing)}


def traced_pass(plan, batch, out: Path, options, raised: dict) -> tuple[float, Tracer, int]:
    tracer = Tracer()
    elements = 0
    started = time.perf_counter()
    with instrument(tracer):
        for migration, inputs in batch:
            tracer.migration = migration["id"]
            try:
                with tracer.span("migration"):
                    result = execute_migration(plan, inputs, out / migration["id"], options)
            except Exception as exc:  # a failed migration is counted and the loop goes on
                raised.setdefault(migration["id"], []).append(f"{type(exc).__name__}: {exc}")
                continue
            elements += model_elements(result.model)
    return time.perf_counter() - started, tracer, elements


def scale_ratios(plan, options, client) -> dict[str, float]:
    """Per-layer self time at 2,000 classes over that at 1,000, best of two rounds."""
    pair = prepare(CONFIG["scale"], client)
    best: list[dict[str, float]] = [{}, {}]
    out = Path(CONFIG["out"]) / "scale"
    for _ in range(2):
        for index, (migration, inputs) in enumerate(pair):
            tracer = Tracer()
            with instrument(tracer):
                execute_migration(plan, inputs, out / migration["id"], options)
            for name, seconds in tracer.self_times().items():
                best[index][name] = min(seconds, best[index].get(name, seconds))
    return {name: best[1][name] / best[0][name] for name in SCALED_LAYERS
            if best[0].get(name) and name in best[1]}


def trace(plan, batch, out: Path, options, client) -> dict:
    matrix = load_capabilities(SHIPPED_CAPABILITIES)
    metrics = {
        "capabilities.load_s": median_call(lambda: load_capabilities(SHIPPED_CAPABILITIES)),
        "planner.plan_s": median_call(
            lambda: plan_migration(CONFIG["source"], CONFIG["target"], matrix=matrix)),
    }
    execute_migration(plan, batch[0][1], out / "warmup", options)
    untraced: list[float] = []
    traced: list[float] = []
    layer_runs: list[dict[str, float]] = []
    raised: dict = {}
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < CONFIG["seconds"]:
        if len(traced) % 2:  # alternate which side goes first
            untraced.append(run_pass(plan, batch, out / "plain", options, [], raised))
        seconds, tracer, elements = traced_pass(plan, batch, out / "traced", options, raised)
        traced.append(seconds)
        layer_runs.append(tracer.self_times())
        if len(traced) % 2:
            untraced.append(run_pass(plan, batch, out / "plain", options, [], raised))
    failing = check_outputs(batch, out / "traced", raised)

    selfs = {name: statistics.median(run.get(name, 0.0) for run in layer_runs)
             for name in set().union(*layer_runs)}
    # what execute_migration does outside the layer calls: the loss report's
    # union, to_json and write, plus screenshot reads, mkdirs and merge-report.json
    selfs["loss.write"] = selfs.pop("migration", 0.0)
    for name in LAYERS:
        metrics[f"{name}_s"] = selfs.get(name, 0.0)
    attempts = tracer.calls["llm.complete"]
    metrics["llm.attempts"] = attempts
    metrics["llm.parsed_share"] = tracer.returned["llm.extract"] / attempts if attempts else 0.0

    peak = 0
    for _, inputs in batch:
        tabular = [p for p in inputs.files if p.suffix.lower() in (".csv", ".xlsx")]
        if tabular:
            tracemalloc.start()
            load_tabular(tabular)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    metrics["tabular.load_peak_mb"] = peak / 2**20

    ratios = {}
    if CONFIG["scale"]:
        try:
            ratios = scale_ratios(plan, options, client)
        except Exception as exc:  # the 1k/2k pair fails like any migration
            raised["scale pair"] = [f"{type(exc).__name__}: {exc}"]
    for name in SCALED_LAYERS:
        metrics[f"{name}.x2"] = ratios.get(name, 0.0)
    metrics["model.elements"] = elements
    metrics["artifacts.bytes"] = sum(p.stat().st_size for p in (out / "traced").rglob("*")
                                     if p.is_file())
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1
    tracer.dump(Path(CONFIG["trace_file"]))
    total = sum(selfs.values())
    shares = {name: selfs[name] / total for name in sorted(selfs, key=selfs.get, reverse=True)}
    failed = 2 * len(traced) * len(set(raised) | set(failing))
    return {"metrics": metrics, "shares": shares, "attempted": 2 * len(batch) * len(traced),
            "failed": failed, "problems": first_problems(raised, failing)}


def main() -> None:
    plan = plan_migration(CONFIG["source"], CONFIG["target"])
    options = ExecutionOptions(review_hook=accept_unchanged if CONFIG["review"] else None)
    client = ReplayVisionClient(CONFIG["fixtures"]) if CONFIG["fixtures"] else None
    batch = prepare(CONFIG["migrations"], client)
    out = Path(CONFIG["out"])
    if CONFIG["mode"] == "trace":
        result = trace(plan, batch, out, options, client)
    else:
        result = measure(plan, batch, out, options)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
