"""Migration benchmark for lcpbridge: seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload formal-sql --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports lcpbridge from ``src/`` and
needs nothing outside the standard library. Each workload is a closed loop:
one client in one fresh single-threaded worker process sends a fixed seeded
batch of migrations through ``plan_migration`` and ``execute_migration``,
pass after pass, for ``--seconds``. The planner's own traffic sets the mix:
over the 10x10 platform pairs, 90 chains end in ``workbook``, 60 go through
``image-llm``, 50 through ``tabular`` and 10 each through ``mendix-json`` and
``apex-sql``.

* ``formal-sql``: Mendix JSON to Apex (``mendix-json -> apex-sql``, Oracle
  dialect). A review hook accepts ``model.bml`` unchanged, so the pivot file
  is written and read back. The only formal-to-formal path; its time goes to
  mendix, model, dsl and relational.
* ``screenshot-workbook``: PowerApps to OutSystems (``tabular -> image-llm ->
  workbook``), partial CSV exports plus screenshots, with vision answers
  replayed from fixtures recorded in setup. One migration in four gets a
  malformed first answer, so the re-prompt path runs. The dominant traffic
  shape; its time goes to tabular inference, llm, plantuml, merge, workbook
  and XLSX writing.
* ``bulk-rows``: OutSystems to Apex (``tabular -> apex-sql``) on row-heavy
  data exports of 20,000 rows in 2 to 6 tables, five as one shared-strings
  workbook and four as CSV files. Its cost grows with rows, not classes; it
  reads XLSX where ``screenshot-workbook`` writes it.

``--trace 0`` reports the end-to-end metrics. Every time among them is scaled
to a reference machine speed (see ``calibrate.py``): the worker times a fixed
calibration loop between migrations and scales each call by the mean of the
calibrations right before and right after it; the unscaled figures go to
stderr.

* ``batch_s``: median over the passes of one pass's summed scaled
  ``execute_migration`` time over the whole batch;
* ``migrate_p50_s`` and ``migrate_p75_s``: the median and the inclusive p75
  over the batch's migrations (11, or 9 on ``bulk-rows``) of each migration's
  median time across at least ``MIN_PASSES`` passes. With so few values, 2 or 3
  migrations lie beyond p75: it marks the upper rungs of the size ladder, not
  a tail of single calls;
* ``peak_rss_mb``: the worker's ``ru_maxrss`` after the first pass,
  tracemalloc off;
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of ``import
  lcpbridge`` plus ``default_matrix()`` plus ``plan_migration`` for the
  workload's pair, each scaled by a calibration the same process runs after.

Migrations that raise or whose artifacts fail the checks in ``checks.py``
count as ``failed``. ``--trace 1`` reports per-layer self times, in unscaled
wall seconds, from spans around the pipeline's calls into each layer (see
``spans.py``) and writes the spans to ``.perfbench_out/``.

Every run also sends both README scenarios through ``lcpbridge.cli.main``
twice, reading ``tests/data/`` and requiring exit 0 and identical artifacts.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TEST_DATA = ROOT / "tests" / "data"

MIN_PASSES = 4
SETUP_SAMPLES = 15
DEADLINE_S = 170  # every run ends well inside 180 s

# Sizes follow a fixed ladder in a fixed order, the same for every seed; the
# seed draws the content. Batches are odd, so the median is one migration's
# time, not the mean of two sizes. Every bulk-rows migration holds the same
# number of rows, split over 2 to 6 tables; workbooks (even rungs) outnumber
# CSV sets (odd rungs) by one, so both percentiles fall among the workbooks
# rather than in the gap between the two formats.
WORKLOADS = {
    "formal-sql": {"source": "mendix", "target": "apex", "review": True,
                   "batch": 11, "classes": (150, 900)},
    "screenshot-workbook": {"source": "powerapps", "target": "outsystems", "review": False,
                            "batch": 11, "classes": (20, 400)},
    "bulk-rows": {"source": "outsystems", "target": "apex", "review": False,
                  "batch": 9, "tables": (2, 6), "rows": 20000},
}
PER_LAYER_UNITS = {"llm.attempts": "count", "llm.parsed_share": "ratio",
                   "tabular.load_peak_mb": "MB", "model.elements": "count",
                   "artifacts.bytes": "bytes", "trace.overhead": "ratio"}

SETUP_PROBE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import lcpbridge
from lcpbridge.capabilities import default_matrix
lcpbridge.plan_migration(sys.argv[2], sys.argv[3], matrix=default_matrix())
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[4])
from calibrate import calibration_seconds
print(elapsed, calibration_seconds(repeats=5))
"""


class Failure(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Inputs and replay fixtures


def make_batch(name: str, seed: int, folder: Path, traced: bool) -> dict:
    """Write the workload's inputs; returns the migrations and the 1k/2k scale pair."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    folder.mkdir(parents=True)
    scale = []
    if name == "formal-sql":
        sizes = inputs.size_ladder(spec["batch"], *spec["classes"])
        migrations = [inputs.formal_sql_migration(rng, folder, f"m{k:02d}", n)
                      for k, n in enumerate(sizes)]
        if traced:
            scale = [inputs.formal_sql_migration(rng, folder, f"x{n}", n) for n in (1000, 2000)]
    elif name == "screenshot-workbook":
        images = inputs.write_image_pool(rng, folder)
        sizes = inputs.size_ladder(spec["batch"], *spec["classes"])
        migrations = [inputs.screenshot_migration(rng, folder, f"m{k:02d}", n, images,
                                                  malformed_first=k % 4 == 1)
                      for k, n in enumerate(sizes)]
        if traced:
            scale = [inputs.screenshot_migration(rng, folder, f"x{n}", n, images, max_rows=3)
                     for n in (1000, 2000)]
    else:
        tables = inputs.size_ladder(spec["batch"], *spec["tables"])
        migrations = [inputs.bulk_rows_migration(rng, folder, f"m{k:02d}", k % 2 == 0,
                                                 [spec["rows"] // n] * n)
                      for k, n in enumerate(tables)]
    return {"migrations": migrations, "scale": scale}


def record_fixtures(plan, migrations: list[dict], fixtures: Path, out: Path) -> list[str]:
    """Run each migration once with a scripted vision model that stores every exchange.

    The timed runs then replay the stored answers. Returns the problems
    seen; a migration that fails here fails again when timed.
    """
    from lcpbridge.llm import ReplayVisionClient, VisionModelClient
    from lcpbridge.pipeline import MigrationInputs, execute_migration

    store = ReplayVisionClient(fixtures)

    class ScriptedVisionModel(VisionModelClient):
        def __init__(self, migration: dict):
            self.migration = migration
            self.requests = 0

        def complete(self, request) -> str:
            self.requests += 1
            answer = self.migration["answer"]
            if self.migration["malformed_first"] and self.requests == 1:
                answer = inputs.truncated_answer(answer)
            store.store(request, answer)
            return answer

    problems = []
    for migration in migrations:
        client = ScriptedVisionModel(migration)
        try:
            execute_migration(plan, MigrationInputs(
                files=[Path(f) for f in migration["files"]],
                images=[Path(f) for f in migration["images"]], llm_client=client),
                out / migration["id"])
        except Exception as exc:  # reported; the timed run counts the failure
            problems.append(f"{migration['id']}: recording failed: {type(exc).__name__}: {exc}")
        expected = 2 if migration["malformed_first"] else 1
        if client.requests != expected:
            problems.append(f"{migration['id']}: {client.requests} vision requests, "
                            f"expected {expected}")
    shutil.rmtree(out, ignore_errors=True)
    return problems


# ---------------------------------------------------------------------------
# Set-up time and the CLI scenarios


def setup_seconds(source: str, target: str, env: dict) -> float:
    """Scaled median over fresh processes; the first, which compiles bytecode, is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), source, target,
                               str(HERE)], capture_output=True, text=True, env=env, timeout=60)
        if done.returncode != 0:
            raise Failure(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
        elapsed, calibration = map(float, done.stdout.split())
        samples.append(elapsed * REFERENCE_S / calibration)
    return statistics.median(samples[1:])


def cli_scenarios(work: Path) -> list[str]:
    """Both README scenarios through ``lcpbridge.cli.main``, twice each."""
    from lcpbridge.cli import main as cli_main
    from lcpbridge.planner import plan_migration

    import checks

    csvs = sorted(str(p) for p in (TEST_DATA / "csv").glob("*.csv"))
    work.mkdir(parents=True)
    screenshot = work / "model.png"
    screenshot.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(256)) * 8)
    replay = work / "replay"
    scripted = {"id": "scenario-b", "files": csvs, "images": [str(screenshot)],
                "malformed_first": False,
                "answer": (TEST_DATA / "replay_completion.txt").read_text(encoding="utf-8")}
    problems = record_fixtures(plan_migration("powerapps", "apex"), [scripted], replay,
                               work / "record")

    scenarios = {
        "a": ["migrate", "--from", "mendix", "--to", "powerapps",
              "--input", str(TEST_DATA / "mendix_library.json")],
        "b": ["migrate", "--from", "powerapps", "--to", "apex", "--input", *csvs,
              "--image", str(screenshot), "--llm-mode", "replay", "--replay-dir", str(replay)],
    }
    for name, argv in scenarios.items():
        outs = [work / f"{name}{i}" for i in (1, 2)]
        for out in outs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = cli_main(argv + ["--out", str(out)])
                except Exception as exc:  # a crash fails the scenario like an exit code
                    code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                problems.append(f"scenario {name} exited {code}: {err.getvalue().strip()}")
        if all(out.is_dir() for out in outs):
            problems += [f"scenario {name}: {p}" for p in checks.same_artifacts(*outs)]
    return problems


# ---------------------------------------------------------------------------
# The run


def run_worker(config: dict, work: Path, env: dict, deadline: float) -> dict:
    path = work / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path)],
                              stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"worker did not finish within {DEADLINE_S} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise Failure(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measured(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup: float) -> dict:
    calibrations = result["calibrations"]  # taken before each call and after the last
    times = [t * REFERENCE_S * 2 / (before + after)  # pass after pass, in batch order
             for t, before, after in zip(result["times"], calibrations, calibrations[1:])]
    size = len(times) // len(result["passes"])
    per_migration = [statistics.median(times[i::size]) for i in range(size)]
    return {
        "batch_s": measured(statistics.median(
            sum(times[k:k + size]) for k in range(0, len(times), size)), "s"),
        "migrate_p50_s": measured(statistics.median(per_migration), "s"),
        "migrate_p75_s": measured(
            statistics.quantiles(per_migration, n=4, method="inclusive")[2], "s"),
        "peak_rss_mb": measured(result["rss_mb"], "MB"),
        "setup_s": measured(setup, "s"),
    }


def per_layer(result: dict) -> dict:
    return {name: measured(value, PER_LAYER_UNITS.get(name, "s" if name.endswith("_s")
                                                      else "ratio"))
            for name, value in result["metrics"].items()}


def report(workload: str, metrics: dict, result: dict, problems: list[str]) -> None:
    attempted, failed = result["attempted"], result["failed"]
    lines = [f"{workload}: {attempted} migrations, {failed} failed, "
             f"fail_rate {failed / attempted:.4f} ratio"]
    if "passes" in result:
        passes = len(result["passes"])
        lines.append(f"  {passes} passes of {len(result['times']) // passes} migrations; "
                     f"unscaled batch {statistics.median(result['passes']):.4g} s, "
                     f"calibration {statistics.median(result['calibrations']) * 1e3:.3g} ms "
                     f"(reference {REFERENCE_S * 1e3:g} ms)")
    lines += [f"  {name:24} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if "shares" in result:
        lines.append("  traced self-time shares:")
        lines += [f"    {name:22} {share:6.1%}" for name, share in result["shares"].items()]
    lines += [f"  problem: {p}" for p in problems + result["problems"]]
    print("\n".join(lines), file=sys.stderr)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "lcpbridge" / "__init__.py").is_file() or not TEST_DATA.is_dir():
        raise Failure(f"run from a checkout of lcpbridge: {SRC / 'lcpbridge'} or "
                      f"{TEST_DATA} is missing")
    spec = WORKLOADS[args.workload]
    traced = args.trace == 1
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPYCACHEPREFIX=str(work / "pycache"), PYTHONHASHSEED="0")
    sys.pycache_prefix = env["PYTHONPYCACHEPREFIX"]
    sys.path.insert(0, str(SRC))
    import lcpbridge
    from lcpbridge.planner import plan_migration

    if Path(lcpbridge.__file__).resolve().parent != (SRC / "lcpbridge").resolve():
        raise Failure(f"imported lcpbridge from {lcpbridge.__file__}, not from {SRC}")
    phases = {}

    def phase(name, fn, *args):
        begin = time.perf_counter()
        value = fn(*args)
        phases[name] = time.perf_counter() - begin
        return value

    try:
        batch = phase("inputs", make_batch, args.workload, args.seed, work / "inputs", traced)
        fixtures = None
        problems: list[str] = []
        if args.workload == "screenshot-workbook":
            fixtures = work / "fixtures"
            problems += phase("fixtures", record_fixtures,
                              plan_migration(spec["source"], spec["target"]),
                              batch["migrations"] + batch["scale"], fixtures, work / "record")
        problems += phase("cli", cli_scenarios, work / "smoke")
        setup = None if traced else phase("setup_s", setup_seconds, spec["source"],
                                          spec["target"], env)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        config = {
            "mode": "trace" if traced else "measure", "workload": args.workload,
            "src": str(SRC), "source": spec["source"], "target": spec["target"],
            "review": spec["review"],
            "fixtures": str(fixtures) if fixtures else None, "out": str(work / "out"),
            "seconds": args.seconds, "min_passes": MIN_PASSES, **batch,
            "trace_file": str(out_dir / f"{args.workload}-seed{args.seed}.trace.json"),
        }
        result = phase("worker", run_worker, config, work, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("set-up phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items()),
          file=sys.stderr)
    metrics = per_layer(result) if traced else end_to_end(result, setup)
    report(args.workload, metrics, result, problems)
    return {"correct": result["failed"] == 0 and not problems,
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args)
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
