"""Command-line front end: lcpbridge <subcommand>.

Exit codes: 0 success, 1 domain error (validation failure, missing input,
unknown platform...), 2 usage error. Diagnostics go to stderr; artifacts go
to files under --out.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .capabilities import (
    DIRECTIONS,
    CapabilityMatrix,
    default_matrix,
    load_capabilities,
    load_toml,
    typed_value,
)
from .errors import ConfigError, LcpBridgeError
from .pipeline import (
    EXPORTERS,
    IMPORTERS,
    INPUT_SUFFIXES,
    ExecutionOptions,
    MigrationInputs,
    execute_from_pivot,
    execute_import,
    execute_migration,
)
from .planner import plan_migration

CONFIG_FILE = "lcpbridge.toml"
_LLM_KEYS = ("mode", "replay_dir", "endpoint", "model", "api_key")  # all strings


def _load_config(path: str | None) -> dict:
    """Read lcpbridge.toml (explicit path, else cwd); flags override it."""
    candidate = Path(path) if path else Path(CONFIG_FILE)
    if not candidate.exists():
        if path:
            raise ConfigError(f"config file {candidate} not found")
        return {}
    config = load_toml(candidate, str(candidate))
    llm_config = typed_value(config.get("llm", {}), dict, f"{candidate}: llm")
    for key in _LLM_KEYS:
        typed_value(llm_config.get(key, ""), str, f"{candidate}: llm.{key}")
    return config


def _matrix_from(args) -> CapabilityMatrix:
    return load_capabilities(args.capabilities) if args.capabilities else default_matrix()


def _llm_client(args, config: dict):
    from .llm import API_KEY_ENV, HttpVisionClient, ReplayVisionClient

    llm_config = config.get("llm", {})
    mode = args.llm_mode or llm_config.get("mode", "replay")
    if mode == "replay":
        replay_dir = args.replay_dir or llm_config.get("replay_dir")
        if not replay_dir:
            return None
        replay_path = Path(replay_dir)
        if not replay_path.is_dir():
            raise ConfigError(f"replay directory {replay_path} does not exist")
        return ReplayVisionClient(replay_path)
    if mode == "live":
        endpoint = args.endpoint or llm_config.get("endpoint")
        model_id = args.model_id or llm_config.get("model")
        api_key = os.environ.get(API_KEY_ENV) or llm_config.get("api_key", "")
        if not endpoint or not model_id:
            raise ConfigError("live LLM mode needs --endpoint and --model-id "
                              "(or llm.endpoint / llm.model in lcpbridge.toml)")
        if not api_key:
            raise ConfigError(f"live LLM mode needs an API key ({API_KEY_ENV} or llm.api_key)")
        return HttpVisionClient(endpoint=endpoint, model=model_id, api_key=api_key)
    raise ConfigError(f"unknown llm mode {mode!r} (expected live or replay)")


def _inputs(args, config: dict, chain) -> MigrationInputs:
    """The run's files and screenshots, with a vision-model client only when
    the chain holds the image-llm step, which cannot run without one."""
    client = None
    if "image-llm" in chain:
        client = _llm_client(args, config)
        if client is None:
            raise ConfigError("step 'image-llm' needs a vision-model client: configure "
                              "--llm-mode/--replay-dir or the [llm] config section")
    return MigrationInputs(files=[Path(p) for p in args.input],
                           images=[Path(p) for p in args.image], llm_client=client)


def _options(args, review: bool = False) -> ExecutionOptions:
    return ExecutionOptions(dialect=args.dialect, include_sample_row=not args.no_sample_row,
                            review_hook=_review_hook if review else None)


def _report(paths, loss) -> int:
    for path in paths:
        print(path)
    print(loss.summary(), file=sys.stderr)
    return 0


def _review_hook(pivot_path: Path):
    print(f"pivot model written to {pivot_path}; edit it now if needed.",
          file=sys.stderr)
    input("press Enter to continue... ")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpbridge",
        description="Migrate structural data models between low-code platforms.")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by subcommands, through ``parents=``
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--capabilities", help="override the capability registry file")
    common.add_argument("--config", help=f"config file (default ./{CONFIG_FILE})")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--from", dest="source", required=True, metavar="PLATFORM")
    pair.add_argument("--to", dest="target", required=True, metavar="PLATFORM")
    inputs = argparse.ArgumentParser(add_help=False)
    suffixes = "/".join(s for group in INPUT_SUFFIXES.values() for s in group)
    inputs.add_argument("--input", nargs="*", default=[], metavar="FILE",
                        help=f"export files from the source platform ({suffixes})")
    inputs.add_argument("--image", nargs="*", default=[], metavar="FILE",
                        help="screenshot(s) of the source data model (.png/.jpg)")
    inputs.add_argument("--llm-mode", choices=("live", "replay"),
                        help="vision model backend (default: replay)")
    inputs.add_argument("--replay-dir", help="directory of <digest>.txt completions")
    inputs.add_argument("--endpoint", help="live chat-completions endpoint URL")
    inputs.add_argument("--model-id", help="live model identifier")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    outputs = argparse.ArgumentParser(add_help=False, parents=[out])
    outputs.add_argument("--dialect", choices=("oracle", "ansi"), default="oracle")
    outputs.add_argument("--no-sample-row", action="store_true",
                         help="omit the example data row from generated workbooks")

    p = sub.add_parser("capabilities", parents=[common],
                       help="show a platform's export/import support")
    p.add_argument("--platform", help="platform id (omit to list all)")
    p.set_defaults(run=_cmd_capabilities)

    p = sub.add_parser("plan", parents=[pair, common],
                       help="plan a migration path between two platforms")
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("migrate", parents=[pair, inputs, outputs, common],
                       help="plan and execute a migration")
    p.add_argument("--review", action="store_true",
                   help="pause after writing model.bml so it can be edited")
    p.set_defaults(run=_cmd_migrate)

    p = sub.add_parser("import", parents=[inputs, out, common],
                       help="run a single import adapter to a pivot model")
    p.add_argument("adapter", choices=sorted(IMPORTERS))
    p.add_argument("--platform", default="powerapps",
                   help="source platform (for the image-llm prompt context)")
    p.set_defaults(run=_cmd_import)

    p = sub.add_parser("export", parents=[outputs, common],
                       help="run a single generator from a pivot model")
    p.add_argument("adapter", choices=sorted(EXPORTERS))
    p.add_argument("--model", required=True, help="pivot model file (.bml)")
    p.set_defaults(run=_cmd_export)

    p = sub.add_parser("validate", parents=[common], help="check a pivot model file")
    p.add_argument("--model", required=True, help="pivot model file (.bml)")
    p.set_defaults(run=_cmd_validate)

    return parser


def _cmd_capabilities(args, config: dict) -> int:
    matrix = _matrix_from(args)
    platforms = [args.platform] if args.platform else list(matrix.platform_ids())
    for platform_id in platforms:
        print(f"{matrix.display_name(platform_id)} ({platform_id})")
        for direction in DIRECTIONS:
            print(f"  {matrix.get(platform_id, direction).describe()}")
    return 0


def _cmd_plan(args, config: dict) -> int:
    import json

    plan = plan_migration(args.source, args.target, matrix=_matrix_from(args))
    print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    print(f"export: {plan.export_method} / import: {plan.import_method} "
          f"via {' -> '.join(plan.chain)}", file=sys.stderr)
    return 0


def _cmd_migrate(args, config: dict) -> int:
    plan = plan_migration(args.source, args.target, matrix=_matrix_from(args))
    result = execute_migration(plan, _inputs(args, config, plan.chain), Path(args.out),
                               _options(args, args.review))
    return _report(result.outputs, result.loss)


def _cmd_import(args, config: dict) -> int:
    result = execute_import([args.adapter], _inputs(args, config, [args.adapter]),
                            args.platform, args.out, matrix=_matrix_from(args))
    return _report([result.pivot_path], result.loss)


def _cmd_export(args, config: dict) -> int:
    result = execute_from_pivot(args.model, args.adapter, args.out, _options(args))
    return _report(result.outputs, result.loss)


def _cmd_validate(args, config: dict) -> int:
    from .dsl import load_pivot_file
    from .errors import InvalidModelError

    try:
        model = load_pivot_file(args.model)  # the .bml boundary validates
    except InvalidModelError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"{args.model}: ok ({len(model.classes)} classes, "
          f"{len(model.associations)} associations, "
          f"{len(model.enumerations)} enumerations)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, _load_config(args.config))
    except LcpBridgeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        if "step" in exc.details:
            print(f"  in step '{exc.details['step']}'", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
