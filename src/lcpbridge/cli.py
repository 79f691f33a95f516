"""Command-line front end: lcpbridge <subcommand>.

Exit codes: 0 success, 1 domain error (validation failure, missing input,
unknown platform...), 2 usage error. Diagnostics go to stderr; artifacts go
to files under --out.
"""

from __future__ import annotations

import argparse
import json
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
    if getattr(args, "capabilities", None):
        return load_capabilities(args.capabilities)
    return default_matrix()


def _llm_client(args, config: dict):
    from .llm import API_KEY_ENV, HttpVisionClient, ReplayVisionClient

    llm_config = config.get("llm", {})
    mode = getattr(args, "llm_mode", None) or llm_config.get("mode", "replay")
    if mode == "replay":
        replay_dir = getattr(args, "replay_dir", None) or llm_config.get("replay_dir")
        if not replay_dir:
            return None
        replay_path = Path(replay_dir)
        if not replay_path.is_dir():
            raise ConfigError(f"replay directory {replay_path} does not exist")
        return ReplayVisionClient(replay_path)
    if mode == "live":
        endpoint = getattr(args, "endpoint", None) or llm_config.get("endpoint")
        model_id = getattr(args, "model_id", None) or llm_config.get("model")
        api_key = os.environ.get(API_KEY_ENV) or llm_config.get("api_key", "")
        if not endpoint or not model_id:
            raise ConfigError("live LLM mode needs --endpoint and --model-id "
                              "(or llm.endpoint / llm.model in lcpbridge.toml)")
        if not api_key:
            raise ConfigError(f"live LLM mode needs an API key ({API_KEY_ENV} or llm.api_key)")
        return HttpVisionClient(endpoint=endpoint, model=model_id, api_key=api_key)
    raise ConfigError(f"unknown llm mode {mode!r} (expected live or replay)")


def _add_llm_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--llm-mode", choices=("live", "replay"),
                        help="vision model backend (default: replay)")
    parser.add_argument("--replay-dir", help="directory of <digest>.txt completions")
    parser.add_argument("--endpoint", help="live chat-completions endpoint URL")
    parser.add_argument("--model-id", help="live model identifier")


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--capabilities", help="override the capability registry file")
    parser.add_argument("--config", help=f"config file (default ./{CONFIG_FILE})")


def _review_hook(pivot_path: Path):
    print(f"pivot model written to {pivot_path}; edit it now if needed.",
          file=sys.stderr)
    input("press Enter to continue... ")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcpbridge",
        description="Migrate structural data models between low-code platforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capabilities", help="show a platform's export/import support")
    p.add_argument("--platform", help="platform id (omit to list all)")
    _add_common_flags(p)
    p.set_defaults(run=_cmd_capabilities)

    p = sub.add_parser("plan", help="plan a migration path between two platforms")
    p.add_argument("--from", dest="source", required=True, metavar="PLATFORM")
    p.add_argument("--to", dest="target", required=True, metavar="PLATFORM")
    _add_common_flags(p)
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser("migrate", help="plan and execute a migration")
    p.add_argument("--from", dest="source", required=True, metavar="PLATFORM")
    p.add_argument("--to", dest="target", required=True, metavar="PLATFORM")
    p.add_argument("--input", nargs="*", default=[], metavar="FILE",
                   help="export files from the source platform (.json/.csv/.xlsx)")
    p.add_argument("--image", nargs="*", default=[], metavar="FILE",
                   help="screenshot(s) of the source data model (.png/.jpg)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--review", action="store_true",
                   help="pause after writing model.bml so it can be edited")
    p.add_argument("--dialect", choices=("oracle", "ansi"), default="oracle")
    p.add_argument("--no-sample-row", action="store_true",
                   help="omit the example data row from generated workbooks")
    _add_llm_flags(p)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_migrate)

    p = sub.add_parser("import", help="run a single import adapter to a pivot model")
    p.add_argument("adapter", choices=sorted(IMPORTERS))
    p.add_argument("--input", nargs="*", default=[], metavar="FILE")
    p.add_argument("--image", nargs="*", default=[], metavar="FILE")
    p.add_argument("--platform", default="powerapps",
                   help="source platform (for the image-llm prompt context)")
    p.add_argument("--out", required=True)
    _add_llm_flags(p)
    _add_common_flags(p)
    p.set_defaults(run=_cmd_import)

    p = sub.add_parser("export", help="run a single generator from a pivot model")
    p.add_argument("adapter", choices=sorted(EXPORTERS))
    p.add_argument("--model", required=True, help="pivot model file (.bml)")
    p.add_argument("--out", required=True)
    p.add_argument("--dialect", choices=("oracle", "ansi"), default="oracle")
    p.add_argument("--no-sample-row", action="store_true")
    _add_common_flags(p)
    p.set_defaults(run=_cmd_export)

    p = sub.add_parser("validate", help="check a pivot model file")
    p.add_argument("--model", required=True, help="pivot model file (.bml)")
    _add_common_flags(p)
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
    matrix = _matrix_from(args)
    plan = plan_migration(args.source, args.target, matrix=matrix)
    print(json.dumps(plan.as_dict(), indent=2, sort_keys=True))
    print(f"export: {plan.export_method} / import: {plan.import_method} "
          f"via {' -> '.join(plan.chain)}", file=sys.stderr)
    return 0


def _cmd_migrate(args, config: dict) -> int:
    matrix = _matrix_from(args)
    plan = plan_migration(args.source, args.target, matrix=matrix)
    inputs = MigrationInputs(
        files=[Path(p) for p in args.input],
        images=[Path(p) for p in args.image],
        llm_client=_llm_client(args, config) if "image-llm" in plan.chain else None,
    )
    if "image-llm" in plan.chain and inputs.llm_client is None:
        raise ConfigError("this migration needs the vision-model path: configure "
                          "--llm-mode/--replay-dir or the [llm] config section")
    options = ExecutionOptions(
        dialect=args.dialect,
        include_sample_row=not args.no_sample_row,
        review_hook=_review_hook if args.review else None,
    )
    result = execute_migration(plan, inputs, Path(args.out), options)
    for path in result.outputs:
        print(path)
    print(result.loss.summary(), file=sys.stderr)
    return 0


def _cmd_import(args, config: dict) -> int:
    inputs = MigrationInputs(
        files=[Path(p) for p in args.input],
        images=[Path(p) for p in args.image],
        llm_client=_llm_client(args, config),
    )
    result = execute_import([args.adapter], inputs, args.platform, args.out,
                            matrix=_matrix_from(args))
    print(result.pivot_path)
    print(result.loss.summary(), file=sys.stderr)
    return 0


def _cmd_export(args, config: dict) -> int:
    options = ExecutionOptions(dialect=args.dialect,
                               include_sample_row=not args.no_sample_row)
    result = execute_from_pivot(args.model, args.adapter, args.out, options)
    for path in result.outputs:
        print(path)
    print(result.loss.summary(), file=sys.stderr)
    return 0


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
