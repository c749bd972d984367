"""Command-line harness: run the experiment matrix, replay logs, validate configs."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace

from .catalog import DEPLOYMENT_NAMES
from .harness import (
    ConfigError,
    ExperimentMatrix,
    MatrixFaults,
    PolicySpec,
    ScriptedKind,
    execute_matrix,
    expand_matrix,
    load_builtin_config,
    load_run_file,
    replay_out_dir,
    validate_matrix,
)
from .metrics import SummaryTables

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2


def _load_config(path: str | None) -> ExperimentMatrix:
    try:
        return load_run_file(path) if path else load_builtin_config()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"config unreadable: {exc}") from None


def _apply_overrides(matrix: ExperimentMatrix, args: argparse.Namespace) -> ExperimentMatrix:
    overrides = {}
    if getattr(args, "policy", None):
        wanted = set(args.policy)
        missing = wanted - {p.label for p in matrix.policies}
        if missing:
            raise ConfigError(f"--policy names not in config: {sorted(missing)}")
        overrides["policies"] = [p for p in matrix.policies if p.label in wanted]
    if getattr(args, "seed_base", None) is not None:
        overrides["seed_base"] = args.seed_base
    return replace(matrix, **overrides) if overrides else matrix


def cmd_validate(args: argparse.Namespace) -> int:
    matrix = _load_config(args.config)
    problems = validate_matrix(matrix, offline=args.offline)
    if problems:
        raise MatrixFaults(problems)
    cells = expand_matrix(matrix)
    print(f"config ok: {len(cells)} cells "
          f"({len(matrix.policies)} policies x {len(matrix.deployments)} deployments "
          f"x {len(matrix.modes)} persistence modes x {len(matrix.seeds)} seeds)")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    matrix = _apply_overrides(_load_config(args.config), args)
    tables = execute_matrix(matrix, args.out, workers=args.workers, offline=args.offline)
    _print_tables(tables)
    print(f"results written to {args.out} "
          f"({len({(p, d) for (p, d, _), runs in tables.cells.items() if runs})} deployment cells)")
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    _print_tables(replay_out_dir(args.out))
    return EXIT_OK


def cmd_mock_demo(args: argparse.Namespace) -> int:
    matrix = ExperimentMatrix(
        policies=[PolicySpec(label="scripted", kind=ScriptedKind())],
        deployments=[args.deployment],
        modes=["deterministic"],
        seeds=[args.seed],
    )
    _print_tables(execute_matrix(matrix, args.out, offline=True))
    print(f"mock demo complete; logs in {args.out}")
    return EXIT_OK


def _print_tables(tables: SummaryTables) -> None:
    for name, text in tables.files():
        if name.endswith(".txt"):
            print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="honeysim",
        description="Adaptive honeypot exposure simulator: run experiment matrices and score them.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the experiment matrix from a config file")
    run.add_argument("--config", help="run config YAML (defaults to the built-in config)")
    run.add_argument("--out", required=True, help="results directory")
    run.add_argument("--workers", type=int, default=1, help="parallel cells")
    run.add_argument("--policy", action="append", help="restrict to named policies (repeatable)")
    run.add_argument("--seed-base", type=int, default=None, help="override the base seed")
    run.add_argument("--offline", action="store_true", help="forbid HTTP model backends")
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", help="recompute summary tables from stored episode logs")
    replay.add_argument("--out", required=True, help="results directory from a previous run")
    replay.set_defaults(func=cmd_replay)

    validate = sub.add_parser("validate", help="check a run config without executing it")
    validate.add_argument("--config", help="run config YAML (defaults to the built-in config)")
    validate.add_argument("--offline", action="store_true", help="forbid HTTP model backends")
    validate.set_defaults(func=cmd_validate)

    demo = sub.add_parser(
        "mock-demo", help="full pipeline on a scripted backend, no network access"
    )
    demo.add_argument("--out", default="mock_demo_out", help="results directory")
    demo.add_argument(
        "--deployment",
        default="fully_vulnerable",
        choices=DEPLOYMENT_NAMES,
    )
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(func=cmd_mock_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except MatrixFaults as exc:  # a matrix that cannot be built: one line per fault
        for fault in exc.faults:
            print(f"violation: {fault}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
