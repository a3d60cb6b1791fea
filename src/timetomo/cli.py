"""Command-line front end for trajectories and reconstruction sweeps."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .counts import MAX_SEED
from .harness import (
    MODES,
    TrajectoryConfig,
    emit_trajectory,
    load_config,
    run_manifest,
    run_sweep,
    write_manifest,
    write_sweep_csv,
)


def _seed_type(text: str) -> int:
    value = int(text)
    if not (0 <= value <= MAX_SEED):
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _workers_type(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timetomo",
        description="Simulate time-domain photonic tomography and reconstruct states from noisy counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("trajectory", "emit the Bloch trajectory of a measurement operator"),
        ("qubit-sweep", "fidelity sweep over a single-qubit state grid"),
        ("ortho-sweep", "trace-distance sweep over orthogonal state pairs"),
        ("entangled-sweep", "concurrence and fidelity sweep over entangled pairs"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=_seed_type, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output directory")
        cmd.add_argument(
            "--paper-scale",
            action="store_true",
            help="use the full-size state samples instead of the desk-scale defaults",
        )
        if name != "trajectory":
            cmd.add_argument("--workers", type=_workers_type, default=1, help="parallel worker processes")
            cmd.add_argument("--dump-counts", action="store_true", help="write raw counts per cell")
            cmd.add_argument("--state-log", action="store_true", help="write per-state estimate log")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(
        args.config, seed=args.seed, out_dir=args.out, paper_scale=args.paper_scale
    )
    commands = {"trajectory": "trajectory", **{name: m.command for name, m in MODES.items()}}
    expected_modes = tuple(mode for mode, command in commands.items() if command == args.command)
    mode = "trajectory" if isinstance(cfg, TrajectoryConfig) else cfg.mode
    if mode not in expected_modes:
        print(
            f"error: config mode {mode!r} does not fit subcommand {args.command!r} "
            f"(expected one of {expected_modes})",
            file=sys.stderr,
        )
        return 2

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "trajectory":
        path = emit_trajectory(cfg)
        write_manifest(out / "manifest.json", run_manifest(args.command, cfg))
        print(path)
        return 0

    rows = run_sweep(
        cfg,
        workers=args.workers,
        artifact_dir=out if (args.dump_counts or args.state_log) else None,
        dump_counts=args.dump_counts,
        state_log=args.state_log,
    )
    csv_path = write_sweep_csv(out / "results.csv", rows)
    write_manifest(out / "manifest.json", run_manifest(args.command, cfg))
    print(csv_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
