"""Command-line front end for trajectories and reconstruction sweeps."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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


def _workers_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"workers must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("workers must be at least 1")
    return value


_COMMANDS = {
    "trajectory": "emit the Bloch trajectory of a measurement operator",
    "qubit-sweep": "fidelity sweep over a single-qubit state grid",
    "ortho-sweep": "trace-distance sweep over orthogonal state pairs",
    "entangled-sweep": "concurrence and fidelity sweep over entangled pairs",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, with only the subparser of ``command`` when it names a subcommand.

    ``main`` passes its first argument, so a call builds one subparser
    instead of four.  A trimmed parser spells out every subcommand in its
    usage line, as the full one does by default, so the help and the errors
    read the same either way.
    """
    trimmed = command in _COMMANDS
    parser = argparse.ArgumentParser(
        prog="timetomo",
        description="Simulate time-domain photonic tomography and reconstruct states from noisy counts.",
    )
    every = "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every if trimmed else None)
    for name, help_text in _COMMANDS.items():
        if trimmed and name != command:
            continue
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the config output directory")
        if name != "trajectory":
            cmd.add_argument(
                "--paper-scale",
                action="store_true",
                help="use the full-size state samples instead of the desk-scale defaults",
            )
            cmd.add_argument(
                "--workers",
                type=_workers_type,
                default=1,
                help="at most this many processes fit; small sweeps run in one process",
            )
            cmd.add_argument("--dump-counts", action="store_true", help="write raw counts per cell")
            cmd.add_argument("--state-log", action="store_true", help="write per-state estimate log")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = load_config(
            args.config, seed=args.seed, out_dir=args.out, paper_scale=getattr(args, "paper_scale", False)
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    if args.command == "trajectory":
        path = emit_trajectory(cfg)
        write_manifest(out / "manifest.json", run_manifest(args.command, cfg))
        print(path)
        return 0

    rows = run_sweep(cfg, workers=args.workers, dump_counts=args.dump_counts, state_log=args.state_log)
    csv_path = write_sweep_csv(out / "results.csv", rows)
    write_manifest(out / "manifest.json", run_manifest(args.command, cfg))
    print(csv_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
