"""Command-line front end for trajectories and reconstruction sweeps.

The command line is read from one table, ``_OPTIONS``.  Only ``-h`` and a
usage error build an argparse parser from that table, to lay out the help or
the usage line and ``timetomo: error: ...`` line of the error (which exits
with status 2) for an 80-column terminal; argparse never reads ``argv``.  An
option is spelled out in full, as ``--name value`` or ``--name=value``; the
token after a valued option is its value even when it starts with ``-``.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .harness import emit_trajectory, load_config, run_manifest, write_manifest

_PROG = "timetomo"
_DESCRIPTION = "Simulate time-domain photonic tomography and reconstruct states from noisy counts."
_HELP_FLAGS = ("-h", "--help")

_COMMANDS = {
    "trajectory": "emit the Bloch trajectory of a measurement operator",
    "qubit-sweep": "fidelity sweep over a single-qubit state grid",
    "ortho-sweep": "trace-distance sweep over orthogonal state pairs",
    "entangled-sweep": "concurrence and fidelity sweep over entangled pairs",
}


def _int_value(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


def _workers_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"workers must be an integer, got {text!r}") from None
    if value < 1:
        raise ValueError("workers must be at least 1")
    return value


_REQUIRED = object()

# One row per option: (name, metavar, convert, default, help, sweep only).  A
# row without a metavar is a flag, which reads True when given; the default
# _REQUIRED marks an option that must be given.
_OPTIONS = (
    ("--config", "CONFIG", str, _REQUIRED, "path to the JSON config", False),
    ("--seed", "SEED", _int_value, None, "override the config seed", False),
    ("--out", "OUT", str, None, "override the config output directory", False),
    (
        "--workers", "WORKERS", _workers_value, 1,
        "at most this many processes fit; small sweeps run in one process", True,
    ),
    ("--dump-counts", None, None, False, "write raw counts per cell", True),
    ("--state-log", None, None, False, "write per-state estimate log", True),
)


def _options(command: str) -> tuple:
    return tuple(row for row in _OPTIONS if command != "trajectory" or not row[5])


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _parser(command: str | None):
    """The argparse parser of ``command`` (of the whole program when None), built only to print help or an error.

    ``_parse_args`` reads the command line itself; the parser lays out the
    text, for an 80-column terminal whatever the real one is.
    """
    # imported only here: argparse and the gettext lookup behind its messages
    # cost more than most stages of a small call
    import argparse
    import functools

    formatter = functools.partial(argparse.HelpFormatter, width=78, max_help_position=24)
    if command is None:
        parser = argparse.ArgumentParser(prog=_PROG, description=_DESCRIPTION, formatter_class=formatter)
        commands = parser.add_subparsers()
        for name, text in _COMMANDS.items():
            commands.add_parser(name, help=text)
        return parser
    parser = argparse.ArgumentParser(prog=f"{_PROG} {command}", formatter_class=formatter)
    for name, metavar, _, default, text, _ in _options(command):
        if metavar is None:
            parser.add_argument(name, action="store_true", help=text)
        else:
            parser.add_argument(name, metavar=metavar, required=default is _REQUIRED, help=text)
    return parser


def _usage_error(command: str | None, message: str):
    _parser(command).error(message)


def _print_help(command: str | None):
    _parser(command).print_help()
    raise SystemExit(0)


def _parse_args(argv: list[str]) -> tuple[str, dict]:
    """The subcommand named by ``argv`` and its options by name, defaults filled in.

    ``-h``/``--help`` prints the help and exits with status 0; a usage error
    exits with status 2.  Errors are reported in this order: a bad
    value as its option is read, then a missing ``--config``, then every
    argument left over, in one line.  A repeated option keeps its last value.
    """
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command in _HELP_FLAGS:
        _print_help(None)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    known = {row[0]: row for row in _options(command)}
    args = {_dest(name): default for name, _, _, default, _, _ in _OPTIONS}
    left = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP_FLAGS:
            _print_help(command)
        name, equals, value = token.partition("=")
        if name not in known:
            left.append(token)
            continue
        _, metavar, convert, _, _, _ = known[name]
        if metavar is None:
            if equals:
                _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            args[_dest(name)] = True
            continue
        if not equals:
            value = next(tokens, None)
            if value is None:
                _usage_error(command, f"argument {name}: expected one argument")
        try:
            args[_dest(name)] = convert(value)
        except ValueError as exc:
            _usage_error(command, f"argument {name}: {exc}")
    if args["config"] is _REQUIRED:
        _usage_error(command, "the following arguments are required: --config")
    if left:
        _usage_error(None, "unrecognized arguments: " + " ".join(left))
    return command, args


def main(argv=None) -> int:
    command, args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        cfg = load_config(args["config"], seed=args["seed"], out_dir=args["out"])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if command == "trajectory":
        # the one subcommand whose mode is its own name
        expected_modes = (command,)
    else:
        # imported only for a sweep subcommand: a trajectory call never loads the sweep's modules
        from .sweep import MODES, run_sweep, write_sweep_csv

        expected_modes = tuple(mode for mode, m in MODES.items() if m.command == command)
    if cfg.mode not in expected_modes:
        print(
            f"error: config mode {cfg.mode!r} does not fit subcommand {command!r} "
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
    if command == "trajectory":
        path = emit_trajectory(cfg)
        write_manifest(out / "manifest.json", run_manifest(command, cfg))
        print(path)
        return 0

    rows = run_sweep(cfg, workers=args["workers"], dump_counts=args["dump_counts"], state_log=args["state_log"])
    csv_path = write_sweep_csv(out / "results.csv", rows)
    write_manifest(out / "manifest.json", run_manifest(command, cfg))
    print(csv_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
