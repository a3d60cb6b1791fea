"""Command-line front end for trajectories and reconstruction sweeps.

The command line is read from one table, ``_OPTIONS``, which also gives the
usage lines and the help, laid out for an 80-column terminal.  A usage error
prints a usage line and a ``timetomo: error: ...`` line and exits with status
2.  An option is spelled out in full, as ``--name value`` or ``--name=value``;
the token after a valued option is its value even when it starts with ``-``.
"""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

from .harness import (
    MODES,
    emit_trajectory,
    load_config,
    run_manifest,
    run_sweep,
    write_manifest,
    write_sweep_csv,
)

_PROG = "timetomo"
_DESCRIPTION = "Simulate time-domain photonic tomography and reconstruct states from noisy counts."
_WIDTH = 78  # the text width of an 80-column terminal, less a margin
_HELP_COLUMN = 24  # option help texts start at most this far in
_HELP_FLAGS = ("-h", "--help")

_COMMANDS = {
    "trajectory": "emit the Bloch trajectory of a measurement operator",
    "qubit-sweep": "fidelity sweep over a single-qubit state grid",
    "ortho-sweep": "trace-distance sweep over orthogonal state pairs",
    "entangled-sweep": "concurrence and fidelity sweep over entangled pairs",
}
_CHOICES = "{" + ",".join(_COMMANDS) + "}"


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
        "--paper-scale", None, None, False,
        "use the full-size state samples instead of the desk-scale defaults", True,
    ),
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


def _usage(command: str | None) -> str:
    """The usage line of ``command`` (of the whole program when None); wrapped lines start under ``[-h]``."""
    if command is None:
        prog, parts = _PROG, ["[-h]", _CHOICES, "..."]
    else:
        prog, parts = f"{_PROG} {command}", ["[-h]"]
        for name, metavar, _, default, _, _ in _options(command):
            part = name if metavar is None else f"{name} {metavar}"
            parts.append(part if default is _REQUIRED else f"[{part}]")
    lines, line = [], f"usage: {prog}"
    indent = " " * (len(line) + 1)
    for part in parts:
        if len(line) + 1 + len(part) > _WIDTH:
            lines.append(line)
            line = indent + part
        else:
            line += " " + part
    return "\n".join([*lines, line]) + "\n"


def _entry(head: str, text: str, column: int) -> list[str]:
    """One help entry: ``head``, then ``text`` wrapped from ``column``, on the next line if ``head`` reaches it."""
    wrapped = textwrap.wrap(text, _WIDTH - column)
    lines = [head] if len(head) + 2 > column else [head.ljust(column) + wrapped.pop(0)]
    return lines + [" " * column + line for line in wrapped]


def _help(command: str | None) -> str:
    entries = [("  -h, --help", "show this help message and exit")]
    if command is None:
        lines = ["", *textwrap.wrap(_DESCRIPTION, _WIDTH), "", "positional arguments:", f"  {_CHOICES}"]
        for name, text in _COMMANDS.items():
            lines += _entry(f"    {name}", text, _HELP_COLUMN)
        column = _HELP_COLUMN
    else:
        for name, metavar, _, _, text, _ in _options(command):
            entries.append((f"  {name}" if metavar is None else f"  {name} {metavar}", text))
        column = min(max(len(head) for head, _ in entries) + 2, _HELP_COLUMN)
        lines = []
    lines += ["", "options:"]
    for head, text in entries:
        lines += _entry(head, text, column)
    return _usage(command) + "\n".join(lines) + "\n"


def _usage_error(command: str | None, message: str):
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _print_help(command: str | None):
    sys.stdout.write(_help(command))
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
        cfg = load_config(args["config"], seed=args["seed"], out_dir=args["out"], paper_scale=args["paper_scale"])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if command != (MODES[cfg.mode].command if cfg.mode in MODES else cfg.mode):
        # only trajectory, whose subcommand is its mode, is not in MODES
        expected_modes = tuple(mode for mode, m in MODES.items() if m.command == command) or (command,)
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
