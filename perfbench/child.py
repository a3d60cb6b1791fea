"""One timetomo command-line call in a fresh interpreter.

    python3 perfbench/child.py setup CONFIG PROCESSES
    python3 perfbench/child.py call CONFIG PROCESSES -- CLI_ARGS...
    python3 perfbench/child.py trace CONFIG PROCESSES SPANS_OUT -- CLI_ARGS...

Every mode imports timetomo from the checkout's ``src`` and parses CONFIG
with ``load_config``; that is the set-up a user pays on every call.
``call`` then runs ``timetomo.cli.main(CLI_ARGS)`` untouched; ``trace`` runs
it with the probes installed and writes the recorded spans to SPANS_OUT at
exit.  Every mode then times ``reference_s``, a fixed computation run in
PROCESSES processes at once (the number of processes the call keeps busy),
once after set-up and, in ``call`` and ``trace``, once more after ``main``.
The last line of standard output is a JSON record with the monotonic time
at which set-up finished (run.py started its clock before launching
this process), the wall time of ``main``, the reference times, and peak
resident sets.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _reference_once() -> float:
    import numpy

    start = time.perf_counter()
    total = 0
    for k in range(300_000):
        total += k * k
    small = numpy.eye(2, dtype=complex)
    for _ in range(8_000):
        small = small @ small
    values = numpy.linspace(0.0, 1.0, 20_000)
    for _ in range(400):
        values = numpy.sin(values)
    return time.perf_counter() - start


def reference_s(processes: int) -> float:
    """Mean time of ``processes`` simultaneous runs of a fixed computation.

    The mix mirrors the program's (an interpreted loop, 2x2 complex
    products, elementwise work on small arrays) and allocates little, so it
    leaves the resident-set peaks alone.  run.py scales this process's
    times by it to take out the host's speed.
    """
    children = []
    for _ in range(processes - 1):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_end, repr(_reference_once()).encode())
            finally:
                os._exit(0)  # never run the parent's code on in the copy
        os.close(write_end)
        children.append((pid, read_end))
    times = [_reference_once()]
    for pid, read_end in children:
        with os.fdopen(read_end) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _import_timetomo():
    sys.path.insert(0, str(SRC))
    import timetomo
    import timetomo.cli
    from timetomo.harness import load_config

    if SRC not in Path(timetomo.__file__).resolve().parents:
        raise SystemExit(f"timetomo was imported from {timetomo.__file__}, not from {SRC}")
    return timetomo, load_config


def main(argv):
    mode, config, processes = argv[0], argv[1], int(argv[2])
    timetomo, load_config = _import_timetomo()
    load_config(config)
    setup_done = time.monotonic()
    record = {"setup_done": setup_done, "reference_s": [reference_s(processes)]}
    if mode != "setup":
        cli_args = argv[argv.index("--") + 1:]
        tracer = None
        if mode == "trace":
            import probes
            from spans import Tracer

            tracer = probes.install(Tracer())
        start = time.perf_counter()
        if tracer is None:
            code = timetomo.cli.main(cli_args)
        else:
            with tracer.span("cli.main"):
                code = timetomo.cli.main(cli_args)
        record["wall_s"] = time.perf_counter() - start
        record["exit_code"] = code
        record["reference_s"].append(reference_s(processes))
        if tracer is not None:
            payload = tracer.drain()
            payload["skipped"] = probes.SKIPPED
            Path(argv[3]).write_text(json.dumps(payload))
    import numpy
    import scipy

    record["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "timetomo": timetomo.__version__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
