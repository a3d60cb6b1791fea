"""Timing wrappers around the calls into each timetomo layer.

Every timetomo module imports the functions it uses by name, so a wrapper
is installed on the attribute its *caller* looks up: ``estimate_state`` is
wrapped as ``timetomo.harness.estimate_state``, ``evolved_matrices`` once
per calling module, and so on.  Each wrapper records a span named
``<layer>.<what>`` and, after the span closes, updates counters from the
call's result.  A target the program no longer has is skipped
and listed, so the traced run keeps working while the code under it changes;
the skipped time then lands in the caller's self time.

Sweep tasks that run in process-pool workers are wrapped on the way out:
``_map_tasks`` hands the pool a picklable task wrapper that records the
worker's spans and returns them with the task result, and the wrapper in
the calling process merges them into its own trace before the harness sees
the results.
"""

from __future__ import annotations

import functools
import importlib
import os

from spans import Tracer

# The tracer that the wrappers in this process report to.  Wrapping is a
# process-wide patch of module attributes, so its tracer is process-wide too.
TRACER: Tracer | None = None
SKIPPED: list[str] = []

BYTES_PER_OPERATOR = 64  # one complex128 2x2 matrix


def _count_estimate(tracer, result):
    tracer.count("estimator.estimates")
    tracer.count("estimator.iterations", result.iterations)
    tracer.count("estimator.converged", bool(result.converged))


def _count_minimize(tracer, result):
    tracer.count("estimator.minimize_calls")
    tracer.count("estimator.objective_evals", int(result.nfev))


def _count_evolved(tracer, result):
    operators = int(result.shape[0])
    tracer.count("measurement.evolved_operators", operators)
    # computed from the result's shape, not measured traffic
    tracer.count("measurement.bytes_computed", operators * BYTES_PER_OPERATOR)
    if tracer.open_span_name() == "measurement.smear":
        tracer.count("measurement.quadrature_nodes", operators)


def _count_unitaries(tracer, result):
    tracer.count("dynamics.unitaries", int(result.size // 4))


# (calling module, attribute it looks up, span name, counter hook)
TARGETS = (
    ("timetomo.cli", "load_config", "cli.config", None),
    ("timetomo.cli", "emit_trajectory", "harness.trajectory", None),
    ("timetomo.cli", "write_sweep_csv", "harness.io", None),
    ("timetomo.cli", "write_manifest", "harness.io", None),
    ("timetomo.harness", "sample_mixed_qubits", "states.sample", None),
    ("timetomo.harness", "sample_pure_qubits", "states.sample", None),
    ("timetomo.harness", "orthogonal_pairs", "states.sample", None),
    ("timetomo.harness", "sample_bell_states", "states.sample", None),
    ("timetomo.harness", "bloch_state", "states.prep", None),
    ("timetomo.harness", "bell_state", "states.prep", None),
    ("timetomo.harness", "qubit_count_set", "counts.set", None),
    ("timetomo.harness", "coincidence_count_set", "counts.set", None),
    ("timetomo.harness", "estimate_state", "estimator.estimate", _count_estimate),
    ("timetomo.estimator", "minimize", "estimator.minimize", _count_minimize),
    ("timetomo.estimator", "model_operator_stack", "estimator.model_stack", None),
    ("timetomo.harness", "fidelity", "metrics.call", None),
    ("timetomo.harness", "concurrence", "metrics.call", None),
    ("timetomo.harness", "trace_distance", "metrics.call", None),
    ("timetomo.harness", "aggregate", "metrics.call", None),
    ("timetomo.harness", "chsh_guarantee", "metrics.call", None),
    ("timetomo.harness", "bloch_trajectory", "measurement.trajectory", None),
    ("timetomo.harness", "jittered_matrices", "measurement.smear", None),
    ("timetomo.counts", "jittered_matrices", "measurement.smear", None),
    ("timetomo.measurement", "jittered_matrices", "measurement.smear", None),
    ("timetomo.harness", "evolved_matrices", "measurement.evolved", _count_evolved),
    ("timetomo.counts", "evolved_matrices", "measurement.evolved", _count_evolved),
    ("timetomo.estimator", "evolved_matrices", "measurement.evolved", _count_evolved),
    ("timetomo.measurement", "evolved_matrices", "measurement.evolved", _count_evolved),
    ("timetomo.measurement", "evolution_unitaries", "dynamics.unitaries", _count_unitaries),
)


def _timed(original, span_name, hook):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with TRACER.span(span_name):
            result = original(*args, **kwargs)
        if hook is not None:
            hook(TRACER, result)
        return result

    return wrapper


def _traced_task(worker, parent_id, caller_pid, task):
    """Run one sweep task under a ``harness.task`` span.

    In the calling process the span simply nests; in a pool worker the
    worker's spans and counters travel back with the result.
    """
    if TRACER is None:  # a worker started by spawn imports this module fresh
        install(Tracer())
    if os.getpid() == caller_pid:
        with TRACER.span("harness.task"):
            return worker(task), None
    TRACER.claim_process()
    with TRACER.span("harness.task", parent=parent_id):
        result = worker(task)
    return result, TRACER.drain()


def _traced_map(original):
    @functools.wraps(original)
    def wrapper(worker, tasks, *args, **kwargs):
        with TRACER.span("harness.map") as map_id:
            task = functools.partial(_traced_task, worker, map_id, os.getpid())
            pairs = original(task, tasks, *args, **kwargs)
        results = []
        for result, payload in pairs:
            if payload is not None:
                TRACER.absorb(payload)
            results.append(result)
        return results

    return wrapper


def install(tracer: Tracer) -> Tracer:
    """Patch the timetomo names listed in TARGETS to report to ``tracer``."""
    global TRACER
    TRACER = tracer
    for module_name, attr, span_name, hook in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            SKIPPED.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, _timed(original, span_name, hook))

    harness = importlib.import_module("timetomo.harness")
    if hasattr(harness, "_map_tasks"):
        harness._map_tasks = _traced_map(harness._map_tasks)
    else:
        SKIPPED.append("timetomo.harness._map_tasks")
    artifacts = getattr(harness, "_CellArtifacts", None)
    if artifacts is not None:
        artifacts.write = _timed(artifacts.write, "harness.io", None)
    else:
        SKIPPED.append("timetomo.harness._CellArtifacts.write")
    cli = importlib.import_module("timetomo.cli")
    runners = getattr(cli, "_RUNNERS", None)
    if runners is not None:
        for command, runner in list(runners.items()):
            runners[command] = _timed(runner, "harness.sweep", None)
    else:
        SKIPPED.append("timetomo.cli._RUNNERS")
    return tracer
