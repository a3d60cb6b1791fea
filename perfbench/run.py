"""Benchmark for timetomo: timed CLI calls end to end, and a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports timetomo from ``src``.
NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.

``--trace 0`` times set-up in fresh interpreters (start-up, ``import
timetomo`` and ``load_config``), then makes one ``timetomo`` CLI call after
another on the workload's fixed number of inputs made from the seed (input
i from the seed and i), in turn: each input once, input 0 once more, then
round the inputs again while another call fits in ``--seconds``.  Every call
on an input must write the same bytes as the first, and every call's
outputs go through the workload's gates.  The operations attempted and
failed are counted once per input, so they depend on the seed alone, not
on how many calls the host's speed lets in.  It reports the end-to-end
metrics declared in BENCHMARK.json: the median set-up time, the mean wall
time of a call, operations over total wall time, and the median peak
resident set, with times scaled to a fixed host speed (see
REFERENCE_NOMINAL_S); the report also prints them as timed.

``--trace 1`` makes one call with the probes installed between two plain
calls, all three on input 0, and reports the per-layer metrics
declared in BENCHMARK.json from the traced call's spans, together with the
tracing overhead (traced minus mean plain wall time).

Each run prints a readable report, stores a record with host and version
information under ``.perfbench/results/``, and prints as its last line one
JSON object with the keys correct, attempted, failed and metrics.  Exit
status: 0 when every gate passed, 1 when one failed, 2 when the program
could not be run (then no result line is printed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import PREDICTIONS, WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
TIME_LIMIT_S = 170.0  # per workload; a run must end within 180 s
SETUP_PROBES = 3
# Times are reported at a fixed host speed: the speed at which reference_s()
# in child.py, run in as many processes as the call keeps busy, takes this
# long (its median on the 2-core Xeon host the benchmark was tuned on).
# Shared hosts drift by tens of percent within seconds; every child times
# the reference right after set-up and, if it makes a call, right after the
# call, and each child's times are scaled by this constant over the mean of
# its own reference times, so the scale follows the host's speed at the time
# of the call.
REFERENCE_NOMINAL_S = {1: 0.12, 2: 0.14}
CLOSURE_TOL = 0.05
LAYERS = ("cli", "harness", "states", "counts", "estimator", "measurement", "dynamics", "metrics")


class BenchError(Exception):
    """The program could not be run, so there is no result to report."""


@dataclass
class Call:
    inputs: int  # the call index whose config this call ran
    record: dict
    outcome: Outcome
    output: bytes


def launch(mode: str, args: list[str], deadline: float) -> dict:
    """Run child.py in a fresh interpreter and return its JSON record."""
    command = [sys.executable, str(HERE / "child.py"), mode, *args]
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except BaseException as exc:  # also a timeout, an interrupt or SIGTERM: stop the child first
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the session holds any pool workers too
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"child {mode} did not finish within the time limit") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited with status {proc.returncode}:\n{err.strip()[-3000:]}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = record["setup_done"] - started
    record["elapsed_s"] = time.monotonic() - started
    return record


def cli_call(workload, seed, inputs, work, deadline, spans_out=None) -> Call:
    """One CLI call on the config of call ``inputs``, its outputs checked."""
    config = workload.config(seed, inputs)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    out_dir = work / "out"
    args = [str(config_path), str(workload.processes)]
    mode = "call"
    if spans_out is not None:
        mode = "trace"
        args.append(str(spans_out))
    record = launch(mode, args + ["--", *workload.cli_args(config_path, out_dir)], deadline)
    if record["exit_code"] != 0:
        raise BenchError(f"timetomo exited with status {record['exit_code']}")
    call = Call(inputs, record, workload.check(out_dir, config), (out_dir / workload.output_name).read_bytes())
    shutil.rmtree(out_dir)
    return call


def compare_outputs(workload, calls, seed) -> list[str]:
    """Calls on the same config must write the same bytes."""
    first = {}
    problems = []
    for k, call in enumerate(calls):
        j = first.setdefault(call.inputs, k)
        if call.output != calls[j].output:
            problems.append(
                f"call {k} wrote a {workload.output_name} that differs from call {j}'s "
                f"on the same config (seed {seed}, input {call.inputs})"
            )
    return problems


def measure(workload, seed, seconds, work, deadline):
    """End-to-end metrics of successive untraced calls, set-up probes included in ``seconds``."""
    stop = time.monotonic() + seconds
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(seed, 0)))
    args = [str(config_path), str(workload.processes)]
    launch("setup", args, deadline)  # fills bytecode caches; not counted
    probes = [launch("setup", args, deadline) for _ in range(SETUP_PROBES)]
    calls = []
    # every input, a repeat of input 0, then more rounds while a call fits
    while len(calls) <= workload.inputs or time.monotonic() + max(c.record["elapsed_s"] for c in calls) <= stop:
        calls.append(cli_call(workload, seed, len(calls) % workload.inputs, work, deadline))
    records = [*probes, *(c.record for c in calls)]
    nominal = REFERENCE_NOMINAL_S[workload.processes]
    for record in records:
        record["scale"] = nominal / statistics.mean(record["reference_s"])
    # Wall time is a mean over the calls, not a median: a run goes through
    # the same inputs in turn, and a median would hide the inputs whose
    # estimates run to the iteration limit, the cost a user pays most for.
    operations = sum(c.outcome.operations for c in calls)
    raw_wall = [c.record["wall_s"] for c in calls]
    wall = [c.record["wall_s"] * c.record["scale"] for c in calls]
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.mean(raw_wall),
        "ops_per_s": operations / sum(raw_wall),
    }
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in records),
        "wall_s": statistics.mean(wall),
        "ops_per_s": operations / sum(wall),
        "peak_rss_mb": statistics.median(
            max(c.record["rss_kb"], c.record["children_rss_kb"]) / 1024.0 for c in calls
        ),
    }
    samples = {
        "raw": raw,
        "scale": [r["scale"] for r in records],
        "reference_s": [r["reference_s"] for r in records],
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": raw_wall,
    }
    return values, samples, calls, compare_outputs(workload, calls, seed)


def layer_metrics(payload, traced_wall, plain_wall, workers):
    """Per-layer metrics from the traced call's spans and counters."""
    recorded = payload["spans"]
    counts = defaultdict(float, payload["counts"])
    selfs = spans.self_times(recorded)
    self_by_name = defaultdict(float)
    total_by_name = defaultdict(float)
    durations = defaultdict(list)
    busy = dict.fromkeys(LAYERS, 0.0)
    for span_id, name, start, end, _ in recorded:
        self_by_name[name] += selfs[span_id]
        total_by_name[name] += end - start
        durations[name].append(end - start)
        busy[spans.layer_of(name)] += selfs[span_id]
    tasks = [(s, e) for _, name, s, e, _ in recorded if name == "harness.task"]
    overlap = sum(e - s for s, e in tasks) - spans.covered_length(tasks, float("-inf"), float("inf"))

    def p50(name, scale):
        return spans.nearest_rank(durations[name], 500) * scale if durations[name] else 0.0

    estimates = durations["estimator.estimate"]
    tail_pct, tail = spans.tail_percentile(estimates)
    evals = counts["estimator.objective_evals"]
    values = {
        "dynamics.unitaries": counts["dynamics.unitaries"],
        "dynamics.busy_s": busy["dynamics"],
        "measurement.busy_s": busy["measurement"],
        "measurement.smear_calls": len(durations["measurement.smear"]),
        "measurement.smear_busy_s": self_by_name["measurement.smear"],
        "measurement.evolved_busy_s": self_by_name["measurement.evolved"],
        "measurement.quadrature_nodes": counts["measurement.quadrature_nodes"],
        "measurement.bytes_computed": counts["measurement.bytes_computed"],
        "states.busy_s": busy["states"],
        "states.sample_s": total_by_name["states.sample"],
        "states.prep_busy_s": self_by_name["states.prep"],
        "counts.sets": len(durations["counts.set"]),
        "counts.busy_s": busy["counts"],
        "counts.set_us_p50": p50("counts.set", 1e6),
        "estimator.estimates": len(estimates),
        "estimator.busy_s": busy["estimator"],
        "estimator.estimate_ms_p50": p50("estimator.estimate", 1e3),
        "estimator.estimate_ms_tail": tail * 1e3 if tail is not None else 0.0,
        "estimator.estimate_ms_tail_pct": tail_pct if tail_pct is not None else 0.0,
        "estimator.minimize_calls": counts["estimator.minimize_calls"],
        "estimator.objective_evals": evals,
        "estimator.eval_us": total_by_name["estimator.minimize"] / evals * 1e6 if evals else 0.0,
        "estimator.iterations": counts["estimator.iterations"],
        "estimator.model_stack_s": total_by_name["estimator.model_stack"],
        "estimator.converged_frac": counts["estimator.converged"] / len(estimates) if estimates else 0.0,
        "metrics.calls": len(durations["metrics.call"]),
        "metrics.busy_s": busy["metrics"],
        "harness.tasks": len(tasks),
        "harness.self_s": busy["harness"] - self_by_name["harness.io"],
        "harness.io_s": self_by_name["harness.io"],
        "harness.parallel_efficiency": sum(busy.values()) / (workers * traced_wall),
        "cli.busy_s": busy["cli"],
        "cli.config_s": total_by_name["cli.config"],
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.layer_sum_s": sum(busy.values()) - overlap,
    }
    problems = []
    closure = abs(values["trace.layer_sum_s"] - traced_wall) / traced_wall
    if closure > CLOSURE_TOL:
        problems.append(
            f"trace: layer self times less worker overlap sum to {values['trace.layer_sum_s']:.4f} s, "
            f"{closure:.1%} away from the traced wall time {traced_wall:.4f} s"
        )
    notes = {"busy_by_layer": busy, "worker_overlap_s": overlap, "skipped_probes": payload["skipped"]}
    if estimates and tail_pct is None:
        notes["tail"] = f"{len(estimates)} estimates leave no percentile with 10 beyond it; tail reported as 0"
    return values, notes, problems


def trace(workload, seed, work, deadline, results_dir):
    """Per-layer metrics from one traced call between two plain calls.

    The plain wall time is the mean of the calls before and after the traced
    one, so a steady drift in host speed cancels out of the tracing overhead.
    """
    spans_path = results_dir / f"{workload.name}-seed{seed}.spans.json"
    before = cli_call(workload, seed, 0, work, deadline)
    traced = cli_call(workload, seed, 0, work, deadline, spans_out=spans_path)
    after = cli_call(workload, seed, 0, work, deadline)
    payload = json.loads(spans_path.read_text())
    plain_wall = (before.record["wall_s"] + after.record["wall_s"]) / 2.0
    values, notes, problems = layer_metrics(payload, traced.record["wall_s"], plain_wall, workload.processes)
    calls = [before, traced, after]
    return values, notes, calls, problems + compare_outputs(workload, calls, seed)


def host_info() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def report(workload, seed, traced, values, notes, calls, problems, units):
    # one count per input: later calls on it wrote the same bytes (compare_outputs)
    firsts = {c.inputs: c for c in reversed(calls)}.values()
    operations = sum(c.outcome.operations for c in firsts)
    failed = sum(c.outcome.failed for c in firsts)
    kind = "points" if workload.command == "trajectory" else "states"
    print(f"== {workload.name} seed {seed} ({'traced' if traced else 'end to end'}): "
          f"{len(calls)} CLI calls on {len(firsts)} inputs, {operations} {kind} counted")
    if traced:
        wall = values["trace.wall_s"]
        for layer, busy in notes["busy_by_layer"].items():
            print(f"  layer {layer:<12} self {busy:10.4f} s  {busy / wall:7.1%} of traced wall")
        print(f"  worker overlap {notes['worker_overlap_s']:.4f} s; layer sum less overlap "
              f"{values['trace.layer_sum_s']:.4f} s vs traced wall {wall:.4f} s; "
              f"tracing overhead {values['trace.overhead_s']:+.4f} s")
        for skipped in notes["skipped_probes"]:
            print(f"  probe skipped, target missing: {skipped}")
        if "tail" in notes:
            print(f"  note: {notes['tail']}")
    for name, unit in units.items():
        moved = PREDICTIONS.get(name)
        hint = f"  -> {moved[0]} on {moved[1]}" if moved else ""
        print(f"  {name:<32} {values[name]:>16.6g} {unit}{hint}")
    if not traced:
        alias = "points_per_s" if workload.command == "trajectory" else "states_per_s"
        print(f"  ({alias} = ops_per_s)  failed_frac {failed}/{operations} = {failed / operations:.4f}")
        raw = ", ".join(f"{name} {value:.6g}" for name, value in notes["raw"].items())
        print(f"  host speed: reference against {REFERENCE_NOMINAL_S[workload.processes]} s, times scaled by "
              f"{min(notes['scale']):.4f} to {max(notes['scale']):.4f} (median {statistics.median(notes['scale']):.4f}); "
              f"as timed: {raw}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return operations, failed


def run_one(workload, seed, seconds, traced, declared) -> bool:
    deadline = time.monotonic() + TIME_LIMIT_S
    results_dir = STATE_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work = STATE_DIR / "work" / f"{workload.name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if traced:
            values, notes, calls, problems = trace(workload, seed, work, deadline, results_dir)
        else:
            values, notes, calls, problems = measure(workload, seed, seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = [f"call {k}: {p}" for k, c in enumerate(calls) for p in c.outcome.problems] + problems
    units = {m["name"]: m["unit"] for m in declared["per_layer" if traced else "end_to_end"]}
    operations, failed = report(workload, seed, traced, values, notes, calls, problems, units)
    result = {
        "correct": not problems,
        "attempted": operations,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stored = {
        "workload": workload.name,
        "why": next(w["why"] for w in declared["workloads"] if w["name"] == workload.name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "host": host_info(),
        "versions": calls[0].record["versions"],
        "git_commit": git_commit(),
        "problems": problems,
        "notes": notes,
        "result": result,
    }
    path = results_dir / f"{workload.name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(stored, indent=2, default=str) + "\n")
    print(f"  record: {path.relative_to(ROOT)}  host {stored['host']}  versions {stored['versions']}  "
          f"commit {stored['git_commit']}")
    print(json.dumps(result))
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "timetomo" / "__init__.py").is_file():
        print(f"error: no timetomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        try:
            ok &= run_one(WORKLOADS[name], args.seed, seconds, bool(args.trace), declared)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
