"""Paper-scale sweeps on two source trees: estimate-stage times, steps and cell-mean shifts.

    python scripts/paper_scale.py --base BASE_SRC [--runs N] [--json OUT] [CONFIG ...]

BASE_SRC is the ``src`` directory of another checkout, for example one made
with ``git archive REV | tar -x -C DIR``; the other tree is this checkout's
``src``.  CONFIG defaults to ``configs/paper/entangled.json``,
``qubit-mixed.json`` and ``entangled-cell.json``.

Each run is a fresh interpreter that imports timetomo from one tree and
runs one config's sweep serially through ``sweep.run_sweep``, timing its
``estimate_states`` calls: the estimate stage.  Runs alternate between the
trees, the base first in even rounds.  Per config and tree the report gives
the estimate-stage times (median and quartiles), the fits' trial steps (sum
and max), the unconverged fits and the SHA-256 of ``results.csv``; per
config, the largest |change| of each metric's cell mean between the trees
and the number of fits whose ``converged`` flag differs.  ``--json`` also
writes the report to OUT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [f"configs/paper/{name}.json" for name in ("entangled", "qubit-mixed", "entangled-cell")]


def _child(src: str, config: str) -> None:
    """Run ``config``'s sweep with timetomo from ``src`` and print one JSON object."""
    sys.path.insert(0, src)
    import numpy as np

    import timetomo.sweep as sweep
    from timetomo.harness import load_config

    real, spent, fits = sweep.estimate_states, [], []

    def timed(*args):
        start = time.perf_counter()
        result = real(*args)
        spent.append(time.perf_counter() - start)
        fits.append(result)
        return result

    sweep.estimate_states = timed
    with tempfile.TemporaryDirectory() as out:
        rows = sweep.run_sweep(load_config(config, out_dir=out))
    steps = np.concatenate([fit.iterations.ravel() for fit in fits])
    converged = np.concatenate([fit.converged.ravel() for fit in fits])
    record = {
        "estimate_s": sum(spent),
        "steps_sum": int(steps.sum()),
        "steps_max": int(steps.max()),
        "unconverged": np.flatnonzero(~converged).tolist(),
        "cells": [[row.sigma, row.n_photons, row.metric, row.mean] for row in rows],
        "results_sha256": hashlib.sha256(sweep.sweep_rows_to_csv(rows).encode()).hexdigest(),
    }
    print(json.dumps(record))


def _run(src: str, config: str) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--child", src, config]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _summary(runs: list[dict]) -> dict:
    if len({run["results_sha256"] for run in runs}) != 1:
        raise SystemExit("results.csv differs between runs of one tree")
    times = [run["estimate_s"] for run in runs]
    quartiles = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    first = runs[0]
    return {
        "estimate_s": times,
        "estimate_s_median": statistics.median(times),
        "estimate_s_q1": quartiles[0],
        "estimate_s_q3": quartiles[2],
        "steps_sum": first["steps_sum"],
        "steps_max": first["steps_max"],
        "unconverged": len(first["unconverged"]),
        "results_sha256": first["results_sha256"],
    }


def _shifts(base: dict, change: dict) -> dict:
    """The largest |change| of each metric's cell mean, and the fits whose converged flag flipped."""
    means = {tuple(cell[:3]): cell[3] for cell in base["cells"]}
    largest: dict[str, float] = {}
    for sigma, n_photons, metric, mean in change["cells"]:
        before = means.get((sigma, n_photons, metric))
        shift = abs(mean - before) if before is not None else float("inf")
        largest[metric] = max(largest.get(metric, 0.0), shift)
    flips = set(base["unconverged"]) ^ set(change["unconverged"])
    return {"largest_mean_shift": largest, "converged_flips": len(flips)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the src directory of the base tree")
    parser.add_argument("--runs", type=int, default=3, help="runs a tree per config (default 3)")
    parser.add_argument("--json", type=Path, help="also write the report here")
    parser.add_argument("configs", nargs="*", default=CONFIGS)
    args = parser.parse_args()
    trees = {"base": str(Path(args.base).resolve()), "change": str(ROOT / "src")}
    runs = {config: {tree: [] for tree in trees} for config in args.configs}
    for round_ in range(args.runs):
        order = ("base", "change") if round_ % 2 == 0 else ("change", "base")
        for config in args.configs:
            for tree in order:
                runs[config][tree].append(_run(trees[tree], config))
    report = {}
    for config, by_tree in runs.items():
        report[config] = {tree: _summary(records) for tree, records in by_tree.items()}
        report[config].update(_shifts(by_tree["base"][0], by_tree["change"][0]))
        for tree in trees:
            s = report[config][tree]
            print(
                f"{config} {tree}: estimate {s['estimate_s_median']:.4f} s "
                f"(quartiles {s['estimate_s_q1']:.4f}-{s['estimate_s_q3']:.4f}), steps {s['steps_sum']} "
                f"(max {s['steps_max']}), unconverged {s['unconverged']}, results.csv {s['results_sha256'][:12]}"
            )
        shifts = ", ".join(f"{metric} {shift:.2g}" for metric, shift in report[config]["largest_mean_shift"].items())
        print(f"{config}: largest cell-mean shifts {shifts}; converged flips {report[config]['converged_flips']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3])
    else:
        raise SystemExit(main())
