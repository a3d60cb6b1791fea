"""The benchmark's workloads: inputs made from the seed, correctness gates,
and the layer-to-metric predictions the traced run is read against.

Each workload is a closed loop: one benchmark process starts the next CLI call
as soon as the previous one has finished.  A workload fixes the amount of
work per call and the number of distinct inputs a run makes; the run seed
and the input's index pick each input (count noise and restart
perturbations for the sweeps, the length of the time grid for the
trajectory), so every call asks for the same number of operations, a run's
figures span several inputs, and the operations a run counts, and which of
them fail, depend on the seed alone.

Gates compare outputs with physics, not with a stored digest, so a change
that shifts results by rounding-level amounts (an exact smearing formula,
another optimizer) still passes when the physics holds.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Gate:
    """Cell mean of ``metric`` at (sigma, N) must lie within ``tol`` of ``target``."""

    metric: str
    sigma: float
    n_photons: float
    target: float
    tol: float


@dataclass(frozen=True)
class Outcome:
    operations: int
    failed: int
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    workers: int | None  # None: the command takes no --workers
    base: dict  # the config file, less the seed
    inputs: int  # distinct configs a run makes from its seed
    gates: tuple[Gate, ...] = ()

    def config(self, seed: int, index: int) -> dict:
        """Config ``index`` of a run with seed ``seed``."""
        rng = random.Random(f"{seed}/{index}")
        config = dict(self.base, seed=rng.randrange(2**32))
        if self.command == "trajectory":
            # the seed moves the grid's end, never the number of points
            config["t_max_over_T"] = rng.uniform(29.0, 31.0)
        return config

    def cli_args(self, config_path: Path, out_dir: Path) -> list[str]:
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.workers is not None:
            args += ["--workers", str(self.workers), "--state-log"]
        return args

    @property
    def processes(self) -> int:
        """Processes a call keeps busy at once."""
        return self.workers or 1

    @property
    def output_name(self) -> str:
        return "trajectory.csv" if self.command == "trajectory" else "results.csv"

    def check(self, out_dir: Path, config: dict) -> Outcome:
        if self.command == "trajectory":
            return check_trajectory(out_dir / self.output_name, config)
        return check_sweep(out_dir, self.gates)


TRAJECTORY_TOL = 1e-4

# Why each workload exists is in BENCHMARK.json.  Sizes keep one call at a
# few seconds on a 2-core host, so a 40-second run goes through its inputs
# and the repeat of input 0 at least once.
WORKLOADS = {
    w.name: w
    for w in (
        # Four Bell phases: ~1.1 s per pair estimate; the concurrence spread
        # across phases is ~0.01, so the 0.03 gate holds on a sample this small.
        Workload(
            "entangled-cell",
            "entangled-sweep",
            1,
            {
                "mode": "entangled",
                "sigma_list": [0.065],
                "photon_list": [1000],
                "sample": {"n_states": 4},
            },
            4,
            (Gate("concurrence", 0.065, 1000.0, 0.74, 0.03),),
        ),
        # The acceptance grid (n_r, n_theta, n_phi) = (20, 5, 5) cut to
        # (8, 3, 4): 96 states per sigma, 192 estimates a call.  The sigma 0.2
        # fidelity mean drops from about 0.953 to 0.942, still inside the
        # 0.02 gate; with n_r below 8 it leaves the gate.
        Workload(
            "qubit-grid",
            "qubit-sweep",
            2,
            {
                "mode": "qubit-mixed",
                "sigma_list": [0.0, 0.2],
                "photon_list": [1000],
                "sample": {"n_r": 8, "n_theta": 3, "n_phi": 4},
            },
            4,
            (
                Gate("fidelity", 0.0, 1000.0, 0.998, 0.02),
                Gate("fidelity", 0.2, 1000.0, 0.95, 0.02),
            ),
        ),
        # 6000 points x 241 quadrature nodes: ~1.6 s and ~360 MB peak a call.
        Workload(
            "trajectory",
            "trajectory",
            None,
            {"mode": "trajectory", "operator": "H", "sigma_over_T": 0.5, "points": 6000},
            8,
        ),
    )
}

# Per-layer metric -> (end-to-end metric it should move, workloads where it should).
PREDICTIONS = {
    "dynamics.unitaries": ("ops_per_s, peak_rss_mb", "trajectory"),
    "dynamics.busy_s": ("ops_per_s, peak_rss_mb", "trajectory"),
    "measurement.smear_calls": ("ops_per_s", "trajectory"),
    "measurement.smear_busy_s": ("ops_per_s, peak_rss_mb", "trajectory"),
    "measurement.evolved_busy_s": ("ops_per_s, peak_rss_mb", "trajectory"),
    "measurement.quadrature_nodes": ("ops_per_s, peak_rss_mb", "trajectory"),
    "measurement.bytes_computed": ("ops_per_s, peak_rss_mb", "trajectory"),
    "states.sample_s": ("setup_s, wall_s", "qubit-grid"),
    "states.prep_busy_s": ("wall_s", "qubit-grid"),
    "counts.sets": ("ops_per_s", "qubit-grid"),
    "counts.busy_s": ("ops_per_s", "qubit-grid"),
    "counts.set_us_p50": ("ops_per_s", "qubit-grid"),
    "estimator.estimates": ("ops_per_s", "entangled-cell, qubit-grid"),
    "estimator.busy_s": ("ops_per_s", "entangled-cell (main), qubit-grid"),
    "estimator.estimate_ms_p50": ("ops_per_s", "entangled-cell (main), qubit-grid"),
    "estimator.estimate_ms_tail": ("ops_per_s", "entangled-cell (main), qubit-grid"),
    "estimator.minimize_calls": ("ops_per_s", "entangled-cell, qubit-grid"),
    "estimator.objective_evals": ("ops_per_s", "entangled-cell (main), qubit-grid"),
    "estimator.eval_us": ("ops_per_s", "entangled-cell (main), qubit-grid"),
    "estimator.iterations": ("ops_per_s", "entangled-cell, qubit-grid"),
    "estimator.model_stack_s": ("ops_per_s", "entangled-cell, qubit-grid"),
    "estimator.converged_frac": ("failed/attempted", "entangled-cell, qubit-grid"),
    "metrics.calls": ("ops_per_s", "qubit-grid"),
    "metrics.busy_s": ("ops_per_s", "qubit-grid"),
    "harness.tasks": ("ops_per_s", "qubit-grid"),
    "harness.self_s": ("ops_per_s, peak_rss_mb", "qubit-grid"),
    "harness.io_s": ("ops_per_s", "qubit-grid"),
    "harness.parallel_efficiency": ("ops_per_s, peak_rss_mb", "qubit-grid"),
    "cli.config_s": ("setup_s", "all"),
}


def _read_cells(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (float(row["sigma_over_T"]), float(row["n_photons"]), row["metric"]): float(row["mean"])
            for row in csv.DictReader(fh)
        }


def check_sweep(out_dir: Path, gates) -> Outcome:
    """Gate the cell means and count estimates from the ``--state-log`` files.

    An estimate counts as failed when its log entry says it did not converge.
    """
    problems = []
    cells = _read_cells(out_dir / "results.csv")
    for gate in gates:
        key = (gate.sigma, gate.n_photons, gate.metric)
        where = f"cell sigma={gate.sigma:g} N={gate.n_photons:g}"
        if key not in cells:
            problems.append(f"{where}: no {gate.metric} row in results.csv")
            continue
        mean = cells[key]
        if not abs(mean - gate.target) <= gate.tol:
            problems.append(
                f"{where}: {gate.metric} mean {mean:.4f} not within {gate.tol} of {gate.target}"
            )
    operations = failed = 0
    for log in sorted(out_dir.glob("estimates_*.jsonl")):
        for line in log.read_text(encoding="utf-8").splitlines():
            operations += 1
            failed += not json.loads(line)["converged"]
    if operations == 0:
        problems.append(f"no state-log entries under {out_dir}")
    return Outcome(operations, failed, tuple(problems))


def analytic_z(t: float, sigma: float) -> float:
    """z component of the smeared H projector's Bloch vector.

    Under the default periods the diagonal of M(t) is 1/2 + cos(2 pi t)/2,
    and a Gaussian jitter of width sigma damps that harmonic by
    exp(-2 pi^2 sigma^2).
    """
    return math.exp(-2.0 * (math.pi * sigma) ** 2) * math.cos(2.0 * math.pi * t)


def check_trajectory(path: Path, config: dict) -> Outcome:
    """Every point's z must match the analytic damping within 1e-4."""
    problems = []
    failed = 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    sigma = config["sigma_over_T"]
    for index, row in enumerate(rows):
        t = float(row["t_over_T"])
        error = abs(float(row["z"]) - analytic_z(t, sigma))
        if not error <= TRAJECTORY_TOL:
            failed += 1
            if len(problems) < 5:
                problems.append(
                    f"point {index} t={t:g}: z={row['z']} is {error:.2e} from the analytic "
                    f"damping (tolerance {TRAJECTORY_TOL:g})"
                )
    if len(rows) != config["points"]:
        problems.append(f"{path.name} has {len(rows)} points, expected {config['points']}")
    if failed > len(problems):
        problems.append(f"{failed} points in all miss the analytic damping")
    return Outcome(len(rows), failed, tuple(problems))
