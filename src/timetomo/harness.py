"""Sweep orchestration: configs, cell execution, CSV and manifest output.

A sweep walks the (jitter width, photon number) grid over a fixed state
sample, runs the full simulate-and-reconstruct pipeline per state, and
aggregates metrics into CSV rows per cell.  All modes share one sweep loop,
``run_sweep``; the ``MODES`` table holds what differs between them.
Randomness is derived per (master seed, state index, setting index), so
results are byte-identical for a given config and seed no matter how the
work is scheduled.
"""

from __future__ import annotations

import dataclasses
import json
import math
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .counts import (
    MAX_SEED,
    CountRecord,
    NoiseConfig,
    coincidence_count_set,
    qubit_count_set,
)
from .dynamics import DynamicsParams
from .estimator import EstimateResult, EstimatorConfig, estimate_state
from .measurement import (
    JitterModel,
    arm_operator_stacks,
    bloch_trajectory,
    ic_povm_schedule,
    polarization_projector,
)
from .metrics import (
    MetricsSummary,
    aggregate,
    chsh_guarantee,
    concurrence,
    fidelity,
    trace_distance,
)
from .states import (
    bell_state,
    bloch_state,
    orthogonal_pairs,
    sample_bell_states,
    sample_mixed_qubits,
    sample_pure_qubits,
)

TRAJECTORY_OPERATORS = ("H", "V", "D", "A", "R", "L")

CSV_HEADER = "sigma_over_T,n_photons,metric,mean,sd,stderr,n_states"
COUNTS_HEADER = "state_id,t_i_over_T,t_j_over_T,expected,measured"
TRAJECTORY_HEADER = "t_over_T,x,y,z,purity"

# Fraction of non-converged estimates above which a cell gets flagged.
CONVERGENCE_WARN_FRACTION = 0.1


@dataclass(frozen=True)
class SampleSizes:
    """Grid sizes; only the fields relevant to a mode are set."""

    n_r: int | None = None
    n_theta: int | None = None
    n_phi: int | None = None
    n_states: int | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: mode, grid axes, sample sizes, seed, estimator, output."""

    mode: str
    sigma_list: tuple[float, ...]
    photon_list: tuple[float, ...]
    seed: int = 0
    out_dir: str = "results"
    sample: SampleSizes | None = None
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    periods: tuple[float, float, float] = (4.0, 1.0, 2.0)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {tuple(MODES)}, got {self.mode!r}")
        sigmas = tuple(float(s) for s in self.sigma_list)
        if not sigmas or any(not (math.isfinite(s) and s >= 0) for s in sigmas):
            raise ValueError("sigma_list must be nonempty with nonnegative finite entries")
        photons = tuple(float(n) for n in self.photon_list)
        if not photons or any(not (math.isfinite(n) and n > 0) for n in photons):
            raise ValueError("photon_list must be nonempty with positive entries")
        if not (0 <= int(self.seed) <= MAX_SEED):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        sample = self.sample if self.sample is not None else MODES[self.mode].desk
        for key in MODES[self.mode].sample_keys:
            value = getattr(sample, key)
            if value is None or int(value) < 1:
                raise ValueError(f"sample.{key} must be a positive integer for mode {self.mode}")
        if self.mode == "qubit-orthogonal-pairs" and int(sample.n_phi) % 2:
            raise ValueError(
                "sample.n_phi must be even for mode qubit-orthogonal-pairs so antipodes stay on the grid"
            )
        DynamicsParams(*self.periods)  # validates
        object.__setattr__(self, "sigma_list", sigmas)
        object.__setattr__(self, "photon_list", photons)
        object.__setattr__(self, "sample", sample)
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))

    @property
    def dynamics(self) -> DynamicsParams:
        return DynamicsParams(*self.periods)


@dataclass(frozen=True)
class TrajectoryConfig:
    """Bloch-trajectory emission: which projector, jitter width, time grid."""

    operator: str = "H"
    sigma_over_T: float = 0.0
    points: int = 500
    t_max_over_T: float = 2.0
    seed: int = 0
    out_dir: str = "results"
    periods: tuple[float, float, float] = (4.0, 1.0, 2.0)

    def __post_init__(self):
        if self.operator not in TRAJECTORY_OPERATORS:
            raise ValueError(f"operator must be one of {TRAJECTORY_OPERATORS}")
        if not (math.isfinite(self.sigma_over_T) and self.sigma_over_T >= 0):
            raise ValueError("sigma_over_T must be nonnegative")
        if self.points < 2:
            raise ValueError("points must be at least 2")
        if not (math.isfinite(self.t_max_over_T) and self.t_max_over_T > 0):
            raise ValueError("t_max_over_T must be positive")
        DynamicsParams(*self.periods)
        object.__setattr__(self, "periods", tuple(float(p) for p in self.periods))

    @property
    def dynamics(self) -> DynamicsParams:
        return DynamicsParams(*self.periods)


@dataclass(frozen=True)
class SweepRow:
    sigma: float
    n_photons: float
    metric: str
    mean: float
    sd: float
    stderr: float
    n: int


def _reject_unknown(mapping: dict, allowed, where: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} keys: {', '.join(unknown)}")


def _build_sample(mode: str, raw: dict) -> SampleSizes:
    _reject_unknown(raw, MODES[mode].sample_keys, f"sample ({mode})")
    merged = dataclasses.asdict(MODES[mode].desk)
    merged.update({k: int(v) for k, v in raw.items()})
    return SampleSizes(**merged)


def load_config(source, *, seed=None, out_dir=None, paper_scale=False):
    """Parse a JSON config into an ExperimentConfig or TrajectoryConfig.

    ``source`` is a path or an already-parsed dict.  Unknown keys raise.
    ``seed`` / ``out_dir`` override the config; ``paper_scale`` swaps in the
    full-size sample grids.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise ValueError("config document must be a JSON object")
    mode = raw.get("mode")
    if mode is None:
        raise ValueError("config is missing the required 'mode' key")

    if mode == "trajectory":
        allowed = ("mode", "operator", "sigma_over_T", "points", "t_max_over_T", "seed", "out_dir", "periods")
        _reject_unknown(raw, allowed, "config")
        kwargs = {k: raw[k] for k in allowed[1:] if k in raw}
        if "periods" in kwargs:
            kwargs["periods"] = tuple(kwargs["periods"])
        cfg = TrajectoryConfig(**kwargs)
        if seed is not None:
            cfg = dataclasses.replace(cfg, seed=int(seed))
        if out_dir is not None:
            cfg = dataclasses.replace(cfg, out_dir=str(out_dir))
        return cfg

    if mode not in MODES:
        raise ValueError(f"mode must be 'trajectory' or one of {tuple(MODES)}, got {mode!r}")
    allowed = ("mode", "sigma_list", "photon_list", "seed", "out_dir", "sample", "estimator", "periods")
    _reject_unknown(raw, allowed, "config")
    for key in ("sigma_list", "photon_list"):
        if key not in raw:
            raise ValueError(f"config is missing the required {key!r} key")
    est_raw = raw.get("estimator", {})
    est_fields = tuple(f.name for f in dataclasses.fields(EstimatorConfig))
    _reject_unknown(est_raw, est_fields, "estimator")
    sample = _build_sample(mode, raw.get("sample", {})) if "sample" in raw else None
    cfg = ExperimentConfig(
        mode=mode,
        sigma_list=tuple(raw["sigma_list"]),
        photon_list=tuple(raw["photon_list"]),
        seed=int(raw.get("seed", 0)),
        out_dir=str(raw.get("out_dir", "results")),
        sample=sample,
        estimator=EstimatorConfig(**est_raw),
        periods=tuple(raw.get("periods", (4.0, 1.0, 2.0))),
    )
    if paper_scale:
        cfg = dataclasses.replace(cfg, sample=MODES[mode].paper)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    if out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=str(out_dir))
    return cfg


def estimation_rng(seed: int, state_index: int) -> np.random.Generator:
    """Restart-perturbation stream, disjoint from the counting streams."""
    return np.random.default_rng([int(seed), 1, int(state_index)])


# ---------------------------------------------------------------------------
# sweep modes and the cell loop


@dataclass(frozen=True)
class StateResult:
    """One simulated and reconstructed state of a sweep cell."""

    index: int
    fidelity: float
    estimate: EstimateResult
    records: list[CountRecord]


@dataclass(frozen=True)
class _Cell:
    """One (jitter width, photon number) cell, with its arm operator stacks."""

    mode: str
    sigma: float
    n_photons: float
    seed: int
    estimator: EstimatorConfig
    params: DynamicsParams
    smeared: np.ndarray
    ideal: np.ndarray


def _fit_state(rho_in, index: int, cell: _Cell) -> StateResult:
    """Simulate one input state's counts, reconstruct it, and score the estimate."""
    noise = NoiseConfig(mean_photons=cell.n_photons, seed=cell.seed, poisson_enabled=True)
    count_set = qubit_count_set if rho_in.dim == 2 else coincidence_count_set
    records = count_set(
        rho_in, cell.params, JitterModel(cell.sigma), noise,
        state_index=index, jittered_mats=cell.smeared, ideal_mats=cell.ideal,
    )
    est = estimate_state(
        records, rho_in.dim, cell.estimator, estimation_rng(cell.seed, index),
        mean_photons=cell.n_photons, dynamics=cell.params,
    )
    return StateResult(index, fidelity(rho_in, est.rho_out), est, records)


def _qubit_state(bloch, index: int, cell: _Cell) -> StateResult:
    return _fit_state(bloch_state(bloch), index, cell)


def _pair_state(bell, index: int, cell: _Cell) -> StateResult:
    return _fit_state(bell_state(bell), index, cell)


def _fidelity_metrics(results):
    return [aggregate([r.fidelity for r in results], "fidelity")]


def _orthogonality_metrics(results):
    # the sample lists each orthogonal pair as two consecutive states
    pairs = zip(results[::2], results[1::2])
    distances = [trace_distance(a.estimate.rho_out, b.estimate.rho_out) for a, b in pairs]
    return [aggregate(distances, "trace_distance")]


def _entanglement_metrics(results):
    conc = aggregate([concurrence(r.estimate.rho_out) for r in results], "concurrence")
    # one guarantee flag per cell, written as a row with sd 0
    chsh = MetricsSummary(float(chsh_guarantee(conc)), 0.0, conc.n, "chsh_guarantee")
    return [conc, *_fidelity_metrics(results), chsh]


@dataclass(frozen=True)
class SweepMode:
    """What one sweep mode adds to the shared cell loop.

    ``sample`` lists the mode's input-state parameters, ``per_state``
    simulates and reconstructs one of them, and ``metrics`` summarises a
    cell's results as its CSV rows, in order.  A mode uses the sample
    fields that its desk-scale default sets.
    """

    command: str
    desk: SampleSizes
    paper: SampleSizes
    sample: Callable[[SampleSizes], list]
    per_state: Callable[..., StateResult]
    metrics: Callable[[list[StateResult]], list[MetricsSummary]]

    @property
    def sample_keys(self) -> tuple[str, ...]:
        return tuple(k for k, v in dataclasses.asdict(self.desk).items() if v is not None)


# The lambdas look the sample functions up when called, so a wrapper put on
# a module-level name (perfbench/probes.py times each layer that way) sees
# every call; the per-state and metric functions do the same inside.
MODES = {
    "qubit-mixed": SweepMode(
        "qubit-sweep", SampleSizes(n_r=8, n_theta=8, n_phi=8), SampleSizes(n_r=21, n_theta=21, n_phi=20),
        lambda s: sample_mixed_qubits(s.n_r, s.n_theta, s.n_phi), _qubit_state, _fidelity_metrics,
    ),
    "qubit-pure": SweepMode(
        "qubit-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: sample_pure_qubits(s.n_theta, s.n_phi), _qubit_state, _fidelity_metrics,
    ),
    "qubit-orthogonal-pairs": SweepMode(
        "ortho-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: [state for pair in orthogonal_pairs(s.n_theta, s.n_phi) for state in pair],
        _qubit_state, _orthogonality_metrics,
    ),
    "entangled": SweepMode(
        "entangled-sweep", SampleSizes(n_states=50), SampleSizes(n_states=200),
        lambda s: sample_bell_states(s.n_states), _pair_state, _entanglement_metrics,
    ),
}


def _state_worker(task) -> StateResult:
    """One state of one cell; module level so process pools can pickle it."""
    cell, index, state = task
    try:
        return MODES[cell.mode].per_state(state, index, cell)
    except Exception as exc:
        raise RuntimeError(
            f"mode {cell.mode}, sigma {cell.sigma:g}, N {cell.n_photons:g}, state {index}: {exc}"
        ) from exc


def _map_tasks(worker, tasks, workers: int):
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (4 * workers))
        return list(pool.map(worker, tasks, chunksize=chunk))


def _warning_row(sigma, n_photons, converged_flags) -> SweepRow | None:
    flags = np.asarray(converged_flags, dtype=bool)
    frac = 1.0 - float(flags.mean())
    if frac > CONVERGENCE_WARN_FRACTION:
        return SweepRow(sigma, n_photons, "convergence_warning", frac, 0.0, 0.0, int(flags.size))
    return None


class _CellArtifacts:
    """Optional per-cell side outputs: raw counts CSV and estimate log."""

    def __init__(self, directory, dump_counts: bool, state_log: bool):
        self.directory = Path(directory) if directory is not None else None
        self.dump_counts = dump_counts and self.directory is not None
        self.state_log = state_log and self.directory is not None

    def write(self, sigma, n_photons, results: list[StateResult]):
        if not (self.dump_counts or self.state_log):
            return
        tag = f"sigma{sigma:g}_N{n_photons:g}"
        if self.dump_counts:
            lines = [COUNTS_HEADER]
            for r in results:
                for rec in r.records:
                    t_second = _fmt(rec.times[1]) if len(rec.times) == 2 else ""
                    lines.append(
                        f"{r.index},{_fmt(rec.times[0])},{t_second},"
                        f"{_fmt(rec.expected)},{_fmt(rec.measured)}"
                    )
            (self.directory / f"counts_{tag}.csv").write_text("\n".join(lines) + "\n")
        if self.state_log:
            lines = []
            for r in results:
                lines.append(
                    json.dumps(
                        {
                            "state_id": r.index,
                            "objective": r.estimate.objective,
                            "iterations": r.estimate.iterations,
                            "converged": r.estimate.converged,
                            "fidelity": r.fidelity,
                        },
                        sort_keys=True,
                    )
                )
            (self.directory / f"estimates_{tag}.jsonl").write_text("\n".join(lines) + "\n")


def run_sweep(
    cfg: ExperimentConfig,
    *,
    workers: int = 1,
    artifact_dir=None,
    dump_counts: bool = False,
    state_log: bool = False,
) -> list[SweepRow]:
    """Run every (jitter width, photon number) cell of ``cfg`` and return its rows.

    Each cell reconstructs every state of the mode's sample, then appends
    the mode's metric rows and, when too many estimates did not converge,
    a warning row.
    """
    mode = MODES[cfg.mode]
    sample = mode.sample(cfg.sample)
    params = cfg.dynamics
    artifacts = _CellArtifacts(artifact_dir, dump_counts, state_log)
    rows = []
    for sigma in cfg.sigma_list:
        # the count sets default to the same six-instant schedule
        ideal, smeared = arm_operator_stacks(params, JitterModel(sigma), ic_povm_schedule().instants)
        for n_photons in cfg.photon_list:
            cell = _Cell(cfg.mode, sigma, n_photons, cfg.seed, cfg.estimator, params, smeared, ideal)
            tasks = [(cell, index, state) for index, state in enumerate(sample)]
            results = _map_tasks(_state_worker, tasks, workers)
            rows += [
                SweepRow(sigma, n_photons, m.metric_name, m.mean, m.sd, m.stderr, m.n)
                for m in mode.metrics(results)
            ]
            warning = _warning_row(sigma, n_photons, [r.estimate.converged for r in results])
            if warning:
                rows.append(warning)
            artifacts.write(sigma, n_photons, results)
    return rows


def emit_trajectory(cfg: TrajectoryConfig, out_dir=None) -> Path:
    """Write the Bloch-trajectory CSV and return its path."""
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, cfg.t_max_over_T, cfg.points)
    table = bloch_trajectory(
        polarization_projector(cfg.operator), cfg.dynamics, JitterModel(cfg.sigma_over_T), grid
    )
    lines = [TRAJECTORY_HEADER]
    for row in table:
        lines.append(",".join(f"{value:.6g}" for value in row))
    path = directory / "trajectory.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# output documents


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{_fmt(row.sigma)},{_fmt(row.n_photons)},{row.metric},"
            f"{_fmt(row.mean)},{_fmt(row.sd)},{_fmt(row.stderr)},{row.n}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(path, rows: list[SweepRow]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(sweep_rows_to_csv(rows))
    return path


def _config_document(cfg) -> dict:
    doc = dataclasses.asdict(cfg)
    for key, value in doc.items():
        if isinstance(value, tuple):
            doc[key] = list(value)
    return doc


def run_manifest(command: str, cfg) -> dict:
    """Reproducibility record: the resolved config plus tool versions."""
    return {
        "command": command,
        "config": _config_document(cfg),
        "versions": {
            "timetomo": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
