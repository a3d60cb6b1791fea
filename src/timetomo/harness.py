"""Sweep orchestration: configs, cell execution, CSV and manifest output.

A sweep walks the (jitter width, photon number) grid over a fixed state
sample.  Each cell runs the simulate-and-reconstruct pipeline on the whole
sample as one batch (counts, estimates, metrics) and aggregates the metrics
into CSV rows.  All modes share one sweep loop, ``run_sweep``; the ``MODES``
table holds what differs between them.  Randomness is derived per (master
seed, state index, setting index) and every stage treats each state on its
own, so results are byte-identical for a given config and seed no matter how
the work is split between processes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import platform
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .core import StateError
from .counts import MAX_SEED, NoiseConfig, count_rows
from .dynamics import DynamicsParams
from .estimator import EstimatorConfig, StateEstimates, estimate_states
from .measurement import (
    IC_POVM_INSTANTS,
    JitterModel,
    bloch_trajectory,
    evolved_matrices,
    polarization_projector,
    setting_operators,
)
from .metrics import MetricsSummary, aggregate, chsh_guarantee, concurrences, fidelities, trace_distances
from .states import orthogonal_pairs, sample_bell_states, sample_mixed_qubits, sample_pure_qubits, state_stack

TRAJECTORY_OPERATORS = ("H", "V", "D", "A", "R", "L")

CSV_HEADER = "sigma_over_T,n_photons,metric,mean,sd,stderr,n_states"
COUNTS_HEADER = "state_id,t_i_over_T,t_j_over_T,expected,measured"
TRAJECTORY_HEADER = "t_over_T,x,y,z,purity"

# Fraction of non-converged estimates above which a cell gets flagged.
CONVERGENCE_WARN_FRACTION = 0.1

# Singular values of the six sharp operators (entries at most 1) below this
# count as zero; a true rank loss leaves about 1e-15.
_COMPLETENESS_TOL = 1e-10


def _integer(value, key: str) -> int:
    """``value`` as an int; a boolean or a non-integral number raises, naming ``key``."""
    try:
        if not isinstance(value, bool) and int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _periods(periods) -> tuple[float, float, float]:
    """The three rotation periods as floats, validated by ``DynamicsParams``."""
    periods = tuple(float(p) for p in periods)
    if len(periods) != 3:
        raise ValueError(f"periods must list three rotation periods, got {len(periods)}: {periods}")
    DynamicsParams(*periods)
    return periods


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
        seed = _integer(self.seed, "seed")
        if not (0 <= seed <= MAX_SEED):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        sample = self.sample if self.sample is not None else MODES[self.mode].desk
        sizes = {}
        for key in MODES[self.mode].sample_keys:
            value = getattr(sample, key)
            sizes[key] = _integer(value, f"sample.{key}") if value is not None else 0
            if sizes[key] < 1:
                raise ValueError(f"sample.{key} must be a positive integer for mode {self.mode}")
        if self.mode == "qubit-orthogonal-pairs" and sizes["n_phi"] % 2:
            raise ValueError(
                "sample.n_phi must be even for mode qubit-orthogonal-pairs so antipodes stay on the grid"
            )
        object.__setattr__(self, "sigma_list", sigmas)
        object.__setattr__(self, "photon_list", photons)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "sample", dataclasses.replace(sample, **sizes))
        object.__setattr__(self, "periods", _periods(self.periods))
        # the fits invert the six sharp operators, so they must span the 2x2 Hermitian matrices
        sharp = evolved_matrices(polarization_projector("H"), self.dynamics, IC_POVM_INSTANTS)
        rank = np.linalg.matrix_rank(sharp.reshape(-1, 4), tol=_COMPLETENESS_TOL)
        if rank < 4:
            raise ValueError(
                f"periods {self.periods} leave the six measurement operators "
                f"informationally incomplete (rank {rank} of 4)"
            )

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
        points = _integer(self.points, "points")
        if points < 2:
            raise ValueError("points must be at least 2")
        if not (math.isfinite(self.t_max_over_T) and self.t_max_over_T > 0):
            raise ValueError("t_max_over_T must be positive")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        object.__setattr__(self, "periods", _periods(self.periods))

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
    merged.update(raw)
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
        seed=raw.get("seed", 0),
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


# ---------------------------------------------------------------------------
# sweep modes and the cell loop


def _fit_chunk(cfg: ExperimentConfig, sigma, n_photons, sharp, smeared, states: np.ndarray, offset: int):
    """Counts and estimates of one cell's states ``offset``, ``offset + 1``, ...

    Module level so process pools can pickle it.  Returns the expected and
    measured counts followed by the ``StateEstimates`` fields.
    """
    noise = NoiseConfig(mean_photons=n_photons, seed=cfg.seed, poisson_enabled=True)
    expected, measured = count_rows(states, sharp, smeared, noise, offset)
    try:
        return (expected, measured, *estimate_states(sharp, measured, n_photons, cfg.estimator))
    except StateError as exc:
        raise RuntimeError(
            f"mode {cfg.mode}, sigma {sigma:g}, N {n_photons:g}, state {offset + exc.index}: {exc.__cause__}"
        ) from exc.__cause__


def _fidelity_metrics(fits: StateEstimates, fidelity):
    return [aggregate(fidelity, "fidelity")]


def _orthogonality_metrics(fits: StateEstimates, fidelity):
    # the sample lists each orthogonal pair as two consecutive states
    return [aggregate(trace_distances(fits.rho[::2], fits.rho[1::2]), "trace_distance")]


def _entanglement_metrics(fits: StateEstimates, fidelity):
    conc = aggregate(concurrences(fits.rho), "concurrence")
    # one guarantee flag per cell, written as a row with sd 0
    chsh = MetricsSummary(float(chsh_guarantee(conc)), 0.0, conc.n, "chsh_guarantee")
    return [conc, *_fidelity_metrics(fits, fidelity), chsh]


@dataclass(frozen=True)
class SweepMode:
    """What one sweep mode adds to the shared cell loop.

    ``sample`` lists the mode's input-state parameters and ``metrics``
    summarises a cell's estimates and fidelities as its CSV rows, in order.
    A mode uses the sample fields that its desk-scale default sets.
    """

    command: str
    desk: SampleSizes
    paper: SampleSizes
    sample: Callable[[SampleSizes], list]
    metrics: Callable[[StateEstimates, np.ndarray], list[MetricsSummary]]

    @property
    def sample_keys(self) -> tuple[str, ...]:
        return tuple(k for k, v in dataclasses.asdict(self.desk).items() if v is not None)


# The lambdas look the sample functions up when called, so a wrapper put on
# a module-level name (perfbench/probes.py times each layer that way) sees
# every call; the metric functions do the same inside.
MODES = {
    "qubit-mixed": SweepMode(
        "qubit-sweep", SampleSizes(n_r=8, n_theta=8, n_phi=8), SampleSizes(n_r=21, n_theta=21, n_phi=20),
        lambda s: sample_mixed_qubits(s.n_r, s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-pure": SweepMode(
        "qubit-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: sample_pure_qubits(s.n_theta, s.n_phi), _fidelity_metrics,
    ),
    "qubit-orthogonal-pairs": SweepMode(
        "ortho-sweep", SampleSizes(n_theta=8, n_phi=8), SampleSizes(n_theta=21, n_phi=20),
        lambda s: [state for pair in orthogonal_pairs(s.n_theta, s.n_phi) for state in pair],
        _orthogonality_metrics,
    ),
    "entangled": SweepMode(
        "entangled-sweep", SampleSizes(n_states=50), SampleSizes(n_states=200),
        lambda s: sample_bell_states(s.n_states), _entanglement_metrics,
    ),
}


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

    def write(self, sigma, n_photons, settings, expected, measured, fits: StateEstimates, fidelity):
        tag = f"sigma{sigma:g}_N{n_photons:g}"
        if self.dump_counts:
            times = [f"{_fmt(t[0])},{_fmt(t[1]) if len(t) == 2 else ''}" for t in settings]
            lines = [COUNTS_HEADER] + [
                f"{index},{t},{_fmt(e)},{_fmt(m)}"
                for index, row in enumerate(zip(expected.tolist(), measured.tolist()))
                for t, e, m in zip(times, *row)
            ]
            (self.directory / f"counts_{tag}.csv").write_text("\n".join(lines) + "\n")
        if self.state_log:
            keys = ("objective", "iterations", "converged", "fidelity")
            columns = zip(*(c.tolist() for c in (fits.objective, fits.iterations, fits.converged, fidelity)))
            lines = [
                json.dumps({"state_id": index, **dict(zip(keys, entry))}, sort_keys=True)
                for index, entry in enumerate(columns)
            ]
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

    Each cell counts, reconstructs and scores the whole state sample as one
    batch, or with ``workers`` > 1 as that many contiguous chunks on one
    process pool shared by all cells.  It then appends the mode's metric rows
    and, when too many estimates did not converge, a warning row.
    """
    mode = MODES[cfg.mode]
    states = state_stack(mode.sample(cfg.sample))
    dim = states.shape[1]
    artifacts = _CellArtifacts(artifact_dir, dump_counts, state_log)
    offsets = sorted({len(states) * w // workers for w in range(workers)})
    chunks = [states[lo:hi] for lo, hi in zip(offsets, offsets[1:] + [len(states)])]
    rows = []
    with ProcessPoolExecutor(len(chunks)) if len(chunks) > 1 else contextlib.nullcontext() as pool:
        for sigma in cfg.sigma_list:
            jitter = JitterModel(sigma)
            settings, sharp, smeared = setting_operators(cfg.dynamics, jitter, IC_POVM_INSTANTS, dim)
            for n_photons in cfg.photon_list:
                fit = functools.partial(_fit_chunk, cfg, sigma, n_photons, sharp, smeared)
                parts = list((pool.map if pool else map)(fit, chunks, offsets))
                expected, measured, *fields = (np.concatenate(field) for field in zip(*parts))
                fits = StateEstimates(*fields)
                fidelity = fidelities(states, fits.rho)
                rows += [
                    SweepRow(sigma, n_photons, m.metric_name, m.mean, m.sd, m.stderr, m.n)
                    for m in mode.metrics(fits, fidelity)
                ]
                warning = _warning_row(sigma, n_photons, fits.converged)
                if warning:
                    rows.append(warning)
                artifacts.write(sigma, n_photons, settings, expected, measured, fits, fidelity)
    return rows


def emit_trajectory(cfg: TrajectoryConfig, out_dir=None) -> Path:
    """Write the Bloch-trajectory CSV and return its path."""
    directory = Path(out_dir if out_dir is not None else cfg.out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, cfg.t_max_over_T, cfg.points)
    table = bloch_trajectory(
        polarization_projector(cfg.operator), cfg.dynamics, JitterModel(cfg.sigma_over_T), grid
    )
    path = directory / "trajectory.csv"
    # '%.6g' % x and f"{x:.6g}" agree, so this writes the bytes of per-value formatting
    np.savetxt(path, table, fmt="%.6g", delimiter=",", header=TRAJECTORY_HEADER, comments="")
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
        },
    }


def write_manifest(path, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
