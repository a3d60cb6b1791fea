"""End-to-end acceptance checks for the whole pipeline.

Each test covers one numbered acceptance criterion and prints a single
pass/fail line (run pytest with -s to see them all; failures show theirs
in the report).  Reference numbers quoted in the tests are the published
benchmark values these simulations are expected to reproduce.

The state-grid sweeps are expensive, so cells shared between criteria are
computed once in module-scoped fixtures.  Everything runs at seed 0 with
the desk-scale samples; total runtime is a few minutes on one core.
"""

import math

import numpy as np
import pytest

from oracles import horizontal_closed_form, max_abs
from timetomo import harness
from timetomo.core import first_unphysical
from timetomo.counts import overlaps
from timetomo.dynamics import DynamicsParams
from timetomo.estimator import EstimatorConfig, estimate_states
from timetomo.harness import (
    ExperimentConfig,
    SampleSizes,
    run_sweep,
    write_sweep_csv,
)
from timetomo.measurement import IC_POVM_INSTANTS, jittered_matrices, setting_operators
from timetomo.metrics import fidelities
from timetomo.states import qubit_states, sample_bell_states

PARAMS = DynamicsParams()

# desk-scale acceptance grids: 500 mixed states, 128 pure states, 32
# orthogonal pairs, 50 entangled states
MIXED_SAMPLE = SampleSizes(n_r=20, n_theta=5, n_phi=5)
PURE_SAMPLE = SampleSizes(n_theta=8, n_phi=16)
PAIR_SAMPLE = SampleSizes(n_theta=8, n_phi=8)
BELL_SAMPLE = SampleSizes(n_states=50)


def _verdict(number: int, title: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {title}: {status} ({detail})")


def _run_cells(mode, sample, sigma_list, photon_list, runner):
    cfg = ExperimentConfig(
        mode=mode, sigma_list=sigma_list, photon_list=photon_list, seed=0, sample=sample
    )
    return {(row.sigma, row.n_photons, row.metric): row for row in runner(cfg)}


@pytest.fixture(scope="module")
def mixed_cells():
    cells = _run_cells("qubit-mixed", MIXED_SAMPLE, (0.0,), (1000.0,), run_sweep)
    cells.update(
        _run_cells("qubit-mixed", MIXED_SAMPLE, (0.2,), (1000.0, 10.0), run_sweep)
    )
    return cells


@pytest.fixture(scope="module")
def pure_cells():
    return _run_cells(
        "qubit-pure", PURE_SAMPLE, (0.1, 0.5), (1000.0, 10.0), run_sweep
    )


@pytest.fixture(scope="module")
def entangled_cells():
    cells = _run_cells(
        "entangled", BELL_SAMPLE, (0.25,), (10.0, 100.0, 1000.0), run_sweep
    )
    cells.update(
        _run_cells("entangled", BELL_SAMPLE, (0.065,), (1000.0,), run_sweep)
    )
    cells.update(
        _run_cells(
            "entangled", BELL_SAMPLE, (0.07,), (10.0, 100.0, 1000.0), run_sweep
        )
    )
    cells.update(
        _run_cells(
            "entangled", BELL_SAMPLE, (0.05, 0.15), (10.0, 1000.0), run_sweep
        )
    )
    return cells


def test_criterion_01_schedule_completeness():
    stack = jittered_matrices("H", PARAMS, 0.0, IC_POVM_INSTANTS)
    defect = max_abs(stack.sum(axis=0) / 3.0 - np.eye(2))
    ok = defect <= 1e-10
    _verdict(1, "measurement schedule completeness", ok, f"defect {defect:.3e}, tol 1e-10")
    assert ok


def test_criterion_02_closed_form_agreement():
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 1000):
        op = jittered_matrices("H", PARAMS, 0.0, [float(t)])[0]
        worst = max(worst, max_abs(op - horizontal_closed_form(float(t))))
    ok = worst <= 1e-10
    _verdict(2, "closed-form operator agreement", ok, f"max error {worst:.3e} over 1000 points, tol 1e-10")
    assert ok


def test_criterion_03_jitter_damping_oracle():
    times = np.linspace(0.0, 2.0, 201)
    worst = 0.0
    for sigma in (0.1, 0.3, 0.5):
        smeared = jittered_matrices("H", PARAMS, sigma, times)
        damp = math.exp(-2.0 * (math.pi * sigma) ** 2)
        analytic = 0.5 + 0.5 * damp * np.cos(2.0 * math.pi * times)
        worst = max(worst, float(np.abs(smeared[:, 0, 0].real - analytic).max()))
    ok = worst <= 1e-4
    _verdict(3, "smeared diagonal vs analytic damping", ok, f"max error {worst:.3e}, tol 1e-4")
    assert ok


def test_criterion_04_noiseless_recovery():
    est_cfg = EstimatorConfig()
    rng = np.random.default_rng(0)

    def worst_fidelity(states, pure):
        _, ideal, (smeared,) = setting_operators(PARAMS, [0.0], IC_POVM_INSTANTS, states.shape[1])
        # the noiseless count row: N times the smeared overlaps
        measured = 1000.0 * overlaps(states, smeared)
        fits = estimate_states(ideal, measured, 1000.0, est_cfg)
        assert first_unphysical(fits.rho) is None
        return fidelities(states, fits.rho, pure).min()

    qubits = [
        (rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(50)
    ]
    worst_qubit = worst_fidelity(qubit_states(*np.transpose(qubits)), np.zeros(len(qubits), dtype=bool))
    worst_bell = worst_fidelity(*sample_bell_states(20))
    ok = worst_qubit >= 0.999 and worst_bell >= 0.999
    _verdict(
        4,
        "noiseless recovery",
        ok,
        f"worst fidelity qubits {worst_qubit:.6f}, pairs {worst_bell:.6f}, floor 0.999",
    )
    assert ok, (worst_qubit, worst_bell)


def test_criterion_05_fidelity_benchmarks(mixed_cells, pure_cells):
    targets = (
        (mixed_cells, 0.0, "mixed sigma 0", 0.998),
        (mixed_cells, 0.2, "mixed sigma 0.2", 0.95),
        (pure_cells, 0.1, "pure sigma 0.1", 0.91),
        (pure_cells, 0.5, "pure sigma 0.5", 0.54),
    )
    details = []
    failures = []
    for cells, sigma, label, reference in targets:
        mean = cells[(sigma, 1000.0, "fidelity")].mean
        details.append(f"{label}: {mean:.4f} vs {reference}")
        if abs(mean - reference) > 0.02:
            failures.append(f"{label}: mean {mean:.4f} not within 0.02 of {reference}")
    ok = not failures
    _verdict(5, "benchmark fidelity cells", ok, "; ".join(details) + "; tol 0.02")
    assert ok, failures


def test_criterion_06_orthogonality_collapse():
    cells = _run_cells(
        "qubit-orthogonal-pairs", PAIR_SAMPLE, (0.0, 0.75), (1000.0,), run_sweep
    )
    sharp = cells[(0.0, 1000.0, "trace_distance")].mean
    blurred = cells[(0.75, 1000.0, "trace_distance")].mean
    ok = sharp >= 0.97 and blurred <= 0.1
    _verdict(
        6,
        "orthogonality collapse",
        ok,
        f"mean distance {sharp:.4f} at sigma 0 (floor 0.97), {blurred:.4f} at sigma 0.75 (cap 0.1)",
    )
    assert ok, (sharp, blurred)


def test_criterion_07_entanglement_collapse(entangled_cells):
    means = {
        n: entangled_cells[(0.25, n, "concurrence")].mean for n in (10.0, 100.0, 1000.0)
    }
    ok = all(value <= 0.05 for value in means.values())
    detail = ", ".join(f"N={int(n)}: {value:.4f}" for n, value in means.items())
    _verdict(7, "entanglement collapse at sigma 0.25", ok, detail + "; cap 0.05")
    assert ok, means


def test_criterion_08_chsh_boundary(entangled_cells):
    near = entangled_cells[(0.065, 1000.0, "concurrence")]
    near_guarantee = entangled_cells[(0.065, 1000.0, "chsh_guarantee")].mean == 1.0
    beyond = {
        n: entangled_cells[(0.07, n, "chsh_guarantee")].mean == 1.0
        for n in (10.0, 100.0, 1000.0)
    }
    failures = []
    if abs(near.mean - 0.74) > 0.03:
        failures.append(f"mean concurrence {near.mean:.4f} at sigma 0.065 not within 0.03 of 0.74")
    if not near_guarantee:
        failures.append("three-sigma guarantee does not hold at sigma 0.065, N=1000")
    for n, holds in beyond.items():
        if holds:
            stats = entangled_cells[(0.07, n, "concurrence")]
            failures.append(
                f"three-sigma guarantee still holds at sigma 0.07, N={int(n)} "
                f"(mean {stats.mean:.4f}, sd {stats.sd:.4f}, "
                f"mean - 3 sd = {stats.mean - 3 * stats.sd:.4f} > 0.7071); expected it broken"
            )
    ok = not failures
    beyond_text = ", ".join(
        f"N={int(n)}: {'holds' if holds else 'broken'}" for n, holds in beyond.items()
    )
    _verdict(
        8,
        "chsh guarantee boundary",
        ok,
        f"sigma 0.065 N=1000: mean {near.mean:.4f} vs 0.74 +- 0.03, "
        f"guarantee {'holds' if near_guarantee else 'broken'}; sigma 0.07: {beyond_text}",
    )
    assert ok, failures


def test_criterion_09_small_sample_spread(mixed_cells, pure_cells, entangled_cells):
    comparisons = (
        ("mixed fidelity sigma 0.2", mixed_cells, 0.2, "fidelity"),
        ("pure fidelity sigma 0.1", pure_cells, 0.1, "fidelity"),
        ("pure fidelity sigma 0.5", pure_cells, 0.5, "fidelity"),
        ("concurrence sigma 0.05", entangled_cells, 0.05, "concurrence"),
        ("concurrence sigma 0.15", entangled_cells, 0.15, "concurrence"),
    )
    details = []
    failures = []
    for label, cells, sigma, metric in comparisons:
        small = cells[(sigma, 10.0, metric)].sd
        large = cells[(sigma, 1000.0, metric)].sd
        details.append(f"{label}: {small:.4f} > {large:.4f}")
        if not small > large:
            failures.append(f"{label}: sd at N=10 ({small:.4f}) not above sd at N=1000 ({large:.4f})")
    ok = not failures
    _verdict(9, "spread grows at small photon number", ok, "; ".join(details))
    assert ok, failures


def test_criterion_10_determinism(tmp_path, monkeypatch):
    # a floor of 1 makes these small sweeps really split across two processes
    monkeypatch.setattr(harness, "_MIN_WORK_PER_WORKER", 1)
    qubit_cfg = ExperimentConfig(
        mode="qubit-pure",
        sigma_list=(0.1,),
        photon_list=(100.0,),
        seed=123,
        sample=SampleSizes(n_theta=4, n_phi=4),
    )
    bell_cfg = ExperimentConfig(
        mode="entangled",
        sigma_list=(0.1,),
        photon_list=(100.0,),
        seed=5,
        sample=SampleSizes(n_states=3),
    )
    paths = {}
    for tag, rows in (
        ("q1", run_sweep(qubit_cfg, workers=1)),
        ("q1-repeat", run_sweep(qubit_cfg, workers=1)),
        ("q2", run_sweep(qubit_cfg, workers=2)),
        ("b1", run_sweep(bell_cfg, workers=1)),
        ("b2", run_sweep(bell_cfg, workers=2)),
    ):
        paths[tag] = write_sweep_csv(tmp_path / f"{tag}.csv", rows).read_bytes()
    repeat_ok = paths["q1"] == paths["q1-repeat"]
    workers_ok = paths["q1"] == paths["q2"] and paths["b1"] == paths["b2"]
    ok = repeat_ok and workers_ok
    _verdict(
        10,
        "byte-identical reruns",
        ok,
        f"serial repeat identical: {repeat_ok}; workers 1 vs 2 identical: {workers_ok}",
    )
    assert ok
