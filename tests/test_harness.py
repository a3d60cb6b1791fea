"""Sweep configs, drivers, output documents, and the CLI front end."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trajectory_csv

import timetomo
import timetomo.harness as harness_module
import timetomo.sweep as sweep_module
from timetomo.cli import main
from timetomo.core import MAX_SEED, StateError
from timetomo.counts import MAX_MEAN_PHOTONS, _poisson_table
from timetomo.dynamics import DynamicsParams
from timetomo.harness import TrajectoryConfig, emit_trajectory, load_config, run_manifest, write_manifest
from timetomo.measurement import IC_POVM_INSTANTS, POLARIZATION_KETS, bloch_trajectory, setting_operators
from timetomo.sweep import (
    CSV_HEADER,
    MODES,
    ExperimentConfig,
    SampleSizes,
    SweepRow,
    _warning_row,
    run_sweep,
    sweep_rows_to_csv,
    write_sweep_csv,
)

TINY_QUBIT = {
    "mode": "qubit-pure",
    "sigma_list": [0.0, 0.1],
    "photon_list": [100],
    "sample": {"n_theta": 2, "n_phi": 2},
}


def test_experiment_config_validation():
    ExperimentConfig(mode="qubit-mixed", sigma_list=(0.0,), photon_list=(10.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="bogus", sigma_list=(0.0,), photon_list=(10.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="qubit-pure", sigma_list=(), photon_list=(10.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(mode="qubit-pure", sigma_list=(-0.1,), photon_list=(10.0,))
    for photons in (0.0, math.inf):
        with pytest.raises(ValueError):
            ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(photons,))
    with pytest.raises(ValueError, match="unsigned 64-bit"):
        ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(10.0,), seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(
            mode="entangled",
            sigma_list=(0.0,),
            photon_list=(10.0,),
            sample=SampleSizes(n_states=0),
        )


@pytest.mark.parametrize(
    "sigma_list, photon_list, message",
    [
        ((0.1, 0.1), (10.0,), "sigma_list entry 0.1 is repeated"),
        ((0.0, 0.1, 0.1 + 1e-12), (10.0,), "sigma_list entry 0.1 is repeated"),
        ((0.0,), (10.0, 20.0, 10), "photon_list entry 10 is repeated"),
    ],
    ids=["sigma-twice", "sigma-equal-to-ten-digits", "photons-int-and-float"],
)
def test_config_rejects_repeated_grid_entries(sigma_list, photon_list, message):
    # two cells that print the same would share their rows' keys and their artifact names
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(mode="qubit-pure", sigma_list=sigma_list, photon_list=photon_list)


def test_config_rejects_informationally_incomplete_periods():
    # the six instants span the 2x2 Hermitian matrices only for some periods:
    # rank 2 at (4, 0.5, 2) and rank 3 at (1, 1, 1)
    doc = {"mode": "qubit-pure", "sigma_list": [0.0], "photon_list": [1000]}
    for periods, rank in (((4.0, 0.5, 2.0), 2), ((1.0, 1.0, 1.0), 3)):
        with pytest.raises(ValueError, match=re.escape(f"periods {periods}") + f".*rank {rank} of 4"):
            load_config({**doc, "periods": list(periods)})
    for periods in ((4.0, 1.0, 2.0), (3.7, 1.3, 2.9)):
        assert load_config({**doc, "periods": list(periods)}).periods == periods


def _dynamics_accepts(periods) -> bool:
    try:
        DynamicsParams(*periods)
    except ValueError:
        return False
    return True


_PERIOD = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(periods=st.tuples(_PERIOD, _PERIOD, _PERIOD).filter(_dynamics_accepts))
def test_accepted_periods_give_informationally_complete_operators(periods):
    # a sweep config either takes the periods, and then the six sharp
    # operators span the 2x2 Hermitian matrices, or names the rank it found
    try:
        cfg = ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(10.0,), periods=periods)
    except ValueError as exc:
        assert re.search(r"informationally incomplete \(rank [0-3] of 4\)", str(exc))
        return
    _, sharp, _ = setting_operators(cfg.dynamics, [0.0], IC_POVM_INSTANTS, 2)
    assert np.linalg.matrix_rank(sharp.reshape(-1, 4)) == 4


@pytest.mark.parametrize("periods", [[3, 1], [4, 1, 2, 1]], ids=["two", "four"])
def test_configs_reject_periods_without_three_entries(periods):
    # a short list would run with a default period that the manifest does not record
    doc = {"mode": "qubit-pure", "sigma_list": [0.0], "photon_list": [1000]}
    for source in ({**doc, "periods": periods}, {"mode": "trajectory", "periods": periods}):
        with pytest.raises(ValueError, match="periods must list three rotation periods"):
            load_config(source)
    with pytest.raises(ValueError, match="periods"):
        ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(10.0,), periods=tuple(periods))
    with pytest.raises(ValueError, match="periods"):
        TrajectoryConfig(periods=tuple(periods))


@pytest.mark.parametrize(
    "doc, key",
    [
        ({**TINY_QUBIT, "sample": {"n_theta": 2.7, "n_phi": 2}}, "sample.n_theta"),
        ({**TINY_QUBIT, "sample": {"n_theta": 2, "n_phi": True}}, "sample.n_phi"),
        ({**TINY_QUBIT, "seed": 1.9}, "seed"),
        ({**TINY_QUBIT, "seed": False}, "seed"),
        ({"mode": "trajectory", "points": 10.5}, "points"),
        ({"mode": "trajectory", "points": True}, "points"),
        ({"mode": "trajectory", "seed": 0.5}, "seed"),
        ({**TINY_QUBIT, "estimator": {"max_iterations": 2.5}}, "max_iterations"),
        ({**TINY_QUBIT, "estimator": {"max_iterations": True}}, "max_iterations"),
    ],
)
def test_integer_fields_reject_fractions_and_booleans(doc, key):
    # truncating 2.7 to 2 would run a sample the config does not name, a
    # fractional point count would fail only after the output directory
    # exists, and 2.5 trial steps would allow 3
    with pytest.raises(ValueError, match=re.escape(key) + " must be an integer"):
        load_config(doc)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({**TINY_QUBIT, "sigma_list": 0.1}, "sigma_list must be a list of numbers"),
        ({**TINY_QUBIT, "photon_list": 10}, "photon_list must be a list of numbers"),
        ({**TINY_QUBIT, "photon_list": ["100"]}, "photon_list entry must be a number"),
        ({**TINY_QUBIT, "periods": 4}, "periods must be a list of numbers"),
        ({"mode": "trajectory", "periods": 4}, "periods must be a list of numbers"),
        ({"mode": "trajectory", "sigma_over_T": "0.1"}, "sigma_over_T must be a number"),
        ({"mode": "trajectory", "t_max_over_T": "2"}, "t_max_over_T must be a number"),
        ({**TINY_QUBIT, "estimator": {"convergence_tol": "1e-3"}}, "convergence_tol must be a number"),
        ({**TINY_QUBIT, "estimator": {"convergence_tol": True}}, "convergence_tol must be a number"),
        ({"mode": "trajectory", "out_dir": 5}, "out_dir must be a string"),
        ({**TINY_QUBIT, "out_dir": None}, "out_dir must be a string"),
        ({**TINY_QUBIT, "estimator": None}, "estimator must be a JSON object"),
        ({**TINY_QUBIT, "estimator": [1]}, "estimator must be a JSON object"),
        ({**TINY_QUBIT, "sample": 5}, "sample (qubit-pure) must be a JSON object"),
        ({**TINY_QUBIT, "sample": None}, "sample (qubit-pure) must be a JSON object"),
        ({**TINY_QUBIT, "sample": "ab"}, "sample (qubit-pure) must be a JSON object"),
        ({**TINY_QUBIT, "mode": ["qubit-mixed"]}, "mode must be a string"),
    ],
)
def test_config_type_errors_name_the_key(doc, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(doc)


def test_photon_list_is_capped():
    # the Poisson table of a count call grows as sqrt(N); past the ceiling a
    # config is rejected before any state is counted
    assert _poisson_table(MAX_MEAN_PHOTONS)[1].size < 600_000
    assert load_config({**TINY_QUBIT, "photon_list": [MAX_MEAN_PHOTONS]}).photon_list == (MAX_MEAN_PHOTONS,)
    with pytest.raises(ValueError, match=re.escape("at most MAX_MEAN_PHOTONS = 1e+09")):
        load_config({**TINY_QUBIT, "photon_list": [100, 1e10]})


def test_integral_floats_load_as_integers():
    cfg = load_config({**TINY_QUBIT, "seed": 3.0, "sample": {"n_theta": 2.0, "n_phi": 2},
                       "estimator": {"max_iterations": 40.0}})
    assert (cfg.seed, cfg.sample.n_theta, cfg.estimator.max_iterations) == (3, 2, 40)
    assert type(cfg.seed) is int and type(cfg.sample.n_theta) is int and type(cfg.estimator.max_iterations) is int
    assert type(load_config({"mode": "trajectory", "points": 10.0}).points) is int


def test_orthogonal_pairs_reject_odd_n_phi():
    sample = SampleSizes(n_theta=3, n_phi=3)
    with pytest.raises(ValueError, match="n_phi must be even"):
        ExperimentConfig(
            mode="qubit-orthogonal-pairs", sigma_list=(0.0,), photon_list=(10.0,), sample=sample
        )
    doc = {"mode": "qubit-orthogonal-pairs", "sigma_list": [0.0], "photon_list": [10]}
    with pytest.raises(ValueError, match="n_phi must be even"):
        load_config({**doc, "sample": {"n_theta": 3, "n_phi": 3}})
    # the same sizes are fine for a mode that does not pair antipodes
    ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(10.0,), sample=sample)


def test_orthogonal_pairs_reject_a_single_polar_angle():
    # with n_theta = 1 the grid is the north pole alone, and every "pair"
    # would be one state twice, at trace distance about 0 instead of 1
    sample = SampleSizes(n_theta=1, n_phi=4)
    with pytest.raises(ValueError, match="sample.n_theta must be at least 2"):
        ExperimentConfig(
            mode="qubit-orthogonal-pairs", sigma_list=(0.0,), photon_list=(1000.0,), sample=sample
        )
    doc = {"mode": "qubit-orthogonal-pairs", "sigma_list": [0.0], "photon_list": [1000]}
    with pytest.raises(ValueError, match="sample.n_theta must be at least 2"):
        load_config({**doc, "sample": {"n_theta": 1, "n_phi": 4}})
    ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(10.0,), sample=sample)
    sample = SampleSizes(n_theta=2, n_phi=4)
    cfg = ExperimentConfig(mode="qubit-orthogonal-pairs", sigma_list=(0.0,), photon_list=(1000.0,), sample=sample)
    (row,) = run_sweep(cfg)
    assert row.metric == "trace_distance" and row.mean > 0.9


def test_default_samples_fill_in_per_mode():
    cfg = ExperimentConfig(mode="entangled", sigma_list=(0.0,), photon_list=(10.0,))
    assert cfg.sample == MODES["entangled"].desk


def test_paper_configs_build_the_full_state_samples():
    # the paper-scale runs are committed configs, each at seed 3
    built = {}
    for path in (Path(__file__).resolve().parents[1] / "configs" / "paper").glob("*.json"):
        cfg = load_config(path)
        states, pure = MODES[cfg.mode].sample(cfg.sample)
        built[path.stem] = (len(states), len(pure), cfg.seed)
    assert built == {
        "qubit-mixed": (8820, 8820, 3),
        "qubit-pure": (420, 420, 3),
        "qubit-orthogonal-pairs": (420, 420, 3),  # 210 orthogonal pairs
        "entangled": (200, 200, 3),
        "entangled-cell": (200, 200, 3),
    }


def test_trajectory_config_validation():
    TrajectoryConfig()
    with pytest.raises(ValueError):
        TrajectoryConfig(operator="Q")
    with pytest.raises(ValueError):
        TrajectoryConfig(sigma_over_T=-0.1)
    with pytest.raises(ValueError):
        TrajectoryConfig(points=1)
    with pytest.raises(ValueError):
        TrajectoryConfig(t_max_over_T=0.0)
    assert TrajectoryConfig(seed=MAX_SEED).seed == MAX_SEED
    for seed in (-5, MAX_SEED + 1, 2**70):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            TrajectoryConfig(seed=seed)


def test_load_config_sweep_roundtrip(tmp_path):
    doc = dict(TINY_QUBIT)
    doc["seed"] = 7
    doc["estimator"] = {"max_iterations": 40}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.mode == "qubit-pure"
    assert cfg.seed == 7
    assert cfg.estimator.max_iterations == 40
    assert cfg.sample.n_theta == 2
    # overrides win over the file contents
    cfg2 = load_config(path, seed=9, out_dir="elsewhere")
    assert cfg2.seed == 9
    assert cfg2.out_dir == "elsewhere"
    assert cfg2.sample == cfg.sample


@pytest.mark.parametrize("doc", [TINY_QUBIT, {"mode": "trajectory"}], ids=["sweep", "trajectory"])
def test_load_config_builds_once_and_checks_overrides(monkeypatch, doc):
    # the overrides go into the one construction, whose checks cover them
    config_type = ExperimentConfig if doc["mode"] in MODES else TrajectoryConfig
    built = []
    check = config_type.__post_init__
    monkeypatch.setattr(config_type, "__post_init__", lambda self: (built.append(self), check(self)))
    cfg = load_config(doc, seed=3, out_dir=Path("elsewhere"))
    assert (len(built), cfg.seed, cfg.out_dir) == (1, 3, "elsewhere")
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            load_config(doc, seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        load_config(doc, seed=2.5)


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "bogus": 1})
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "sample": {"n_theta": 2, "bogus": 3}})
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "estimator": {"bogus": 3}})
    # the switches of the removed multi-restart search and the count floor,
    # now a constant, are unknown keys
    for key, value in (("optimizer", "simplex"), ("restarts", 5), ("epsilon_floor", 1e-9)):
        with pytest.raises(ValueError, match=f"unknown estimator keys: {key}"):
            load_config({**TINY_QUBIT, "estimator": {key: value}})
    for doc, key in (
        ({"mode": "qubit-pure", "sigma_list": [0.0]}, "photon_list"),
        ({"mode": "qubit-pure", "photon_list": [1.0]}, "sigma_list"),
        ({"sigma_list": [0.0], "photon_list": [1.0]}, "mode"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"config is missing the required {key!r} key")):
            load_config(doc)
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "mode": "wrong"})


def test_load_config_trajectory():
    cfg = load_config({"mode": "trajectory", "operator": "D", "sigma_over_T": 0.2, "points": 10})
    assert isinstance(cfg, TrajectoryConfig)
    assert cfg.operator == "D"
    with pytest.raises(ValueError):
        load_config({"mode": "trajectory", "bogus": 1})


@pytest.mark.parametrize("mode", [*MODES, "trajectory"])
def test_manifest_config_loads_back(mode):
    # a run's manifest records its config in a form that load_config reads
    # back as the same config, sample sizes, estimator and periods included
    run = {"seed": 12345, "periods": [3.7, 1.3, 2.9]}
    if mode == "trajectory":
        cfg, command = load_config({"mode": mode, "operator": "D", "points": 7, **run}), "trajectory"
    else:
        estimator = {"max_iterations": 77, "convergence_tol": 2.5e-4}
        doc = {"mode": mode, "sigma_list": [0.0, 0.1], "photon_list": [100], "estimator": estimator, **run}
        cfg, command = load_config(doc), MODES[mode].command
    document = run_manifest(command, cfg)["config"]
    assert load_config(document) == cfg
    assert load_config(json.loads(json.dumps(document))) == cfg


def test_trajectory_config_stores_its_reals_as_floats(tmp_path):
    # as the sweep configs do, so that a numpy scalar reaches the manifest as
    # JSON and an integer in the config file is recorded as the float it is read as
    cfg = TrajectoryConfig(sigma_over_T=np.int64(0), t_max_over_T=np.float32(3))
    assert (type(cfg.sigma_over_T), type(cfg.t_max_over_T)) == (float, float)
    manifest = json.loads(write_manifest(tmp_path / "manifest.json", run_manifest("trajectory", cfg)).read_text())
    assert (manifest["config"]["sigma_over_T"], manifest["config"]["t_max_over_T"]) == (0.0, 3.0)
    document = run_manifest("trajectory", load_config({"mode": "trajectory", "t_max_over_T": 3}))["config"]
    assert json.dumps(document["t_max_over_T"]) == "3.0"


def test_warning_row_thresholds():
    assert _warning_row(0.1, 10.0, [True] * 20) is None
    assert _warning_row(0.1, 10.0, [True] * 18 + [False] * 2) is None  # exactly 10%
    row = _warning_row(0.1, 10.0, [True] * 15 + [False] * 5)
    assert row.metric == "convergence_warning"
    assert row.mean == pytest.approx(0.25)
    assert row.n == 20


def test_sweep_csv_format():
    rows = [SweepRow(0.05, 1000.0, "fidelity", 0.987654321012, 0.01, 100)]
    text = sweep_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.05,1000,fidelity,0.987654321,0.01,0.001,100"


def test_qubit_sweep_rows_and_determinism(tmp_path, monkeypatch):
    # a floor of 1 lets even this tiny sweep split, so workers=2 really forks
    monkeypatch.setattr(sweep_module, "_MIN_WORK_PER_WORKER", 1)
    cfg = load_config(TINY_QUBIT)
    rows_serial = run_sweep(cfg, workers=1)
    # one fidelity row per (sigma, N) cell
    assert [(r.sigma, r.n_photons, r.metric) for r in rows_serial if r.metric == "fidelity"] == [
        (0.0, 100.0, "fidelity"),
        (0.1, 100.0, "fidelity"),
    ]
    for row in rows_serial:
        if row.metric == "fidelity":
            assert 0.0 <= row.mean <= 1.0
            assert row.n == 4
    rows_parallel = run_sweep(cfg, workers=2)
    assert sweep_rows_to_csv(rows_serial) == sweep_rows_to_csv(rows_parallel)


def test_qubit_sweep_artifacts(tmp_path):
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.0]}, out_dir=tmp_path)
    run_sweep(cfg, dump_counts=True, state_log=True)
    counts = (tmp_path / "counts_sigma0_N100.csv").read_text().strip().split("\n")
    assert counts[0] == "state_id,t_i_over_T,t_j_over_T,expected,measured"
    assert len(counts) == 1 + 4 * 6  # four states, six settings each
    log_lines = (tmp_path / "estimates_sigma0_N100.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 4
    entry = json.loads(log_lines[0])
    assert set(entry) == {"state_id", "objective", "iterations", "converged", "fidelity"}


def test_sweep_artifact_names_keep_the_csv_digits(tmp_path):
    # sigmas that agree to six digits but not to ten get a file pair each
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.1, 0.10000001]}, out_dir=tmp_path)
    run_sweep(cfg, dump_counts=True, state_log=True)
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "counts_sigma0.10000001_N100.csv",
        "counts_sigma0.1_N100.csv",
        "estimates_sigma0.10000001_N100.jsonl",
        "estimates_sigma0.1_N100.jsonl",
    ]


def test_entangled_sweep_writes_every_row_kind(tmp_path):
    # one trial step leaves every fit unconverged, so the cell gets its
    # metric rows, its CHSH flag and a convergence warning, in that order
    cfg = load_config(
        {
            "mode": "entangled",
            "sigma_list": [0.07],
            "photon_list": [10],
            "sample": {"n_states": 6},
            "estimator": {"max_iterations": 1},
        }
    )
    rows = run_sweep(cfg)
    assert [r.metric for r in rows] == ["concurrence", "fidelity", "chsh_guarantee", "convergence_warning"]
    lines = write_sweep_csv(tmp_path / "results.csv", rows).read_text().splitlines()
    assert lines[3:] == ["0.07,10,chsh_guarantee,0,0,0,6", "0.07,10,convergence_warning,1,0,0,6"]
    for row, line in zip(rows, lines[1:]):
        assert line.split(",")[5] == sweep_module._fmt(row.sd / math.sqrt(row.n))


@pytest.mark.parametrize("flag", ["dump_counts", "state_log"])
def test_sweep_artifacts_create_the_output_directory(tmp_path, flag):
    # the CLI makes the output directory first; a library call must not
    # depend on that, nor fail only after the fit
    out_dir = tmp_path / "new" / "run"
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.0]}, out_dir=out_dir)
    run_sweep(cfg, **{flag: True})
    assert len(list(out_dir.iterdir())) == 1


_LOG_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0]), st.floats())


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(_LOG_FLOATS, st.integers(0, 20000), st.booleans(), _LOG_FLOATS),
        max_size=6,
    )
)
def test_state_log_lines_are_the_bytes_of_json_dumps(entries):
    # the state log formats its lines directly; they must read as json.dumps
    # writes them, non-finite objectives and fidelities included
    keys = ("objective", "iterations", "converged", "fidelity")
    lines = [json.dumps({"state_id": i, **dict(zip(keys, entry))}, sort_keys=True) for i, entry in enumerate(entries)]
    columns = [np.array([entry[k] for entry in entries], dtype=t) for k, t in enumerate((float, int, bool, float))]
    assert sweep_module._state_log(*columns) == "\n".join(lines) + "\n"


def test_orthogonality_sweep_rows():
    cfg = load_config(
        {
            "mode": "qubit-orthogonal-pairs",
            "sigma_list": [0.0],
            "photon_list": [1000],
            "sample": {"n_theta": 3, "n_phi": 2},
        }
    )
    rows = run_sweep(cfg)
    dist = [r for r in rows if r.metric == "trace_distance"]
    assert len(dist) == 1
    assert dist[0].n == 3  # three antipodal pairs on the 3 x 2 grid
    assert dist[0].mean > 0.95  # noiseless partners reconstruct nearly orthogonal


def test_entangled_sweep_rows():
    cfg = load_config(
        {
            "mode": "entangled",
            "sigma_list": [0.0],
            "photon_list": [1000],
            "sample": {"n_states": 3},
        }
    )
    rows = run_sweep(cfg)
    metrics = [r.metric for r in rows]
    assert metrics[:3] == ["concurrence", "fidelity", "chsh_guarantee"]
    by_metric = {r.metric: r for r in rows}
    assert by_metric["concurrence"].mean > 0.99
    assert by_metric["fidelity"].mean > 0.99
    assert by_metric["chsh_guarantee"].mean == 1.0
    assert by_metric["chsh_guarantee"].sd == 0.0


def test_state_failure_names_its_cell_and_state(monkeypatch):
    real = sweep_module.estimate_states

    def failing(*args, **kwargs):
        real(*args, **kwargs)
        # the batched stage reports entry 2 of its batch, which in a serial
        # sweep is state 2 of the cell
        raise StateError(2) from FloatingPointError("boom")

    monkeypatch.setattr(sweep_module, "estimate_states", failing)
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.1]})
    with pytest.raises(RuntimeError) as info:
        run_sweep(cfg, workers=1)
    message = str(info.value)
    for field in ("qubit-pure", "sigma 0.1", "N 100", "state 2", "boom"):
        assert field in message
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_count_row_names_its_state(monkeypatch, workers):
    # with two workers, state 3 is entry 1 of the second chunk; in a grid,
    # the sweep fits every cell's rows in one call, and the failing row must
    # still map back to its own cell
    monkeypatch.setattr(sweep_module, "_MIN_WORK_PER_WORKER", 1)
    real = sweep_module.count_rows
    corrupted = {}

    def corrupt(states, smeared, mean_photons, seed, first_index=0):
        # the counts come as (sigma, N, state, setting); setting 0 of state 3 goes bad in the chosen cells
        measured = real(states, smeared, mean_photons, seed, first_index)
        measured[(*corrupted["cells"], np.arange(first_index, first_index + len(states)) == 3, 0)] = np.nan
        return measured

    monkeypatch.setattr(sweep_module, "count_rows", corrupt)
    corrupted["cells"] = (slice(None), slice(None))
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.1]})
    message = "mode qubit-pure, sigma 0.1, N 100, state 3: count row has non-finite"
    with pytest.raises(RuntimeError, match=message):
        run_sweep(cfg, workers=workers)

    # only the last cell of a 2 x 2 grid
    corrupted["cells"] = (-1, -1)
    cfg = load_config({**TINY_QUBIT, "photon_list": [10, 100]})
    message = "mode qubit-pure, sigma 0.1, N 100, state 3: count row has non-finite"
    with pytest.raises(RuntimeError, match=message):
        run_sweep(cfg, workers=workers)


@pytest.mark.parametrize("mode", ["qubit-mixed", "entangled"])
def test_grid_outputs_do_not_depend_on_workers(tmp_path, monkeypatch, mode):
    # the sweep fits every cell in one batch split into chunks; the CSV, the
    # counts and the state logs must be the same bytes for any split.  A floor
    # of 1 makes this small sweep split into as many chunks as workers.
    monkeypatch.setattr(sweep_module, "_MIN_WORK_PER_WORKER", 1)
    doc = {
        "mode": mode,
        "sigma_list": [0.0, 0.1],
        "photon_list": [10, 1000],
        "sample": {"n_states": 5} if mode == "entangled" else {"n_r": 2, "n_theta": 2, "n_phi": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    command = MODES[mode].command
    outputs = []
    for workers in ("1", "2", "3"):
        out_dir = tmp_path / f"run{workers}"
        args = ["--config", str(cfg_path), "--out", str(out_dir), "--workers", workers]
        assert main([command, *args, "--dump-counts", "--state-log"]) == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "manifest.json"})
    assert len(outputs[0]) == 1 + 2 * 4  # results.csv, then counts and a state log per cell
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize(
    ("extra_states", "workers", "pool_size"),
    [(-1, 2, None), (0, 2, 1), (0, 3, 1)],
)
def test_sweep_splits_only_into_chunks_above_the_work_floor(monkeypatch, extra_states, workers, pool_size):
    # a pair fit is 576 operator entries of work; a one-cell sweep with two
    # floors of work splits in two, with a pool of one beside the calling
    # process, even when --workers allows more; one state fewer does not split
    import concurrent.futures

    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    n_states = math.ceil(2 * sweep_module._MIN_WORK_PER_WORKER / 576) + extra_states
    cfg = ExperimentConfig(
        mode="entangled", sigma_list=(0.1,), photon_list=(1000.0,), sample=SampleSizes(n_states=n_states)
    )
    rows = run_sweep(cfg, workers=workers)
    assert pools == ([] if pool_size is None else [pool_size])
    assert rows[0].metric == "concurrence" and rows[0].n == n_states


def test_trajectory_csv_matches_row_wise_formatting(tmp_path, monkeypatch):
    # the table is computed and written a block of grid rows at a time; the
    # file must hold the bytes of formatting each value with f"{x:.6g}",
    # on values where the two could part, for the 2-point minimum and for
    # more than two blocks with a partial last one
    tricky = [-0.0, 0.0, 1e-5, -1e-5, 9.999995e-6, 1.0000049e-5, 1.23456789e-4, 123456.5, 1234567.0, 1e16]
    rng = np.random.default_rng(3)
    for points in (2, 2 * harness_module._TRAJECTORY_BLOCK_ROWS + 37):
        table = rng.choice(tricky, size=(points, 5)) * rng.choice([1.0, -1.0, 1.0 + 1e-12], size=(points, 5))
        table[0, 0] = -0.0
        cfg = TrajectoryConfig(points=points, out_dir=str(tmp_path / str(points)))
        grid = np.linspace(0.0, cfg.t_max_over_T, points)
        served = []

        def rows_of_block(operator, dynamics, sigma, times):
            # the rows of ``table`` for a block of the grid, asked for in order
            start = sum(served)
            np.testing.assert_array_equal(times, grid[start : start + len(times)])
            served.append(len(times))
            return table[start : start + len(times)]

        monkeypatch.setattr(harness_module, "bloch_trajectory", rows_of_block)
        rows = [",".join(f"{v:.6g}" for v in row) for row in table]
        reference = "\n".join(["t_over_T,x,y,z,purity", *rows]) + "\n"
        assert emit_trajectory(cfg).read_bytes() == reference.encode()
        assert sum(served) == points


@pytest.mark.parametrize("label", list(POLARIZATION_KETS))
def test_trajectory_csv_matches_the_reference_writer(tmp_path, label):
    # the numpy formatter must write the bytes of Python's %.6g on real
    # trajectories: sharp, barely and strongly smeared, short and long
    for sigma in (0.0, 1e-7, 0.07, 0.5, 3.0):
        for points in (2, 7, 6000):
            for periods in ((4.0, 1.0, 2.0), (3.7, 1.3, 2.9)):
                cfg = TrajectoryConfig(
                    operator=label, sigma_over_T=sigma, points=points, periods=periods, out_dir=str(tmp_path)
                )
                table = bloch_trajectory(label, cfg.dynamics, sigma, np.linspace(0.0, cfg.t_max_over_T, points))
                assert emit_trajectory(cfg).read_bytes() == trajectory_csv(table), (sigma, points, periods)


def _tie(j: int, q: int, shift: int, sign: int) -> float:
    # k / 2^j with k odd has the decimal digits of k 5^j, which end in 5; when
    # there are seven of them the value lies halfway between two six-digit ones,
    # and so does any multiple by 10^shift
    low, high = -(-(10**6) // 5**j), (10**7 - 1) // 5**j
    k = 2 * (low // 2 + q % ((high + 1) // 2 - low // 2)) + 1
    return sign * k / 2**j * 10**shift


_G6_VALUES = st.one_of(
    st.floats(),
    st.sampled_from(
        [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
         1.7976931348623157e308, 2.0**-9, 9.999995e-5, 99999.95, 999999.5, 1e-4, 1e-5, 123456.5,
         1e-280, -1e280, 9.999999999999999e-281, 1.0000000000000001e280, 1e100, 1e-100]
    ),
    st.builds(_tie, st.integers(1, 10), st.integers(0, 10**6), st.integers(0, 8), st.sampled_from([1, -1])),
    st.floats(1e99, 1e300).map(lambda x: -x),
    st.floats(1e-300, 1e-99),
)
_BLOCK = harness_module._TRAJECTORY_BLOCK_ROWS


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(_G6_VALUES, min_size=1, max_size=25),
    rows=st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37]),
)
def test_trajectory_values_are_written_as_python_formats_them(tmp_path_factory, values, rows):
    # every value, tie, subnormal and non-finite one alike, must read as
    # f"{x:.6g}" writes it, in tables of one row and around the block size
    table = np.resize(np.array(values), (rows, 5))
    expected = np.resize(np.array([f"{x:.6g}" for x in values], dtype=object), table.shape).tolist()
    out_dir = tmp_path_factory.getbasetemp() / "trajectory-values"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness_module, "bloch_trajectory", lambda *args: table)
        text = emit_trajectory(TrajectoryConfig(points=2, out_dir=str(out_dir))).read_text()
    lines = text.split("\n")
    assert lines[0] == "t_over_T,x,y,z,purity" and lines[-1] == ""
    assert [line.split(",") for line in lines[1:-1]] == expected


def test_emit_trajectory_file(tmp_path):
    cfg = TrajectoryConfig(points=5, out_dir=str(tmp_path))
    path = emit_trajectory(cfg)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t_over_T,x,y,z,purity"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.0, 0.0, 1.0, 1.0])


def test_write_csv_and_manifest(tmp_path):
    rows = [SweepRow(0.0, 10.0, "fidelity", 1.0, 0.0, 2)]
    csv_path = write_sweep_csv(tmp_path / "sub" / "results.csv", rows)
    assert csv_path.read_text().startswith(CSV_HEADER)
    cfg = load_config(TINY_QUBIT)
    manifest = run_manifest("qubit-sweep", cfg)
    assert manifest["command"] == "qubit-sweep"
    assert manifest["config"]["mode"] == "qubit-pure"
    assert set(manifest["versions"]) == {"timetomo", "python", "numpy"}
    out = write_manifest(tmp_path / "manifest.json", manifest)
    assert json.loads(out.read_text())["config"]["photon_list"] == [100.0]


def test_cli_qubit_sweep_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_QUBIT))
    out_dir = tmp_path / "run"
    code = main(
        ["qubit-sweep", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "3"]
    )
    assert code == 0
    printed = capsys.readouterr().out.strip()
    assert printed.endswith("results.csv")
    csv_lines = (out_dir / "results.csv").read_text().strip().split("\n")
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) >= 3
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 3


def test_cli_trajectory_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "traj.json"
    cfg_path.write_text(
        json.dumps({"mode": "trajectory", "points": 4, "sigma_over_T": 0.1})
    )
    out_dir = tmp_path / "run"
    code = main(["trajectory", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "trajectory.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_cli_rejects_mode_subcommand_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_QUBIT))
    code = main(["entangled-sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "does not fit subcommand" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_text, extra, message",
    [
        ('{"mode": "qubit-pure",', [], "error: Expecting"),
        (None, [], "error: [Errno 2] No such file or directory"),
        (json.dumps({**TINY_QUBIT, "sigma_list": [-1]}), [], "error: sigma_list must be nonempty with nonnegative"),
        (json.dumps(TINY_QUBIT), ["--seed", "-1"], "error: seed must fit in an unsigned 64-bit integer"),
        (json.dumps(TINY_QUBIT), ["--seed", str(MAX_SEED + 1)], "error: seed must fit in an unsigned 64-bit integer"),
    ],
    ids=["bad-json", "missing-file", "negative-sigma", "negative-seed", "seed-over-64-bits"],
)
def test_cli_reports_a_bad_config_in_one_line(tmp_path, capsys, config_text, extra, message):
    cfg_path = tmp_path / "cfg.json"
    if config_text is not None:
        cfg_path.write_text(config_text)
    code = main(["qubit-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run"), *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(message) and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["trajectory", "qubit-sweep"])
@pytest.mark.parametrize("out", ["afile", "afile/run"])
def test_cli_reports_an_unusable_out_in_one_line(tmp_path, capsys, command, out):
    # --out naming an existing file, or a path below one, cannot be a directory
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "trajectory", "points": 4} if command == "trajectory" else TINY_QUBIT))
    (tmp_path / "afile").write_text("kept")
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot create output directory") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (tmp_path / "afile").read_text() == "kept"


_WORKERS_ERRORS = {
    "0": "workers must be at least 1",
    "-3": "workers must be at least 1",
    "abc": "workers must be an integer, got 'abc'",
    "1.5": "workers must be an integer, got '1.5'",
}


@pytest.mark.parametrize("workers", list(_WORKERS_ERRORS))
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_QUBIT))
    with pytest.raises(SystemExit) as info:
        main(["qubit-sweep", "--config", str(cfg_path), "--out", str(tmp_path), "--workers", workers])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert _WORKERS_ERRORS[workers] in err
    # the error names the option, never the private function behind it
    assert "_workers_type" not in err


_TOP_USAGE = "usage: timetomo [-h] {trajectory,qubit-sweep,ortho-sweep,entangled-sweep} ...\n"
_USAGE = {
    "trajectory": "usage: timetomo trajectory [-h] --config CONFIG [--seed SEED] [--out OUT]\n",
    "qubit-sweep": (
        "usage: timetomo qubit-sweep [-h] --config CONFIG [--seed SEED] [--out OUT]\n"
        "                            [--workers WORKERS] [--dump-counts] [--state-log]\n"
    ),
    "ortho-sweep": (
        "usage: timetomo ortho-sweep [-h] --config CONFIG [--seed SEED] [--out OUT]\n"
        "                            [--workers WORKERS] [--dump-counts] [--state-log]\n"
    ),
    "entangled-sweep": (
        "usage: timetomo entangled-sweep [-h] --config CONFIG [--seed SEED] [--out OUT]\n"
        "                                [--workers WORKERS] [--dump-counts]\n"
        "                                [--state-log]\n"
    ),
}
_TOP_HELP = _TOP_USAGE + (
    "\n"
    "Simulate time-domain photonic tomography and reconstruct states from noisy\n"
    "counts.\n"
    "\n"
    "positional arguments:\n"
    "  {trajectory,qubit-sweep,ortho-sweep,entangled-sweep}\n"
    "    trajectory          emit the Bloch trajectory of a measurement operator\n"
    "    qubit-sweep         fidelity sweep over a single-qubit state grid\n"
    "    ortho-sweep         trace-distance sweep over orthogonal state pairs\n"
    "    entangled-sweep     concurrence and fidelity sweep over entangled pairs\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
_TRAJECTORY_OPTIONS = (
    "\n"
    "options:\n"
    "  -h, --help       show this help message and exit\n"
    "  --config CONFIG  path to the JSON config\n"
    "  --seed SEED      override the config seed\n"
    "  --out OUT        override the config output directory\n"
)
_SWEEP_OPTIONS = (
    "\n"
    "options:\n"
    "  -h, --help         show this help message and exit\n"
    "  --config CONFIG    path to the JSON config\n"
    "  --seed SEED        override the config seed\n"
    "  --out OUT          override the config output directory\n"
    "  --workers WORKERS  at most this many processes fit; small sweeps run in one\n"
    "                     process\n"
    "  --dump-counts      write raw counts per cell\n"
    "  --state-log        write per-state estimate log\n"
)
_HELP = {
    command: usage + (_TRAJECTORY_OPTIONS if command == "trajectory" else _SWEEP_OPTIONS)
    for command, usage in _USAGE.items()
}
_CHOICES = "'trajectory', 'qubit-sweep', 'ortho-sweep', 'entangled-sweep'"


@pytest.mark.parametrize(
    "argv, status, stream, text",
    [
        *(([flag], 0, "out", _TOP_HELP) for flag in ("--help", "-h")),
        *(([command, flag], 0, "out", _HELP[command]) for command in _HELP for flag in ("--help", "-h")),
        ([], 2, "err", _TOP_USAGE + "timetomo: error: the following arguments are required: command\n"),
        (
            ["bogus", "--config", "{cfg}"], 2, "err",
            _TOP_USAGE + f"timetomo: error: argument command: invalid choice: 'bogus' (choose from {_CHOICES})\n",
        ),
        (
            ["qubit-sweep", "--seed", "1"], 2, "err",
            _USAGE["qubit-sweep"] + "timetomo qubit-sweep: error: the following arguments are required: --config\n",
        ),
        (
            ["trajectory", "--config"], 2, "err",
            _USAGE["trajectory"] + "timetomo trajectory: error: argument --config: expected one argument\n",
        ),
        (
            ["trajectory", "--config", "{cfg}", "--seed", "x"], 2, "err",
            _USAGE["trajectory"] + "timetomo trajectory: error: argument --seed: invalid int value: 'x'\n",
        ),
        (
            ["trajectory", "--config", "{cfg}", "extra"], 2, "err",
            _TOP_USAGE + "timetomo: error: unrecognized arguments: extra\n",
        ),
        (
            ["trajectory", "--config", "{cfg}", "--dump-counts"], 2, "err",
            _TOP_USAGE + "timetomo: error: unrecognized arguments: --dump-counts\n",
        ),
        (
            ["qubit-sweep", "--config", "{cfg}", "--paper-scale"], 2, "err",
            _TOP_USAGE + "timetomo: error: unrecognized arguments: --paper-scale\n",
        ),
        (["trajectory", "--config={cfg}", "--out={out}"], 0, "out", "{out}/trajectory.csv\n"),
        (
            ["trajectory", "--config", "{cfg}", "--out", "{out}", "--seed", "1", "--seed", "-1"], 2, "err",
            "error: seed must fit in an unsigned 64-bit integer\n",
        ),
    ],
    ids=[
        "--help", "-h",
        *(f"{command}{flag}" for command in _HELP for flag in ("--help", "-h")),
        "no-arguments", "unknown-subcommand", "missing-config", "option-without-value", "bad-seed",
        "leftover-positional", "trajectory-dump-counts", "sweep-paper-scale", "equals-form", "repeated-seed-keeps-last",
    ],
)
def test_cli_usage_outcomes(tmp_path, capsys, monkeypatch, argv, status, stream, text):
    # the exit status and every byte of the one stream written; help and
    # usage are laid out for 80 columns whatever the terminal's width
    cfg_path = tmp_path / "traj.json"
    cfg_path.write_text(json.dumps({"mode": "trajectory", "points": 4}))

    def fill(text):
        return text.replace("{cfg}", str(cfg_path)).replace("{out}", str(tmp_path / "run"))

    expected = (fill(text), "") if stream == "out" else ("", fill(text))
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        try:
            code = main([fill(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        written = capsys.readouterr()
        assert (code, written.out, written.err) == (status, *expected), columns


def test_cli_seed_changes_results(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_QUBIT, "sigma_list": [0.1]}))
    outs = {}
    for seed in ("1", "2"):
        out_dir = tmp_path / f"run{seed}"
        assert main(["qubit-sweep", "--config", str(cfg_path), "--out", str(out_dir), "--seed", seed]) == 0
        outs[seed] = (out_dir / "results.csv").read_text()
    assert outs["1"] != outs["2"]


def test_cli_dump_counts_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY_QUBIT, "sigma_list": [0.0]}))
    out_dir = tmp_path / "run"
    code = main(
        [
            "qubit-sweep",
            "--config",
            str(cfg_path),
            "--out",
            str(out_dir),
            "--dump-counts",
            "--state-log",
        ]
    )
    assert code == 0
    assert (out_dir / "counts_sigma0_N100.csv").exists()
    assert (out_dir / "estimates_sigma0_N100.jsonl").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_sweep_leaves_numpy_random_unimported(tmp_path, workers):
    # the counts draw from their own Philox; importing numpy.random would cost
    # every interpreter and every pool worker tens of milliseconds.  A sweep of
    # 192 qubit fits is too small to split, so it must not import the process
    # pool either, whatever --workers allows.
    cfg_path = tmp_path / "cfg.json"
    doc = {
        "mode": "qubit-mixed",
        "sigma_list": [0.0, 0.2],
        "photon_list": [1000],
        "sample": {"n_r": 8, "n_theta": 3, "n_phi": 4},
    }
    cfg_path.write_text(json.dumps(doc))
    argv = ["qubit-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "run"), "--workers", workers]
    modules = ("numpy.random", "concurrent.futures.process", "multiprocessing")
    assert _main_in_a_fresh_interpreter(argv, modules) == (0, [False, False, False])


def test_cli_call_leaves_argparse_and_locale_unimported(tmp_path):
    # building an argparse parser, and the gettext lookup behind its first
    # message (which imports locale), cost more than most stages of a small
    # call; only help and usage errors build one.  One call per subcommand
    # kind, the sweep with the benchmark's own flags.
    grid = {"sigma_list": [0.0], "photon_list": [100]}
    calls = [
        ("entangled-sweep", {"mode": "entangled", **grid, "sample": {"n_states": 2}}, []),
        ("trajectory", {"mode": "trajectory", "points": 4}, []),
        (
            "qubit-sweep",
            {"mode": "qubit-mixed", **grid, "sample": {"n_r": 1, "n_theta": 2, "n_phi": 2}},
            ["--workers", "2", "--state-log"],
        ),
    ]
    for command, doc, flags in calls:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / command), *flags]
        assert _main_in_a_fresh_interpreter(argv, ("argparse", "locale")) == (0, [False, False]), command


_SWEEP_MODULES = tuple(f"timetomo.{name}" for name in ("sweep", "estimator", "counts", "metrics", "states"))


def test_trajectory_call_leaves_the_sweep_modules_unimported(tmp_path):
    # a trajectory runs only the dynamics and measurement code; the sweep's
    # modules load with a sweep config, in load_config, before main picks a branch
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps({"mode": "trajectory", "points": 4}))
    argv = ["trajectory", "--config", str(trajectory), "--out", str(tmp_path / "run")]
    assert _main_in_a_fresh_interpreter(argv, _SWEEP_MODULES) == (0, [False] * 5)
    # a sweep config under the trajectory subcommand is loaded, then refused
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(TINY_QUBIT))
    argv = ["trajectory", "--config", str(sweep), "--out", str(tmp_path / "run")]
    assert _main_in_a_fresh_interpreter(argv, _SWEEP_MODULES) == (2, [True] * 5)


# the names the package re-exports, as the README imports them
_PUBLIC_NAMES = (
    "CHSH_THRESHOLD", "DynamicsParams", "EstimatorConfig", "ExperimentConfig", "IC_POVM_INSTANTS",
    "SampleSizes", "StateEstimates", "SweepRow", "TrajectoryConfig", "aggregate",
    "bell_states", "bloch_trajectory", "chsh_guarantee", "concurrences", "count_rows", "emit_trajectory",
    "estimate_states", "fidelities", "load_config", "orthogonal_pairs", "polarization_projector",
    "qubit_states", "run_sweep", "sample_bell_states", "sample_mixed_qubits", "sample_pure_qubits",
    "setting_operators", "trace_distances", "write_manifest", "write_sweep_csv",
)


def test_package_exports_load_on_first_use():
    script = "import sys, timetomo\nprint(sorted(name for name in sys.modules if name.startswith('timetomo.')))\n"
    assert _in_a_fresh_interpreter(script).split()[-1] == "[]"
    listed = dir(timetomo)
    for name in _PUBLIC_NAMES:
        namespace = {}
        exec(f"from timetomo import {name}", namespace)
        home = sys.modules[f"timetomo.{timetomo._EXPORTS[name]}"]
        assert namespace[name] is getattr(home, name), name
        # the table names the module that defines the name, not one that imports it
        assert getattr(namespace[name], "__module__", home.__name__) == home.__name__, name
        assert name in listed, name
    assert sorted(timetomo._EXPORTS) == sorted(_PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no_such_name"):
        timetomo.no_such_name
    with pytest.raises(ImportError):
        exec("from timetomo import no_such_name", {})


def _in_a_fresh_interpreter(script):
    """The standard output of ``script`` run by a new interpreter that imports timetomo from this checkout."""
    src = str(Path(timetomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _main_in_a_fresh_interpreter(argv, modules):
    """The exit code of ``main(argv)`` in a new interpreter, and whether each of ``modules`` was imported then."""
    script = (
        "import sys\n"
        "from timetomo.cli import main\n"
        f"code = main({argv!r})\n"
        f"print(code, *(name in sys.modules for name in {modules!r}))\n"
    )
    code, *loaded = _in_a_fresh_interpreter(script).split()[-1 - len(modules):]
    return int(code), [flag == "True" for flag in loaded]
