"""Sweep configs, drivers, output documents, and the CLI front end."""

import json
import math
import re

import numpy as np
import pytest

import timetomo.harness as harness_module
from timetomo.cli import main
from timetomo.core import StateError
from timetomo.harness import (
    CSV_HEADER,
    MODES,
    ExperimentConfig,
    SampleSizes,
    SweepRow,
    TrajectoryConfig,
    _warning_row,
    emit_trajectory,
    load_config,
    run_manifest,
    run_sweep,
    sweep_rows_to_csv,
    write_manifest,
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
    with pytest.raises(ValueError):
        ExperimentConfig(mode="qubit-pure", sigma_list=(0.0,), photon_list=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(
            mode="entangled",
            sigma_list=(0.0,),
            photon_list=(10.0,),
            sample=SampleSizes(n_states=0),
        )


def test_config_rejects_informationally_incomplete_periods():
    # the six instants span the 2x2 Hermitian matrices only for some periods:
    # rank 2 at (4, 0.5, 2) and rank 3 at (1, 1, 1)
    doc = {"mode": "qubit-pure", "sigma_list": [0.0], "photon_list": [1000]}
    for periods, rank in (((4.0, 0.5, 2.0), 2), ((1.0, 1.0, 1.0), 3)):
        with pytest.raises(ValueError, match=re.escape(f"periods {periods}") + f".*rank {rank} of 4"):
            load_config({**doc, "periods": list(periods)})
    for periods in ((4.0, 1.0, 2.0), (3.7, 1.3, 2.9)):
        assert load_config({**doc, "periods": list(periods)}).periods == periods


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
    ],
)
def test_integer_fields_reject_fractions_and_booleans(doc, key):
    # truncating 2.7 to 2 would run a sample the config does not name, and a
    # fractional point count would fail only after the output directory exists
    with pytest.raises(ValueError, match=re.escape(key) + " must be an integer"):
        load_config(doc)


def test_integral_floats_load_as_integers():
    cfg = load_config({**TINY_QUBIT, "seed": 3.0, "sample": {"n_theta": 2.0, "n_phi": 2}})
    assert (cfg.seed, cfg.sample.n_theta) == (3, 2)
    assert type(cfg.seed) is int and type(cfg.sample.n_theta) is int
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


def test_default_samples_fill_in_per_mode():
    cfg = ExperimentConfig(mode="entangled", sigma_list=(0.0,), photon_list=(10.0,))
    assert cfg.sample == MODES["entangled"].desk
    assert MODES["qubit-mixed"].paper.n_r == 21


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
    cfg2 = load_config(path, seed=9, out_dir="elsewhere", paper_scale=True)
    assert cfg2.seed == 9
    assert cfg2.out_dir == "elsewhere"
    assert cfg2.sample == MODES["qubit-pure"].paper


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "bogus": 1})
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "sample": {"n_theta": 2, "bogus": 3}})
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "estimator": {"bogus": 3}})
    # the switches of the removed multi-restart search are unknown keys
    for key, value in (("optimizer", "simplex"), ("restarts", 5)):
        with pytest.raises(ValueError, match=f"unknown estimator keys: {key}"):
            load_config({**TINY_QUBIT, "estimator": {key: value}})
    with pytest.raises(ValueError):
        load_config({"mode": "qubit-pure", "sigma_list": [0.0]})  # missing photons
    with pytest.raises(ValueError):
        load_config({"sigma_list": [0.0], "photon_list": [1.0]})  # missing mode
    with pytest.raises(ValueError):
        load_config({**TINY_QUBIT, "mode": "wrong"})


def test_load_config_trajectory():
    cfg = load_config({"mode": "trajectory", "operator": "D", "sigma_over_T": 0.2, "points": 10})
    assert isinstance(cfg, TrajectoryConfig)
    assert cfg.operator == "D"
    with pytest.raises(ValueError):
        load_config({"mode": "trajectory", "bogus": 1})


def test_warning_row_thresholds():
    assert _warning_row(0.1, 10.0, [True] * 20) is None
    assert _warning_row(0.1, 10.0, [True] * 18 + [False] * 2) is None  # exactly 10%
    row = _warning_row(0.1, 10.0, [True] * 15 + [False] * 5)
    assert row.metric == "convergence_warning"
    assert row.mean == pytest.approx(0.25)
    assert row.n == 20


def test_sweep_csv_format():
    rows = [SweepRow(0.05, 1000.0, "fidelity", 0.987654321012, 0.01, 0.001, 100)]
    text = sweep_rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.05,1000,fidelity,0.987654321,0.01,0.001,100"


def test_qubit_sweep_rows_and_determinism(tmp_path):
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
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.0]})
    run_sweep(cfg, artifact_dir=tmp_path, dump_counts=True, state_log=True)
    counts = (tmp_path / "counts_sigma0_N100.csv").read_text().strip().split("\n")
    assert counts[0] == "state_id,t_i_over_T,t_j_over_T,expected,measured"
    assert len(counts) == 1 + 4 * 6  # four states, six settings each
    log_lines = (tmp_path / "estimates_sigma0_N100.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 4
    entry = json.loads(log_lines[0])
    assert set(entry) == {"state_id", "objective", "iterations", "converged", "fidelity"}


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
    import timetomo.harness as harness

    real = harness.estimate_states

    def failing(*args, **kwargs):
        real(*args, **kwargs)
        # the batched stage reports entry 2 of its batch, which in a serial
        # sweep is state 2 of the cell
        raise StateError(2) from FloatingPointError("boom")

    monkeypatch.setattr(harness, "estimate_states", failing)
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.1]})
    with pytest.raises(RuntimeError) as info:
        run_sweep(cfg, workers=1)
    message = str(info.value)
    for field in ("qubit-pure", "sigma 0.1", "N 100", "state 2", "boom"):
        assert field in message
    assert isinstance(info.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_count_row_names_its_state(monkeypatch, workers):
    # with two workers, state 3 is entry 1 of the second chunk
    import timetomo.harness as harness

    real = harness.count_rows

    def corrupt(states, sharp, smeared, cfg, first_index=0):
        expected, measured = real(states, sharp, smeared, cfg, first_index)
        measured[np.arange(first_index, first_index + len(states)) == 3, 0] = np.nan
        return expected, measured

    monkeypatch.setattr(harness, "count_rows", corrupt)
    cfg = load_config({**TINY_QUBIT, "sigma_list": [0.1]})
    message = "mode qubit-pure, sigma 0.1, N 100, state 3: count row has non-finite"
    with pytest.raises(RuntimeError, match=message):
        run_sweep(cfg, workers=workers)


def test_trajectory_csv_matches_row_wise_formatting(tmp_path, monkeypatch):
    # the table is written with one %-format; it must give the bytes of
    # formatting each value with f"{x:.6g}", on values where the two could part
    tricky = [-0.0, 0.0, 1e-5, -1e-5, 9.999995e-6, 1.0000049e-5, 1.23456789e-4, 123456.5, 1234567.0, 1e16]
    rng = np.random.default_rng(3)
    table = rng.choice(tricky, size=(60, 5)) * rng.choice([1.0, -1.0, 1.0 + 1e-12], size=(60, 5))
    assert (np.signbit(table) & (table == 0.0)).any()
    monkeypatch.setattr(harness_module, "bloch_trajectory", lambda *args: table)
    rows = [",".join(f"{v:.6g}" for v in row) for row in table]
    reference = "\n".join(["t_over_T,x,y,z,purity", *rows]) + "\n"
    path = emit_trajectory(TrajectoryConfig(points=60, out_dir=str(tmp_path)))
    assert path.read_bytes() == reference.encode()


def test_emit_trajectory_file(tmp_path):
    cfg = TrajectoryConfig(points=5, out_dir=str(tmp_path))
    path = emit_trajectory(cfg)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t_over_T,x,y,z,purity"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first == pytest.approx([0.0, 0.0, 0.0, 1.0, 1.0])


def test_write_csv_and_manifest(tmp_path):
    rows = [SweepRow(0.0, 10.0, "fidelity", 1.0, 0.0, 0.0, 2)]
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


def test_cli_trajectory_rejects_paper_scale(tmp_path, capsys):
    # --paper-scale resizes sweep samples; a trajectory has none to resize
    cfg_path = tmp_path / "traj.json"
    cfg_path.write_text(json.dumps({"mode": "trajectory", "points": 4}))
    with pytest.raises(SystemExit) as info:
        main(["trajectory", "--config", str(cfg_path), "--out", str(tmp_path), "--paper-scale"])
    assert info.value.code == 2
    assert "--paper-scale" in capsys.readouterr().err


def test_cli_rejects_mode_subcommand_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_QUBIT))
    code = main(["entangled-sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    assert "does not fit subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, workers):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_QUBIT))
    with pytest.raises(SystemExit) as info:
        main(["qubit-sweep", "--config", str(cfg_path), "--out", str(tmp_path), "--workers", workers])
    assert info.value.code == 2
    assert "workers must be at least 1" in capsys.readouterr().err


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
