"""Time-domain photonic tomography: simulate rotating-frame polarization
measurements with detector timing jitter and Poisson counting noise, then
reconstruct the input states by maximum likelihood."""

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  A name loads its
# submodule on first use (PEP 562), so ``import timetomo`` loads none of
# them and each command loads only the modules it runs.
_EXPORTS = {
    name: module
    for module, names in {
        "counts": ("count_rows",),
        "dynamics": ("DynamicsParams",),
        "estimator": ("EstimatorConfig", "StateEstimates", "estimate_states"),
        "harness": ("TrajectoryConfig", "emit_trajectory", "load_config", "write_manifest"),
        "measurement": ("IC_POVM_INSTANTS", "bloch_trajectory", "polarization_projector", "setting_operators"),
        "metrics": (
            "CHSH_THRESHOLD", "aggregate", "chsh_guarantee", "concurrences", "fidelities", "trace_distances",
        ),
        "states": (
            "bell_states", "orthogonal_pairs", "qubit_states", "sample_bell_states", "sample_mixed_qubits",
            "sample_pure_qubits",
        ),
        "sweep": ("ExperimentConfig", "SampleSizes", "SweepRow", "run_sweep", "write_sweep_csv"),
    }.items()
    for name in names
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
