"""Time-domain photonic tomography: simulate rotating-frame polarization
measurements with detector timing jitter and Poisson counting noise, then
reconstruct the input states by maximum likelihood."""

__version__ = "0.1.0"

from .core import DensityMatrix, max_abs, psd_sqrt
from .counts import NoiseConfig, count_rows
from .dynamics import DynamicsParams
from .estimator import EstimatorConfig, StateEstimates, estimate_states
from .harness import (
    ExperimentConfig,
    SampleSizes,
    SweepRow,
    TrajectoryConfig,
    emit_trajectory,
    load_config,
    run_sweep,
    write_manifest,
    write_sweep_csv,
)
from .measurement import (
    IC_POVM_INSTANTS,
    JitterModel,
    bloch_trajectory,
    polarization_projector,
    setting_operators,
)
from .metrics import (
    CHSH_THRESHOLD,
    MetricsSummary,
    aggregate,
    chsh_guarantee,
    concurrences,
    fidelities,
    fidelity,
    trace_distances,
)
from .states import (
    BellParams,
    BlochParams,
    bell_state,
    bloch_state,
    orthogonal_pairs,
    sample_bell_states,
    sample_mixed_qubits,
    sample_pure_qubits,
    state_stack,
)
