"""Time-domain photonic tomography: simulate rotating-frame polarization
measurements with detector timing jitter and Poisson counting noise, then
reconstruct the input states by maximum likelihood."""

__version__ = "0.1.0"

from .core import (
    DensityMatrix,
    max_abs,
    psd_sqrt,
)
from .counts import (
    CountRecord,
    NoiseConfig,
    coincidence_count_set,
    counting_rng,
    poisson_draw,
    qubit_count_set,
)
from .dynamics import DynamicsParams
from .estimator import (
    EstimateResult,
    EstimatorConfig,
    estimate_state,
    model_operator_stack,
)
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
    JitterModel,
    MeasurementSchedule,
    bloch_trajectory,
    horizontal_closed_form,
    ic_povm_schedule,
    polarization_projector,
)
from .metrics import (
    CHSH_THRESHOLD,
    MetricsSummary,
    aggregate,
    chsh_guarantee,
    concurrence,
    fidelity,
    trace_distance,
)
from .states import (
    BellParams,
    BlochParams,
    bell_state,
    bloch_state,
    orthogonal_pairs,
    orthogonal_partner,
    sample_bell_states,
    sample_mixed_qubits,
    sample_pure_qubits,
)
