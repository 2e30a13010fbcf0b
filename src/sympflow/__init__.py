"""Time-dependent symplectic neural flow maps for Hamiltonian systems.

The package trains a flow map built from exact Hamiltonian shear layers
(symplectic by construction, identity at t = 0) or an unconstrained MLP
baseline, on supervised trajectory data or directly on a system's equations
of motion.  The shear-layer model's exact generating Hamiltonian can be
extracted in closed form, enabling an energy-matching training term and
a-posteriori analysis.  Long horizons are reached by composing the trained
window map; evaluation utilities cover energy drift, relative errors,
drift-growth slopes, and Poincare sections.

Quick start::

    import numpy as np
    from sympflow import Sho, SympFlowRegressor

    est = SympFlowRegressor(system=Sho(), regime="regularized", layers=3,
                            epochs=5000, seed=0)
    est.fit()
    times, states = est.rollout_path([1.0, 0.0], horizon=1000.0)

The low-level training loop and the reference integrator are imported from
their modules, ``from sympflow.train import train`` and
``from sympflow.integrate import integrate``; ``sympflow.train`` and
``sympflow.integrate`` name the modules, not the functions.
"""

from .errors import (
    CheckpointError,
    ConfigError,
    DimensionError,
    IntegrationError,
    KindMismatchError,
    StaleJetError,
    TrainingDivergedError,
    UnsupportedSystemError,
)
from .estimators import MlpFlowRegressor, SympFlowRegressor
from .evaluate import (
    MetricReport,
    RolloutSpec,
    drift_slope,
    energy_drift_series,
    evaluate_model,
    poincare_crossings,
    poincare_section,
    rollout,
    rollout_path,
)
from .extraction import (
    extract,
    extract_gradient,
    pair_hamiltonian,
    piecewise_hamiltonian,
    tail_inverse,
)
from .integrate import DenseSolution, TrajectoryDataset, generate_dataset, sample_states
from .io import load_checkpoint, load_config, load_dataset, save_checkpoint, save_dataset
from .mlp import MlpFlowModel, random_mlp_flow
from .model import (
    SympFlowModel,
    apply_p_layer,
    apply_q_layer,
    forward,
    invert_p_layer,
    invert_q_layer,
    jacobian,
    param_count,
    random_sympflow,
    symplectic_matrix,
    time_derivative,
)
from .potential import PotentialNet, random_potential_net
from .systems import (
    DampedAugmented,
    HamiltonianSystem,
    HenonHeiles,
    Sho,
    analytic_solution,
    embed_physical,
    physical_limit_project,
    system_from_name,
)
from .train import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    build_model,
    loss_energy_reg,
    loss_ham_match,
    loss_residual,
    loss_supervised,
    sample_collocation,
    total_loss,
)

__version__ = "0.1.0"
