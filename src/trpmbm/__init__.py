"""Multi-target tracking of spawning targets on sets of tree trajectories.

Filters over tree trajectories (one born target plus all its spawned
descendants, with genealogy): the Poisson multi-Bernoulli mixture
recursion with multi-Bernoulli branches, its multi-Bernoulli-birth
variant, and the no-spawning special case, plus a trajectory-set metric
and a Monte-Carlo benchmark harness.
"""

from .filter import (
    BernoulliTree,
    BranchSlot,
    GlobalHyp,
    HeldSlot,
    HypTable,
    LocalHyp,
    Posterior,
    check_posterior,
    estimate,
    form_hypotheses,
    initial_posterior,
    posterior_to_dict,
    predict,
    prune,
    step,
    truncate_window,
    update,
)
from .gaussian import (
    BranchDensity,
    EndCase,
    GaussianBranchComponent,
    Moments,
    PPPComponent,
    condition,
    gate_loglik,
    innovation,
    l_scan_truncate,
    last_states,
    spawn,
    survive,
    transition,
)
from .harness import FilterSpec, RunReport, emit_outputs, rms_curves, run_experiment
from .metric import (
    MetricBreakdown,
    Track,
    TrajMetricParams,
    branches_as_tracks,
    trajectory_metric,
)
from .models import (
    BirthComponent,
    FilterParams,
    MeasurementModel,
    MotionMode,
    ScenarioConfig,
    ScenarioError,
    default_scenario,
    load_scenario,
    no_spawning,
    perp_unit,
    perp_units,
    sample_ground_truth,
    sample_measurement_sequence,
    sample_measurements,
    write_ground_truth,
    write_measurements,
)
from .trees import (
    Branch,
    GenealogyError,
    TreeTrajectory,
    branch_length,
    enumerate_branch_ids,
    genealogy_for,
    max_branch_length,
    max_branches,
    parse_trees,
    targets_at_time,
    tree_to_lines,
    trees_to_text,
    unique_id,
    validate_genealogy,
    validate_tree,
)
from .assignment import InfeasibleAssignmentError, hungarian, murty_kbest

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
