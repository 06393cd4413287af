"""Evolutionary game-theoretic on-ramp merging simulator.

The decision core is an asymmetric 2x2 evolutionary game between a merging
autonomous vehicle and one main-road driver at a time, with online bisection
estimation of the driver's hidden style weight.  Nash and Stackelberg
policies run on the identical payoff matrices for comparison.
"""

from .baselines import Policy, merge_profile, nash_pure, select_nash, stackelberg
from .egt import (
    EquilibriumReport,
    PayoffMatrix,
    StrategyState,
    deviation_gains,
    eigenvalues_at,
    integrate_replicator,
    integrate_replicator_batch,
    replicator_rhs,
    solve_ess,
)
from .estimation import (
    Reaction,
    StabilityInterval,
    StyleBelief,
    ess_stability_interval,
    observed_reaction,
    update_belief,
)
from .metrics import BatchSummary, MetricsReport, compute_metrics, run_batch
from .payoff import (
    AgentView,
    AvMove,
    CellCosts,
    DrivingStyle,
    GameContext,
    MvMove,
    Role,
    StrategyPair,
    build_matrix,
    cell_costs,
    conflict_weight,
    required_avg_accel,
    target_arrival_time,
)
from .runner import (
    AvSpec,
    HeadwaySpec,
    Maneuver,
    ManeuverKind,
    SimConfig,
    SimTrace,
    VehicleSpec,
    decide,
    execute_lane_change,
    merge_control,
    run_estimation_bench,
    run_scenario,
)
from .traffic import (
    IDMParams,
    Lane,
    VehicleState,
    check_collision,
    idm_accel,
    step_kinematics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
