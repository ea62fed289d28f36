"""Constant-speed swarm tracking: dynamics, controllers, analysis, simulation.

A group of fixed-speed planar vehicles steers by heading control alone so that
their centroid follows a generated reference trajectory toward a moving
target, while a spacing term spreads the vehicles out around it. The package
provides the vehicle model, the control laws, equilibrium and feasibility
analysis, a broadcast network model, a simulation engine, and a scenario-file
CLI.
"""

from .analysis import (
    EquilibriumClass,
    EquilibriumRejected,
    EquilibriumSpec,
    FeasibilityReport,
    StabilityVerdict,
    build_equilibrium,
    check_feasibility,
    classify_equilibrium,
    hessian,
    perturbation_oracle,
    simulate_phase_flow,
)
from .controllers import (
    ControllerGains,
    SpacingMode,
    control_terms,
    project_spacing_to_kernel,
)
from .dynamics import (
    rk4_unicycle_arrays,
    wrap_angle,
    wrap_angles,
)
from .engine import (
    AgentInit,
    ConstantRef,
    InfeasibleScenario,
    RunLog,
    ScenarioConfig,
    SimulationAborted,
    TargetTracking,
    TurningRef,
    run,
    run_oracle_centroid,
)
from .netsim import BroadcastNetwork, NetworkConfig, counter_uniform
from .reference import (
    ConstantVelocityTarget,
    ConstantWeight,
    DistanceDependentWeight,
    TurningTarget,
    WaypointTarget,
    reference_velocity,
    target_state,
)
from .scenario import ScenarioError, parse_scenario_text

__version__ = "0.1.0"

__all__ = [
    "AgentInit",
    "BroadcastNetwork",
    "ConstantRef",
    "ConstantVelocityTarget",
    "ConstantWeight",
    "ControllerGains",
    "DistanceDependentWeight",
    "EquilibriumClass",
    "EquilibriumRejected",
    "EquilibriumSpec",
    "FeasibilityReport",
    "InfeasibleScenario",
    "NetworkConfig",
    "RunLog",
    "ScenarioConfig",
    "ScenarioError",
    "SimulationAborted",
    "SpacingMode",
    "StabilityVerdict",
    "TargetTracking",
    "TurningRef",
    "TurningTarget",
    "WaypointTarget",
    "build_equilibrium",
    "check_feasibility",
    "classify_equilibrium",
    "control_terms",
    "counter_uniform",
    "hessian",
    "parse_scenario_text",
    "perturbation_oracle",
    "project_spacing_to_kernel",
    "reference_velocity",
    "rk4_unicycle_arrays",
    "run",
    "run_oracle_centroid",
    "simulate_phase_flow",
    "target_state",
    "wrap_angle",
    "wrap_angles",
]
