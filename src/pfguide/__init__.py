"""Guidance laws and closed-loop simulation for underactuated surface craft.

Public surface: parametric paths and the omega/z reparameterization, the
PF error model, the SGLOS baseline with input saturation, a dense
active-set QP, the nonlinear SQP guidance law with terminal-weight
synthesis and its one-step fast variant, and the multirate simulation
harness with scenario configuration and metrics.
"""

from .angles import wrap_angle
from .errdyn import (GuidanceState, InputCmd, VesselPose, Z_MIN,
                     compute_errors, dynamics, euler_step, pose_errors_state,
                     rollout)
from .exceptions import (ConfigError, DomainError, EmptyTrace, Infeasible,
                         InfeasibleStart, NonRegularPath, PFGuideError,
                         QPFailure, StateEscape, TerminalWeightUnset,
                         UnstableTerminalLoop)
from .los import (InputConstraints, SGLOSParams, clamp_inputs, in_box,
                  in_rate, sglos)
from .nmpc import (NMPCConfig, NMPCSolver, discrete_lyapunov, make_config,
                   predict, stage_cost, synthesize_terminal_weight,
                   terminal_cost)
from .paths import (F_MIN, PathDef, PathPoint, case_study_path,
                    check_path_derivatives, line_path, omega_of_z,
                    path_from_config, polynomial_path, sample_path,
                    z_of_omega)
from .pnmpc import (JacobianBlock, PNMPCSolver, PredictionMatrix, SolveResult,
                    assemble_G, free_response, horizon_cost, jacobian_block,
                    sensitivity_along, state_jacobian)
from .qp import QPProblem, QPSolution, solve_qp
from .config import load_scenario, scenario_from_config
from .presets import equilibrium_scenario, realistic_scenario, transient_scenario
from .sim import (DisturbanceSpec, LowLevelFilter, Report, Scenario, Trace,
                  compute_metrics, disturbance_sample, run_scenario)

__version__ = "0.1.0"
