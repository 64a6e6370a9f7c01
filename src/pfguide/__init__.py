"""Guidance laws and closed-loop simulation for underactuated surface craft.

Public surface: parametric paths with derivatives up to the third, the
omega/z reparameterization, the PF error model and its Euler rollout, the
SGLOS baseline with input saturation, a dense active-set QP, the SQP
guidance law with terminal-weight synthesis and its one-step fast
variant, and the multirate simulation harness, which measures the PF
errors from the vessel pose, with scenario configuration and metrics.
"""

from .angles import wrap_angle
from .errdyn import (GuidanceState, InputCmd, Z_MIN, dynamics, euler_step,
                     rollout)
from .exceptions import (ConfigError, DomainError, EmptyTrace, Infeasible,
                         InfeasibleStart, NonRegularPath, PFGuideError,
                         QPFailure, StateEscape, UnstableTerminalLoop)
from .los import (InputConstraints, SGLOSParams, clamp_inputs, in_box,
                  in_rate, sglos)
from .nmpc import NMPCConfig, NMPCSolver, stage_cost
from .paths import (F_MIN, PathDef, PathPoint, case_study_path,
                    check_path_derivatives, line_path, omega_of_z,
                    path_from_config, polynomial_path, sample_path,
                    z_of_omega)
from .pnmpc import (JacobianBlock, PNMPCSolver, SolveResult,
                    discrete_lyapunov, horizon_cost, jacobian_block,
                    sensitivity_along, state_jacobian,
                    synthesize_terminal_weight)
from .qp import QPProblem, QPSolution, solve_qp
from .config import load_scenario, scenario_from_config
from .presets import equilibrium_scenario, realistic_scenario, transient_scenario
from .sim import (DisturbanceSpec, LowLevelFilter, Report, Scenario, Trace,
                  compute_metrics, disturbance_sample, run_scenario)

__version__ = "0.1.0"
