"""Canonical scenarios used by the test suite and handy from the API.

transient_scenario: the curved-path approach from (10, 10) with the target
starting at omega = 2.5, guidance and plant both at 1 s, ideal actuation,
and an optional fixed-period sway sinusoid.

realistic_scenario: the same geometry under multirate integration (plant
at 100 ms), the low-level actuator filter, and the mirrored-chirp sway.

equilibrium_scenario: a straight line followed from an exactly matched
initial condition.  The z weight is zeroed here (and the solver derives
the terminal weight for it) so that holding the matched command is the
exact optimum of the horizon cost; with a z pull the optimizer would
trade a microscopic along-track offset for faster progress, which is
exactly what this scenario must not contain.
"""

from __future__ import annotations

import numpy as np

from .errdyn import InputCmd
from .nmpc import NMPCConfig
from .paths import case_study_path, line_path
from .sim import DisturbanceSpec, Scenario


def transient_scenario(law: str = "nmpc", amplitude: float = 0.15,
                       duration: float = 400.0) -> Scenario:
    """Curved-path approach; sinusoidal sway of the given amplitude."""
    dist = DisturbanceSpec() if amplitude == 0.0 else \
        DisturbanceSpec(kind="sinusoid", amplitude=amplitude, period=60.0)
    return Scenario(
        path=case_study_path(), x0=10.0, y0=10.0, omega0=2.5,
        u_r=0.15, T_m=1.0, T_p=1.0, duration=duration, law=law,
        disturbance=dist, filter_enabled=False)


def realistic_scenario(law: str = "nmpc", duration: float = 400.0) -> Scenario:
    """Multirate plant, actuator filter, mirrored-chirp sway."""
    dist = DisturbanceSpec(kind="chirp_mirror", amplitude=0.15,
                           f0=1.0 / 60.0, f1=1.0 / 30.0, switch_time=200.0)
    return Scenario(
        path=case_study_path(), x0=10.0, y0=10.0, omega0=2.5,
        u_r=0.15, T_m=1.0, T_p=0.1, duration=duration, law=law,
        disturbance=dist, filter_enabled=True)


def equilibrium_scenario(law: str = "nmpc", duration: float = 400.0,
                         omega0: float = 5.0) -> Scenario:
    """On-path start on a straight line with the matched command held."""
    path = line_path()
    u_r = 0.15
    cfg = NMPCConfig(u_r=u_r, Q=np.array([1.0, 1.0, 0.0]))
    return Scenario(
        path=path, x0=float(omega0), y0=0.0, psi0=0.0, omega0=float(omega0),
        u_r=u_r, T_m=1.0, T_p=1.0, duration=duration, law=law, nmpc=cfg,
        filter_enabled=False,
        initial_input=InputCmd(u_r, 0.0, u_r))
