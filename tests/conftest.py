from dataclasses import replace

import pytest

from pfguide import (case_study_path, line_path, make_config,
                     realistic_scenario)

# Two starts (x0, y0, omega0) of the benchmark's seed-1 ring
# (perfbench/scenarios.py) whose approach phases once ended NMPC solves on
# the SQP iteration cap.
WIDE_STARTS = ((7.761438708450269, 13.3149424344889, 2.500175504445926),
               (4.60581675451747, 12.627315571863333, 2.4537822661712334))


@pytest.fixture(scope="session")
def demo_path():
    return case_study_path()


@pytest.fixture(scope="session")
def xaxis_path():
    return line_path()


@pytest.fixture(scope="session")
def demo_config(demo_path):
    """Default tuning with the terminal weight synthesized once."""
    return make_config(demo_path)


@pytest.fixture(scope="session")
def wide_start_scenarios():
    """20 s of the realistic preset's NMPC from each of WIDE_STARTS."""
    base = realistic_scenario("nmpc", duration=20.0)
    return [replace(base, x0=x0, y0=y0, omega0=omega0)
            for x0, y0, omega0 in WIDE_STARTS]


@pytest.fixture(scope="session")
def constrained_qp_runs(wide_start_scenarios):
    """NMPC runs whose SQPs meet constrained QPs: the first 60 s of the
    realistic preset (later QPs are all unconstrained) and the wide
    starts."""
    return [realistic_scenario("nmpc", duration=60.0)] + wide_start_scenarios
