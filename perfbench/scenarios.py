"""Workload definitions and the seeded scenario generator.

Every workload runs the same K scenarios of the ``realistic`` family
(plant step 0.1 s, guidance step 1 s, actuator filter, mirrored-chirp
sway, 400 s) under one guidance law; the base document is the
repository's ``configs/realistic.json``.  The seed draws only the starts
``(x0, y0, omega0)``; the program receives the built ``Scenario`` objects.

The starts form a randomly rotated ring design around the preset start:
K equally spaced bearings, turned together by one seeded angle, with the
distance from the preset start cycling through ``RINGS`` and ``omega0``
stratified over its range.  Closed-loop cost and error depend strongly on
the bearing and distance of the start, so independent draws would make a
K-scenario mean swing by tens of percent from seed to seed; equal spacing
cancels the low harmonics of the bearing dependence while every seed
still draws every start.  The distances are fixed: a seeded radial jitter
of +-0.5 m moved the mean IAE by 2-4% (IQR over median, ten seeds), more
than a quality gate can allow, where the fixed rings move it by under
0.6%.  The outer ring starts about 12 m off the path, past the preset's
own ~6 m, which keeps the NMPC approach phase (and its iteration-cap
exits) in every run.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

BASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "realistic.json"

K = 12                   # scenarios per workload
RINGS = (2.0, 4.0, 6.0)  # m, distance of the start from the preset start
OMEGA_HALF = 0.5         # omega0 drawn in preset +- this, stratified

# Workload name -> guidance law; why each was chosen is in BENCHMARK.json.
WORKLOADS = {
    "nmpc-realistic": "nmpc",
    "pnmpc-realistic": "pnmpc",
    "sglos-realistic": "sglos",
}


def draw_starts(seed: int, center: tuple) -> list:
    """K starts (x0, y0, omega0) around ``center``; same seed, same starts."""
    rng = random.Random(seed)
    x_c, y_c, omega_c = center
    turn = rng.random()
    strata = list(range(K))
    rng.shuffle(strata)
    starts = []
    for j in range(K):
        bearing = 2.0 * math.pi * (j + turn) / K
        r = RINGS[j % len(RINGS)]
        omega0 = omega_c + OMEGA_HALF * (
            2.0 * (strata[j] + rng.random()) / K - 1.0)
        starts.append((x_c + r * math.cos(bearing),
                       y_c + r * math.sin(bearing), omega0))
    return starts


def build_scenarios(pf, law: str, seed: int):
    """Load the base document, place the drawn starts, synthesize P once.

    The synthesized guidance config is stored on each scenario, so
    ``run_scenario`` does not repeat the terminal-weight synthesis.
    Returns ``(scenarios, starts)``.
    """
    base = pf.load_scenario(BASE_CONFIG)
    starts = draw_starts(seed, (base.x0, base.y0, base.omega0))
    scenarios = []
    for x0, y0, omega0 in starts:
        sc = dataclasses.replace(base, law=law, x0=x0, y0=y0, omega0=omega0)
        scenarios.append(dataclasses.replace(sc, nmpc=sc.guidance_config()))
    return scenarios, starts
