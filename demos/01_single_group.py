"""A six-person group debating a fixed agenda of issues.

One interaction matrix describes who listens to whom while any single
issue is discussed.  Across issues, each person's self-weight (their
share of social power) evolves: winners of past debates are listened to
more in the next one.  This script shows where that process settles.
"""

from pathlib import Path

import numpy as np

from socialpower import (
    Constant,
    TopologyProgram,
    dominant_left_eigenvector,
    equilibrium_upper_bound,
    fixed_point,
    load_program,
    simulate,
    validate,
)

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

matrix = load_program(EXPERIMENTS / "group6_random.json").matrices[1]
gamma = dominant_left_eigenvector(matrix)
print("relative interaction matrix, dominant left eigenvector:")
print(np.round(gamma, 4))

# the long-run power split is the fixed point of the one-issue map
x_star = fixed_point(gamma)
print("equilibrium social power:", np.round(x_star, 4))
print("upper bound gamma/(1-gamma):", np.round(equilibrium_upper_bound(gamma), 4))

# a simulation from an arbitrary start lands on the same point
program = TopologyProgram((matrix,), Constant(0))
traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=100)
print("simulated state at issue 100:", np.round(traj.states[-1], 4))
print("distance to equilibrium:", float(np.abs(traj.states[-1] - x_star).sum()))

# star topologies are the exception: the center slowly takes everything
# (the center listens to the four others equally, each of them to the center)
star_c = np.zeros((5, 5))
star_c[0, 1:], star_c[1:, 0] = 0.25, 1.0
star = TopologyProgram((validate(star_c),), Constant(0))
straj = simulate(star, np.full(5, 0.2), issues=2000)
print("\nstar center power at issues 100/500/2000:",
      [round(float(straj.states[s, 0]), 4) for s in (100, 500, 2000)])
