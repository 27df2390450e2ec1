"""A committee that alternates between two meeting formats.

With a periodic topology schedule the power vector does not settle on a
single point: it settles on a short cycle, one point per phase.  Each
point is the fixed point of the corresponding composite map, and the
points are chained to each other by the single-issue maps.
"""

from pathlib import Path

import numpy as np

from socialpower import load_program, simulate
from socialpower.periodic import periodic_fixed_points, verify_periodic_limit

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

# matrices 2 and 3 of the six-person group, applied in turn
program = load_program(EXPERIMENTS / "group6_alternating.json")

limit = periodic_fixed_points(program)
for p, y in enumerate(limit.fixed_points):
    print(f"phase {p + 1} fixed point:", np.round(y, 4))
print("chain residuals (each point maps to the next):",
      [f"{r:.1e}" for r in limit.chain_residuals])

traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=120)
ok, worst = verify_periodic_limit(traj, limit, burn_in=40)
print(f"simulation matches the alternating limit: {ok} (worst deviation {worst:.2e})")

# the last few states visibly alternate between the two points
for s in range(116, 121):
    print(f"state at issue {s}:", np.round(traj.states[s], 4))
